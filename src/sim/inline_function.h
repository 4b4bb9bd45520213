// A move-only callable with fixed inline storage, for the simulator's hot
// callbacks: event closures (Simulator::schedule, SimClient's sends) and op
// completions (SimClient::read/write/acquire).
//
// Unlike std::function it never allocates: the closure is constructed in an
// in-object buffer of kCapacity bytes, and a closure that does not fit is a
// compile error (trim its captures — capture an index or a pointer to state
// that outlives the call instead of the state itself). There is no heap
// fallback. A trivially copyable closure moves by memcpy with no indirect
// call; only a closure holding an owning member (a std::function, a
// shared_ptr) pays for a manager call on move and destruction.

#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sqs {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Inline bytes for the closure's captures: eight pointers' worth, which
  // covers a probe reply leg ({client, slot, generation, server, target,
  // reply, flags}) and a fault event with its three targets.
  static constexpr std::size_t kCapacity = 64;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "closure exceeds InlineFunction::kCapacity: trim its "
                  "captures");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "closure is over-aligned for InlineFunction");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFunction closures must move without throwing");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* self, Args... args) -> R {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    };
    if constexpr (!std::is_trivially_copyable_v<Fn>) {
      // Moves *src into dst (when dst is non-null), then destroys *src.
      manage_ = [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        if (dst != nullptr) ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      destroy();
      take(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { destroy(); }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  void take(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ == nullptr) return;
    if (manage_ != nullptr) {
      manage_(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kCapacity);
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }
  void destroy() noexcept {
    if (manage_ != nullptr) manage_(nullptr, storage_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  R (*invoke_)(void*, Args...) = nullptr;
  void (*manage_)(void*, void*) = nullptr;
};

}  // namespace sqs
