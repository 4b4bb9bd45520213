// Fixed-width dynamic bitset used to represent sets of servers.
//
// std::vector<bool> is too slow for the hot paths (pairwise quorum checks,
// Monte Carlo availability) and std::bitset fixes the width at compile time;
// quorum universes in this library are sized at run time, so we roll a small
// word-packed bitset with the set-algebra operations the quorum code needs.

#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sqs {

class Bitset {
 public:
  Bitset() = default;

  // A bitset over `size` positions, all clear.
  explicit Bitset(std::size_t size)
      : size_(size), words_((size + kBits - 1) / kBits, 0) {}

  static Bitset all_set(std::size_t size) {
    Bitset b(size);
    for (std::size_t i = 0; i < b.words_.size(); ++i) b.words_[i] = ~0ull;
    b.trim();
    return b;
  }

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    assert(i < size_);
    return (words_[i / kBits] >> (i % kBits)) & 1u;
  }

  void set(std::size_t i) {
    assert(i < size_);
    words_[i / kBits] |= (1ull << (i % kBits));
  }

  void reset(std::size_t i) {
    assert(i < size_);
    words_[i / kBits] &= ~(1ull << (i % kBits));
  }

  void assign(std::size_t i, bool value) {
    if (value) {
      set(i);
    } else {
      reset(i);
    }
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  // Re-targets the bitset to `size` positions, all clear, reusing the word
  // storage (vector::assign keeps capacity). Observably identical to
  // assigning a fresh Bitset(size) — the reuse primitive behind the scratch
  // arenas (src/runtime/scratch.h).
  void reshape(std::size_t size) {
    size_ = size;
    words_.assign((size + kBits - 1) / kBits, 0);
  }

  // reshape(size) followed by loading the low n bits of `mask`; the in-place
  // equivalent of from_mask (n <= 64).
  void assign_mask(std::uint64_t mask, std::size_t size) {
    assert(size <= kBits);
    reshape(size);
    if (!words_.empty()) words_[0] = mask;
    trim();
  }

  // Word-granular access for the SoA batch kernels (src/core/batch.h): a
  // lane word holds bits [w*64, w*64+64) of the set. num_words() covers the
  // ragged tail — a width-65 set has two words, the second with one live bit.
  std::size_t num_words() const { return words_.size(); }

  std::uint64_t word(std::size_t w) const {
    assert(w < words_.size());
    return words_[w];
  }

  // Stores a full lane word; bits beyond size() are cleared so count()/==
  // stay exact (the width-0/64/65/128 boundary cases are regression-tested
  // in tests/test_bitset.cpp).
  void set_word(std::size_t w, std::uint64_t value) {
    assert(w < words_.size());
    words_[w] = value;
    if (w + 1 == words_.size()) trim();
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool any() const {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }

  bool none() const { return !any(); }

  bool intersects(const Bitset& other) const {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & other.words_[i]) return true;
    return false;
  }

  std::size_t intersection_count(const Bitset& other) const {
    assert(size_ == other.size_);
    std::size_t c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i)
      c += static_cast<std::size_t>(
          __builtin_popcountll(words_[i] & other.words_[i]));
    return c;
  }

  bool is_subset_of(const Bitset& other) const {
    assert(size_ == other.size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~other.words_[i]) return false;
    return true;
  }

  Bitset operator&(const Bitset& other) const {
    assert(size_ == other.size_);
    Bitset r(size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      r.words_[i] = words_[i] & other.words_[i];
    return r;
  }

  Bitset operator|(const Bitset& other) const {
    assert(size_ == other.size_);
    Bitset r(size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      r.words_[i] = words_[i] | other.words_[i];
    return r;
  }

  Bitset operator~() const {
    Bitset r(size_);
    for (std::size_t i = 0; i < words_.size(); ++i) r.words_[i] = ~words_[i];
    r.trim();
    return r;
  }

  Bitset minus(const Bitset& other) const {
    assert(size_ == other.size_);
    Bitset r(size_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      r.words_[i] = words_[i] & ~other.words_[i];
    return r;
  }

  bool operator==(const Bitset& other) const {
    return size_ == other.size_ && words_ == other.words_;
  }
  bool operator!=(const Bitset& other) const { return !(*this == other); }

  // Total order usable as a std::map/std::set key.
  bool operator<(const Bitset& other) const {
    if (size_ != other.size_) return size_ < other.size_;
    return words_ < other.words_;
  }

  // Calls fn(i) for each set bit i, in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(wi * kBits + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

  std::vector<std::size_t> to_indices() const {
    std::vector<std::size_t> out;
    out.reserve(count());
    for_each([&](std::size_t i) { out.push_back(i); });
    return out;
  }

  // Low n bits taken from `mask` (n <= 64); handy for exhaustive enumeration.
  static Bitset from_mask(std::uint64_t mask, std::size_t size) {
    assert(size <= kBits);
    Bitset b(size);
    if (!b.words_.empty()) b.words_[0] = mask;
    b.trim();
    return b;
  }

  std::uint64_t to_mask() const {
    assert(size_ <= kBits);
    return words_.empty() ? 0 : words_[0];
  }

  std::size_t hash() const {
    std::size_t h = std::hash<std::size_t>{}(size_);
    for (auto w : words_) h = h * 1099511628211ull + std::hash<std::uint64_t>{}(w);
    return h;
  }

  // "{0,3,5}" style rendering for diagnostics.
  std::string to_string() const {
    std::string out = "{";
    bool first = true;
    for_each([&](std::size_t i) {
      if (!first) out += ",";
      out += std::to_string(i);
      first = false;
    });
    out += "}";
    return out;
  }

 private:
  static constexpr std::size_t kBits = 64;

  // Clears bits beyond size_ so count()/== stay exact after ~ or all_set.
  void trim() {
    const std::size_t extra = words_.size() * kBits - size_;
    if (extra > 0 && !words_.empty())
      words_.back() &= (~0ull >> extra);
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3): bit (r, c) of
// the input — bit c of m[r] — moves to bit (c, r). This is the primitive
// behind the draw-order-preserving row→column flip of WorldBatch sampling:
// rows are per-trial server masks drawn in scalar order, columns are the
// per-server trial lanes the batch kernels consume.
//
// `Word` is std::uint64_t or a GCC vector of 64-bit lanes: a vector word
// transposes one independent 64x64 matrix per lane with the same
// instructions (the lane-group transpose of core/batch.h).
template <typename Word>
[[gnu::always_inline]] inline void transpose_64x64_words(Word m[64]) {
  std::uint64_t mask = 0x00000000ffffffffull;
  for (std::size_t shift = 32; shift != 0; shift >>= 1) {
    for (std::size_t r = 0; r < 64; r = (r + shift + 1) & ~shift) {
      const Word t = ((m[r] >> shift) ^ m[r + shift]) & mask;
      m[r] ^= t << shift;
      m[r + shift] ^= t;
    }
    mask ^= mask << (shift >> 1);
  }
}

inline void transpose_64x64(std::uint64_t m[64]) { transpose_64x64_words(m); }

}  // namespace sqs
