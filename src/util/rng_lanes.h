// Several xoshiro256** streams advanced side by side in vector lanes.
//
// Every Monte Carlo chunk draws from its own Rng (base.split(c)), so G
// chunks can be sampled at once: lane g of an RngLanes<G> is chunk g's
// stream, and one vector instruction steps all G generators. Each lane
// yields exactly the sequence its scalar Rng would; the lane samplers
// (core/batch.h, mismatch/batch.h) turn data-dependent draw counts into
// per-lane blends of candidate states, so every lane also consumes its
// stream exactly as the scalar oracle does.
//
// The lane types are GCC vector extensions. RngLanes<8> is meant to be
// compiled under target("avx512f"), RngLanes<4> under target("avx2") and
// RngLanes<1> (plain 64-bit words) anywhere; host_rng_lanes() says which
// the running CPU can execute. The helpers below take and return vectors
// by reference only: a vector passed by value through a function of the
// default target changes the ABI, which GCC reports as -Wpsabi.

#pragma once

#include <cstdint>
#include <cstring>

#include "util/rng.h"

namespace sqs {

// Widest lane group any sampler runs.
inline constexpr int kMaxRngLanes = 8;

// True iff this CPU runs RngLanes<width>: 1 always, 4 with AVX2, 8 with
// AVX-512F.
bool rng_lanes_supported(int width);

// The widest supported width, detected once per process with
// __builtin_cpu_supports.
int host_rng_lanes();

// The width to draw `streams` streams with: 1 for a single stream, else
// the narrowest supported width of at least `streams`, capped at
// host_rng_lanes().
int rng_lanes_for(int streams);

// The states of up to kMaxRngLanes streams, word-major: s[k][g] is word k
// of lane g, so a G-lane loop loads each state word as one vector.
struct LaneStates {
  alignas(64) std::uint64_t s[4][kMaxRngLanes] = {};

  void set(int lane, const Rng& rng) {
    for (int k = 0; k < 4; ++k) s[k][lane] = rng.s_[k];
  }
  void get(int lane, Rng& rng) const {
    for (int k = 0; k < 4; ++k) rng.s_[k] = s[k][lane];
  }
};

// G 64-bit lanes: a vector for G > 1, a plain word for G == 1 (so the
// one-lane instance is the scalar loop). S is the signed view the
// compares use.
template <int G>
struct LaneWords {
  typedef std::uint64_t U __attribute__((vector_size(8 * G)));
  typedef std::int64_t S __attribute__((vector_size(8 * G)));
};
template <>
struct LaneWords<1> {
  using U = std::uint64_t;
  using S = std::int64_t;
};

// Lane words to and from plain word arrays: p[g] is lane g. Vectors are
// only ever held in registers or locals; memory keeps plain 64-bit words,
// so no container has to honour a vector type's 32- or 64-byte alignment.
template <int G>
[[gnu::always_inline]] inline void lanes_load(const std::uint64_t* p,
                                              typename LaneWords<G>::U& out) {
  std::memcpy(&out, p, sizeof out);
}
template <int G>
[[gnu::always_inline]] inline void lanes_store(
    std::uint64_t* p, const typename LaneWords<G>::U& v) {
  std::memcpy(p, &v, sizeof v);
}

// out = all-ones in the lanes where x < t, zero elsewhere. Both operands
// must be below 2^63 (a draw >> 11 and a bernoulli_threshold are at most
// 2^53), which makes the signed compare — the only 64-bit compare AVX2
// has — exact.
template <int G>
[[gnu::always_inline]] inline void lanes_below(
    const typename LaneWords<G>::U& x, const typename LaneWords<G>::U& t,
    typename LaneWords<G>::U& out) {
  using U = typename LaneWords<G>::U;
  using S = typename LaneWords<G>::S;
  if constexpr (G == 1) {
    out = -static_cast<std::uint64_t>(static_cast<std::int64_t>(x) <
                                      static_cast<std::int64_t>(t));
  } else {
    out = reinterpret_cast<U>(reinterpret_cast<S>(x) < reinterpret_cast<S>(t));
  }
}

// out = a in the lanes where mask is set, b elsewhere (mask lanes are
// all-ones or zero).
template <int G>
[[gnu::always_inline]] inline void lanes_select(
    const typename LaneWords<G>::U& mask, const typename LaneWords<G>::U& a,
    const typename LaneWords<G>::U& b, typename LaneWords<G>::U& out) {
  out = (a & mask) | (b & ~mask);
}

// True iff any lane of mask is nonzero.
template <int G>
[[gnu::always_inline]] inline bool lanes_any(
    const typename LaneWords<G>::U& mask) {
  if constexpr (G == 1) {
    return mask != 0;
  } else {
    std::uint64_t any = 0;
    for (int g = 0; g < G; ++g) any |= mask[g];
    return any != 0;
  }
}

// G xoshiro256** generators, one per lane. `*5` and `*9` are shift-adds:
// AVX2 and AVX-512F have no 64-bit multiply.
template <int G>
struct RngLanes {
  using U = typename LaneWords<G>::U;

  U s0, s1, s2, s3;

  [[gnu::always_inline]] void load(const LaneStates& st) {
    std::memcpy(&s0, st.s[0], sizeof(U));
    std::memcpy(&s1, st.s[1], sizeof(U));
    std::memcpy(&s2, st.s[2], sizeof(U));
    std::memcpy(&s3, st.s[3], sizeof(U));
  }
  [[gnu::always_inline]] void store(LaneStates& st) const {
    std::memcpy(st.s[0], &s0, sizeof(U));
    std::memcpy(st.s[1], &s1, sizeof(U));
    std::memcpy(st.s[2], &s2, sizeof(U));
    std::memcpy(st.s[3], &s3, sizeof(U));
  }

  // Rng::next_u64 in every lane.
  [[gnu::always_inline]] void next(U& result) {
    const U five = (s1 << 2) + s1;
    const U rot = (five << 7) | (five >> 57);
    result = (rot << 3) + rot;
    const U t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
  }

  // out = all-ones in the lanes whose next draw is a bernoulli_below hit
  // (x >> 11 < threshold).
  [[gnu::always_inline]] void next_below(const U& threshold, U& out) {
    U x;
    next(x);
    lanes_below<G>(x >> 11, threshold, out);
  }

  // Lanes where mask is set take `other`'s state; the rest keep theirs.
  [[gnu::always_inline]] void take_where(const U& mask, const RngLanes& other) {
    lanes_select<G>(mask, other.s0, s0, s0);
    lanes_select<G>(mask, other.s1, s1, s1);
    lanes_select<G>(mask, other.s2, s2, s2);
    lanes_select<G>(mask, other.s3, s3, s3);
  }
};

}  // namespace sqs
