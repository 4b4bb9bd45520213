// Several xoshiro256** streams advanced side by side in vector lanes.
//
// Every Monte Carlo chunk draws from its own Rng (base.split(c)), so G
// chunks can be sampled at once: lane g of an RngLanes<G> is chunk g's
// stream, and one vector instruction steps all G generators. Each lane
// yields exactly the sequence its scalar Rng would; the lane samplers
// (core/batch.h, mismatch/batch.h) make data-dependent draw counts with
// MaskedDraws, which steps only the lanes that draw, so every lane also
// consumes its stream exactly as the scalar oracle does.
//
// The lane types are GCC vector extensions. RngLanes<8> is meant to be
// compiled under target("avx512f"), RngLanes<4> under target("avx2") and
// RngLanes<1> (plain 64-bit words) anywhere; host_rng_lanes() says which
// the running CPU can execute. The helpers below take and return vectors
// by reference only: a vector passed by value through a function of the
// default target changes the ABI, which GCC reports as -Wpsabi.
//
// Per-lane predicates are LaneMask<G>: a lane word (all-ones or zero per
// lane) at widths 1 and 4, an AVX-512 mask register (one bit per lane) at
// width 8. There a Bernoulli draw is one unsigned compare of the raw draw
// against threshold << 11 straight into a mask register, reach bits are
// set with a masked OR, and a draw only some lanes make steps the state
// under a merge mask. Those width-8 forms live in namespace lanes512 as
// ordinary inline target("avx512f") functions, not always_inline ones:
// GCC refuses to inline a target function into the default-target
// template bodies, so they are inlined only once a body sits in one of
// the target("avx512f") entry points (DESIGN.md §3.12).

#pragma once

#include <immintrin.h>

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

// The width-8 primitives as AVX-512F instructions. Masks are __mmask8,
// bit g for lane g. Not always_inline: see the file comment.
namespace lanes512 {

using U = LaneWords<8>::U;

[[gnu::target("avx512f")]] inline __m512i bits(const U& x) {
  return reinterpret_cast<__m512i>(x);
}

// The lanes of `among` where x >= t, compared unsigned: one vpcmpuq under
// a write mask.
[[gnu::target("avx512f")]] inline __mmask8 at_least(const U& x, const U& t,
                                                     __mmask8 among) {
  return _mm512_mask_cmp_epu64_mask(among, bits(x), bits(t), _MM_CMPINT_NLT);
}

// The lanes where x < t, compared unsigned.
[[gnu::target("avx512f")]] inline __mmask8 below(const U& x, const U& t) {
  return _mm512_cmp_epu64_mask(bits(x), bits(t), _MM_CMPINT_LT);
}

// word |= bit in the lanes of m: one merge-masked vporq.
[[gnu::target("avx512f")]] inline void or_where(__mmask8 m, const U& bit,
                                                U& word) {
  word = reinterpret_cast<U>(
      _mm512_mask_or_epi64(bits(word), m, bits(word), bits(bit)));
}

// word &= keep in the lanes of m.
[[gnu::target("avx512f")]] inline void and_where(__mmask8 m, const U& keep,
                                                 U& word) {
  word = reinterpret_cast<U>(
      _mm512_mask_and_epi64(bits(word), m, bits(word), bits(keep)));
}

// Rng::next_u64's state update in the lanes of m; the other lanes keep
// their state. The three-way XORs are vpternlogq and the last operation on
// each word is merge-masked, so the masked step is the unmasked one's six
// instructions (m = 0xFF is the unmasked step).
[[gnu::target("avx512f")]] inline void step_where(__mmask8 m, U& s0, U& s1,
                                                  U& s2, U& s3) {
  const __m512i t = bits(s1 << 17);
  const __m512i x3 = bits(s3 ^ s1);  // s3 ^= s1
  // s1 ^= s2 ^ s0 and s2 ^= s0 ^ t, in the scalar order's values.
  s1 = reinterpret_cast<U>(_mm512_mask_ternarylogic_epi64(
      bits(s1), m, bits(s2), bits(s0), 0x96));
  s2 = reinterpret_cast<U>(
      _mm512_mask_ternarylogic_epi64(bits(s2), m, bits(s0), t, 0x96));
  s0 = reinterpret_cast<U>(_mm512_mask_xor_epi64(bits(s0), m, bits(s0), x3));
  s3 = reinterpret_cast<U>(_mm512_mask_rol_epi64(bits(s3), m, x3, 45));
}

// True iff any lane of v is nonzero: vptestmd + kortestw (a 64-bit lane is
// nonzero iff one of its 32-bit halves is).
[[gnu::target("avx512f")]] inline bool any(const U& v) {
  const __mmask16 k = _mm512_test_epi32_mask(bits(v), bits(v));
  return !_kortestz_mask16_u8(k, k);
}

}  // namespace lanes512

// Which lanes a predicate holds in: a lane word, all-ones or zero per
// lane, at widths 1 and 4; a mask register at width 8.
template <int G>
struct LaneMaskOf {
  using type = typename LaneWords<G>::U;
};
template <>
struct LaneMaskOf<8> {
  using type = __mmask8;
};
template <int G>
using LaneMask = typename LaneMaskOf<G>::type;

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

// True iff any lane of v is nonzero.
template <int G>
[[gnu::always_inline]] inline bool lanes_any(
    const typename LaneWords<G>::U& v) {
  if constexpr (G == 1) {
    return v != 0;
  } else if constexpr (G == 8) {
    return lanes512::any(v);
  } else {
    std::uint64_t any = 0;
    for (int g = 0; g < G; ++g) any |= v[g];
    return any != 0;
  }
}

// True iff m holds in some lane.
template <int G>
[[gnu::always_inline]] inline bool mask_any(const LaneMask<G>& m) {
  if constexpr (G == 8) {
    return m != 0;
  } else {
    return lanes_any<G>(m);
  }
}

// word |= bit in the lanes of m.
template <int G>
[[gnu::always_inline]] inline void lanes_or_where(
    const LaneMask<G>& m, const typename LaneWords<G>::U& bit,
    typename LaneWords<G>::U& word) {
  if constexpr (G == 8) {
    lanes512::or_where(m, bit, word);
  } else {
    word |= bit & m;
  }
}

// word &= keep in the lanes of m; the other lanes keep word.
template <int G>
[[gnu::always_inline]] inline void lanes_and_where(
    const LaneMask<G>& m, const typename LaneWords<G>::U& keep,
    typename LaneWords<G>::U& word) {
  if constexpr (G == 8) {
    lanes512::and_where(m, keep, word);
  } else {
    word &= keep | ~m;
  }
}

// A bernoulli_threshold T broadcast in the form RngLanes<G> compares draws
// with. Widths 1 and 4 compare draw >> 11 < T (lanes_below). Width 8
// compares the raw draw instead: for T <= 2^53, x >> 11 < T iff
// x < T << 11, one unsigned compare and no shift. T = 2^53 (p >= 1) is
// the one value where T << 11 wraps, to 0; `can_miss` is empty there, so
// every draw hits, as it must.
template <int G>
struct LaneThreshold {
  using U = typename LaneWords<G>::U;
  [[gnu::always_inline]] explicit LaneThreshold(std::uint64_t threshold)
      : t(U{} + threshold) {}
  U t;
};
template <>
struct LaneThreshold<8> {
  using U = LaneWords<8>::U;
  [[gnu::always_inline]] explicit LaneThreshold(std::uint64_t threshold)
      : t(U{} + (threshold << 11)),
        can_miss(lanes512::below(U{} + threshold, U{} + (1ull << 53))) {}
  U t;
  __mmask8 can_miss;
};

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

  // The draw the next step returns, in every lane.
  [[gnu::always_inline]] void output(U& result) const {
    const U five = (s1 << 2) + s1;
    const U rot = (five << 7) | (five >> 57);
    result = (rot << 3) + rot;
  }

  // Rng::next_u64 in every lane.
  [[gnu::always_inline]] void next(U& result) {
    output(result);
    if constexpr (G == 8) {
      lanes512::step_where(0xFF, s0, s1, s2, s3);
    } else {
      const U t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
  }

  // up = the lanes whose next draw misses bernoulli_below (a server that
  // stays up, a link that holds).
  [[gnu::always_inline]] void next_up(const LaneThreshold<G>& t,
                                      LaneMask<G>& up) {
    U x;
    next(x);
    if constexpr (G == 8) {
      up = lanes512::at_least(x, t.t, t.can_miss);
    } else {
      U hit;
      lanes_below<G>(x >> 11, t.t, hit);
      up = ~hit;
    }
  }

  // Lanes where mask is set take `other`'s state; the rest keep theirs.
  [[gnu::always_inline]] void take_where(const U& mask, const RngLanes& other) {
    lanes_select<G>(mask, other.s0, s0, s0);
    lanes_select<G>(mask, other.s1, s1, s1);
    lanes_select<G>(mask, other.s2, s2, s2);
    lanes_select<G>(mask, other.s3, s3, s3);
  }
};

// A run of draws that only the lanes in `where` make (a server's link
// draws when it is up, a row's cut draws when it is partitioned): the
// other lanes' streams stand still and their `up` results are clear.
// Width 8 steps each draw under the mask register. Width 4 steps every
// lane and puts the other lanes' state back once, in done(), for the whole
// run. Width 1 is entered only with its lane set (the caller branches), so
// it just draws.
template <int G>
class MaskedDraws {
 public:
  using U = typename LaneWords<G>::U;

  [[gnu::always_inline]] MaskedDraws(RngLanes<G>& rng, const LaneMask<G>& where)
      : rng_(rng), where_(where), before_(rng) {}

  // RngLanes::next_up in the lanes of `where`.
  [[gnu::always_inline]] void next_up(const LaneThreshold<G>& t,
                                      LaneMask<G>& up) {
    if constexpr (G == 8) {
      U x;
      rng_.output(x);
      lanes512::step_where(where_, rng_.s0, rng_.s1, rng_.s2, rng_.s3);
      up = lanes512::at_least(x, t.t, where_ & t.can_miss);
    } else {
      rng_.next_up(t, up);
      if constexpr (G > 1) up &= where_;
    }
  }

  [[gnu::always_inline]] void done() {
    if constexpr (G == 4) rng_.take_where(~where_, before_);
  }

 private:
  RngLanes<G>& rng_;
  LaneMask<G> where_;
  RngLanes<G> before_;  // read at width 4 only
};

}  // namespace sqs
