// The fleet-level pieces of the Sect. 4 register protocol shared by the
// simulator's SimClient/harness and the served runner.
//
//   fold_replies — what an acquired quorum's replies say: the max-timestamp
//     fold, or the Malkhi–Reiter–Wool masking vote when up to b replicas
//     may lie. Allocation-free.
//   WriteSet — the (ts, value) bindings genuine writes produced, against
//     which the fabricated-read audits check what reads returned.
//   apply_epoch_transition — the rng-free membership change at an epoch
//     boundary.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/epoch.h"
#include "sim/replica.h"

namespace sqs {

// One replica's reply to a probe; nullopt when the probe did not reach it.
using ReplySlot = std::optional<std::pair<Timestamp, std::uint64_t>>;

struct FoldResult {
  bool ok = true;  // false only when a masking vote found no b+1 pair
  // The adopted (ts, value); the unwritten register ({}, 0) when no reply
  // carries a written cell.
  Timestamp ts;
  std::uint64_t value = 0;
  int index = -1;  // reply index adopted, -1 when none
};

// Folds replies[i] for i in `order` (a range of reply indices; replies
// outside it must be nullopt). With lie_tolerance b == 0 this is the max-
// timestamp fold over reached replies (Sect. 4's client requirement). With
// b > 0 it is the masking vote: the highest-timestamped (ts, value) pair
// reported identically by at least b+1 replies, else !ok — the op fails
// rather than return a possible fabrication. Both adopt the first reply in
// `order` among equal timestamps. Two distinct pairs can never both clear
// b+1 at one timestamp in-model (that would need b+1 coordinated liars),
// and the tie rule keeps the first-seen winner stable if the model is ever
// violated. The vote is O(|order|^2) over a small fleet.
template <typename Order>
FoldResult fold_replies(const std::vector<ReplySlot>& replies,
                        const Order& order, int lie_tolerance) {
  FoldResult out;
  if (lie_tolerance <= 0) {
    for (const int i : order) {
      const ReplySlot& r = replies[static_cast<std::size_t>(i)];
      if (r.has_value() && out.ts < r->first)
        out = FoldResult{true, r->first, r->second, i};
    }
    return out;
  }
  out.ok = false;
  for (const int i : order) {
    const ReplySlot& cand = replies[static_cast<std::size_t>(i)];
    if (!cand.has_value() || (out.ok && !(out.ts < cand->first))) continue;
    int votes = 0;
    for (const int j : order)
      if (replies[static_cast<std::size_t>(j)] == cand) ++votes;
    if (votes >= lie_tolerance + 1)
      out = FoldResult{true, cand->first, cand->second, i};
  }
  return out;
}

// A grow-only set of (ts, value) bindings: an open-addressing table
// (linear probing, power-of-two size, at most 3/4 full), so a binding costs
// no node allocation.
class WriteSet {
 public:
  bool contains(const Timestamp& ts, std::uint64_t value) const;
  void insert(const Timestamp& ts, std::uint64_t value);
  // Makes room for `more` inserts beyond the current size without growth.
  void reserve(std::size_t more);

 private:
  void rehash(std::size_t num_slots);
  struct Slot {
    std::uint64_t counter = 0;
    std::uint64_t value = 0;
    int writer = 0;
    bool used = false;
  };
  // Index of the binding's slot, or of the empty slot where it belongs.
  std::size_t find(const Timestamp& ts, std::uint64_t value) const;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

// Crosses `replicas` (indexed by logical id) into epoch `e` of `sched`:
// state transfer first, so no window exists in which the new view lacks
// the old view's writes, then membership flips. Drain-on-leave: every
// leaver's written register is adopted by every member of the new view, so
// an acked write never strands on a retired replica (no-lost-acked-write
// across epoch boundaries). Join-sync: joiners adopt the newest state held
// anywhere in the old view, so a fresh replica never serves the unwritten
// register while the rest of its epoch has history. Finally every replica
// is stamped with epoch `e`; stale clients then see either fences (retired
// replicas) or newer epoch stamps in replies — both observable triggers
// for a view refresh. Draws no randomness, so churn never shifts an rng
// stream.
void apply_epoch_transition(const EpochedFamily& sched, int e,
                            std::vector<Replica>& replicas);

}  // namespace sqs
