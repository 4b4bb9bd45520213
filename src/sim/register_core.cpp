#include "sim/register_core.h"

#include <algorithm>

#include "sim/keyed_hash.h"

namespace sqs {

std::size_t WriteSet::find(const Timestamp& ts, std::uint64_t value) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(fmix64(
      ts.counter ^ fmix64(value ^ static_cast<std::uint32_t>(ts.writer))));
  for (i &= mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (!slot.used || (slot.counter == ts.counter &&
                       slot.writer == ts.writer && slot.value == value))
      return i;
  }
}

bool WriteSet::contains(const Timestamp& ts, std::uint64_t value) const {
  return !slots_.empty() && slots_[find(ts, value)].used;
}

void WriteSet::rehash(std::size_t num_slots) {
  std::vector<Slot> old(num_slots);
  old.swap(slots_);
  for (const Slot& slot : old)
    if (slot.used)
      slots_[find(Timestamp{slot.counter, slot.writer}, slot.value)] = slot;
}

void WriteSet::reserve(std::size_t more) {
  std::size_t num_slots = std::max<std::size_t>(64, slots_.size());
  while ((size_ + more) * 4 > num_slots * 3) num_slots *= 2;
  if (num_slots != slots_.size()) rehash(num_slots);
}

void WriteSet::insert(const Timestamp& ts, std::uint64_t value) {
  if ((size_ + 1) * 4 > slots_.size() * 3)
    rehash(std::max<std::size_t>(64, 2 * slots_.size()));
  Slot& slot = slots_[find(ts, value)];
  if (slot.used) return;
  slot = Slot{ts.counter, value, ts.writer, true};
  ++size_;
}

void apply_epoch_transition(const EpochedFamily& sched, int e,
                            std::vector<Replica>& replicas) {
  const MembershipView& prev = sched.entry(e - 1).view;
  const MembershipView& next = sched.entry(e).view;
  const auto at = [&replicas](int id) -> Replica& {
    return replicas[static_cast<std::size_t>(id)];
  };
  for (const int id : prev.members) {  // drain-on-leave
    if (next.contains(id)) continue;
    const Timestamp ts = at(id).timestamp(0);
    if (!(Timestamp{} < ts)) continue;
    const std::uint64_t value = at(id).value(0);
    for (const int dst : next.members) at(dst).adopt_state(ts, value, 0);
  }
  Timestamp best;  // join-sync
  std::uint64_t best_value = 0;
  for (const int id : prev.members) {
    if (best < at(id).timestamp(0)) {
      best = at(id).timestamp(0);
      best_value = at(id).value(0);
    }
  }
  for (const int id : next.members)
    if (!prev.contains(id) && Timestamp{} < best)
      at(id).adopt_state(best, best_value, 0);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    replicas[i].set_member(next.contains(static_cast<int>(i)));
    replicas[i].set_epoch(e);
  }
}

}  // namespace sqs
