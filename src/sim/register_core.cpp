#include "sim/register_core.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace sqs {

bool RegisterPolicy::validate(const char* owner) const {
  bool ok = true;
  const auto reject = [&ok, owner](const char* what, double value) {
    std::fprintf(stderr, "%s: invalid %s %g\n", owner, what, value);
    ok = false;
  };
  if (lie_tolerance < 0) reject("lie_tolerance", lie_tolerance);
  if (!(view_fetch_delay >= 0.0)) reject("view_fetch_delay", view_fetch_delay);
  if (max_view_fetches < 0) reject("max_view_fetches", max_view_fetches);
  return ok;
}

void QuorumAttempt::probed(SignedSet& out) const {
  out.reshape(universe_);
  for (const int s : touched_) out.add_positive(s);
  for (const int s : missed_) out.add_negative(s);
}

bool QuorumAttempt::audit_retired_read(const FoldResult& adopted,
                                       obs::OpId op,
                                       std::uint64_t at_us) const {
  if (!adopted.ok || adopted.index < 0 ||
      served_retired_[static_cast<std::size_t>(adopted.index)] == 0)
    return false;
  obs::flight(obs::FlightKind::kRetiredRead, op, at_us, wire(adopted.index),
              adopted.ts.counter);
  return true;
}

bool acked_write_visible(const std::vector<Replica>& replicas,
                         const Timestamp& newest_acked,
                         const MembershipView* members) {
  if (!(Timestamp{} < newest_acked)) return true;
  for (const Replica& r : replicas) {
    if (members != nullptr && !members->contains(r.id())) continue;
    if (!(r.timestamp(0) < newest_acked)) return true;
  }
  return false;
}

std::size_t WriteSet::find(const Timestamp& ts, std::uint64_t value) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(ts, value) & mask;; i = (i + 1) & mask) {
    const std::uint32_t entry = index_[i];
    if (entry == kEmpty) return i;
    const Binding& b = log_[entry - 1];
    if (b.counter == ts.counter && b.writer == ts.writer && b.value == value)
      return i;
  }
}

bool WriteSet::contains(const Timestamp& ts, std::uint64_t value) const {
  return !index_.empty() && index_[find(ts, value)] != kEmpty;
}

void WriteSet::rehash(std::size_t num_slots) {
  index_.assign(num_slots, kEmpty);
  for (std::size_t pos = 0; pos < log_.size(); ++pos) {
    const Binding& b = log_[pos];
    index_[find(Timestamp{b.counter, b.writer}, b.value)] =
        static_cast<std::uint32_t>(pos + 1);
  }
}

void WriteSet::reserve(std::size_t more) {
  std::size_t num_slots = std::max<std::size_t>(64, index_.size());
  while ((size() + more) * 4 > num_slots * 3) num_slots *= 2;
  if (num_slots != index_.size()) rehash(num_slots);
  log_.reserve(size() + more);
}

void WriteSet::insert(const Timestamp& ts, std::uint64_t value) {
  if ((size() + 1) * 4 > index_.size() * 3)
    rehash(std::max<std::size_t>(64, 2 * index_.size()));
  std::uint32_t& entry = index_[find(ts, value)];
  if (entry != kEmpty) return;
  assert(log_.size() < UINT32_MAX);
  log_.push_back(Binding{ts.counter, value, ts.writer});
  entry = static_cast<std::uint32_t>(log_.size());
}

void WriteFrontier::add(double finish, const Timestamp& ts) {
  if (!(frontier_ < ts)) return;  // cannot raise the frontier
  const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(head_);
  // The first kept write that finishes no earlier than this one.
  auto at = std::lower_bound(
      first, pending_.end(), finish,
      [](const Pending& p, double f) { return p.finish < f; });
  // Dominated by an earlier-finishing write with a timestamp no lower.
  if (at != first && !(std::prev(at)->ts < ts)) return;
  // It dominates the writes from `at` on whose timestamps it reaches.
  auto end = at;
  while (end != pending_.end() && !(ts < end->ts)) ++end;
  if (end == at) {
    pending_.insert(at, Pending{finish, ts});
  } else {
    *at = Pending{finish, ts};
    pending_.erase(at + 1, end);
  }
}

const Timestamp& WriteFrontier::advance(double now) {
  while (head_ < pending_.size() && pending_[head_].finish <= now)
    frontier_ = std::max(frontier_, pending_[head_++].ts);
  if (head_ == pending_.size()) {
    pending_.clear();
    head_ = 0;
  } else if (head_ >= 64 && 2 * head_ >= pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return frontier_;
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
  obs::flight(obs::FlightKind::kEpochTransition, obs::kNoOp,
              obs::to_us(sched.entry(e).at), -1, static_cast<std::uint64_t>(e));
}

}  // namespace sqs
