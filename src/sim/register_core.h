// The Sect. 4 register protocol shared by the simulator (SimClient, the
// harness) and the served runner. Each driver owns its clock and
// transport; the protocol decisions live here: RegisterPolicy (the knobs),
// QuorumAttempt (one attempt's evidence and verdicts), fold_replies (max
// fold or masking vote), WriteSet (genuine write bindings), and the
// end-of-run and epoch-boundary steps acked_write_visible and
// apply_epoch_transition.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/epoch.h"
#include "core/probe_strategy.h"
#include "core/signed_set.h"
#include "obs/recorder.h"
#include "sim/replica.h"
#include "util/rng.h"

namespace sqs {

struct RegisterPolicy {
  // Masking vote (Malkhi–Reiter–Wool): when > 0, up to this many replicas
  // may lie, so a read only adopts the highest-timestamped (ts, value)
  // pair reported identically by >= lie_tolerance+1 reached replicas, and a
  // write derives its new timestamp from voted pairs only; no such pair
  // fails the op instead of returning a possible fabrication. 0 keeps the
  // classic max-timestamp fold — correct under the paper's fail-stop
  // model, and exactly what a Byzantine plan exploits.
  int lie_tolerance = 0;
  // Stale views (epoch mode): a client learns its view is stale from a
  // retired replica's fence or a newer epoch stamp on a reply. A *failed*
  // attempt with such evidence fetches the current view (a fixed,
  // rng-free view_fetch_delay round trip, so churn stays stream-neutral)
  // and re-probes, at most max_view_fetches times per op without using up
  // an attempt; a *successful* one refreshes after the op. refresh_views
  // off makes the client stale forever — the designed-to-fail scenario.
  bool refresh_views = true;
  double view_fetch_delay = 0.05;
  int max_view_fetches = 4;

  // True iff every knob is usable; one stderr line per bad field,
  // prefixed with `owner`.
  bool validate(const char* owner) const;
};

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

// Which reached reply a fold visits first, so which one wins a tie.
enum class FoldOrder { kFamilyIndex, kProbe };

// One acquisition attempt: the driver asks for the next family index,
// resolves the probe on its own clock and transport, and reports the
// outcome; the attempt feeds the strategy and keeps the evidence the
// verdicts read. Evidence is indexed by family index; in epoch mode the
// view maps an index to the replica on the wire.
class QuorumAttempt {
 public:
  // Evidence for families of up to `capacity` indices allocates nothing.
  explicit QuorumAttempt(int capacity = 0) { reset(capacity, nullptr); }

  // Resets `strategy` (caller-owned) from `rng` and drops the previous
  // attempt's evidence in O(touched). `view` is nullptr outside epoch mode.
  void begin(ProbeStrategy* strategy, Rng* rng, const MembershipView* view) {
    strategy_ = strategy;
    strategy_->reset(rng);
    reset(strategy_->universe_size(), view);
  }
  // An attempt aborted before its first probe (the partition filter).
  void begin_aborted(int universe, const MembershipView* view) {
    strategy_ = nullptr;
    reset(universe, view);
  }

  bool in_progress() const { return status() == ProbeStatus::kInProgress; }
  bool acquired() const { return status() == ProbeStatus::kAcquired; }
  int next_server() const { return strategy_->next_server(); }
  int wire(int s) const {  // family index -> replica id
    return view_ != nullptr ? view_->members[static_cast<std::size_t>(s)] : s;
  }

  // Probe outcomes for family index `s`. A reply's `served_retired` is
  // sampled AT SERVE TIME (a member serving just before its epoch boundary
  // is not a retired read); a `reply_epoch` newer than the view, like a
  // fence, is staleness evidence. A fence is also a miss.
  void reached(int s, const Timestamp& ts, std::uint64_t value,
               bool served_retired, int reply_epoch) {
    if (view_ != nullptr && reply_epoch > view_->epoch)
      saw_newer_epoch_ = true;
    replies_[static_cast<std::size_t>(s)] = std::make_pair(ts, value);
    served_retired_[static_cast<std::size_t>(s)] = served_retired ? 1 : 0;
    touched_.push_back(s);
    if (max_.ts < ts) max_ = FoldResult{true, ts, value, s};
    sorted_ = false;
    strategy_->observe(s, true);
  }
  void missed(int s) {
    missed_.push_back(s);
    strategy_->observe(s, false);
  }
  void fenced(int s) {
    saw_newer_epoch_ = true;
    missed(s);
  }

  // Refills `out` with +reached, -missed or fenced, reusing its storage.
  void probed(SignedSet& out) const;
  const ReplySlot& reply(int s) const {
    return replies_[static_cast<std::size_t>(s)];
  }

  // --- verdicts ------------------------------------------------------------
  // fold_replies over the reached replies; !ok also when not acquired. A
  // kProbe fold must precede every index-ordered verdict. The max fold in
  // probe order is the running max kept as replies arrive: a later reply
  // replaces it only with a strictly higher timestamp, the tie rule of
  // fold_replies.
  FoldResult fold(int lie_tolerance, FoldOrder order) {
    if (!acquired()) return FoldResult{false, {}, 0, -1};
    if (lie_tolerance <= 0 && order == FoldOrder::kProbe) return max_;
    if (order == FoldOrder::kFamilyIndex) sort_touched();
    assert(order == FoldOrder::kFamilyIndex || !sorted_);
    return fold_replies(replies_, touched_, lie_tolerance);
  }
  static Timestamp write_timestamp(const FoldResult& adopted, int writer) {
    return Timestamp{adopted.ts.counter + 1, writer};
  }
  // S+ — every reached probed replica — in ascending family-index order.
  std::span<const int> push_targets() {
    sort_touched();
    return touched_;
  }
  // No-read-from-retired-server: true, with a kRetiredRead flight event
  // naming the replica, when the adopted reply was served retired (only
  // the serve_while_retired bug switch gets past the fence).
  bool audit_retired_read(const FoldResult& adopted, obs::OpId op,
                          std::uint64_t at_us) const;
  // After the op, either outcome: learn the view for the next op.
  bool learn_view(const RegisterPolicy& policy, int current_epoch,
                  int view_epoch) const {
    return view_ != nullptr && saw_newer_epoch_ && policy.refresh_views &&
           current_epoch > view_epoch;
  }
  // Re-fetch the view after this attempt failed with staleness evidence.
  bool refetch_view(const RegisterPolicy& policy, int view_fetches,
                    int current_epoch, int view_epoch) const {
    return !acquired() && view_fetches < policy.max_view_fetches &&
           learn_view(policy, current_epoch, view_epoch);
  }

 private:
  ProbeStatus status() const {
    return strategy_ != nullptr ? strategy_->status() : ProbeStatus::kNoQuorum;
  }
  void reset(int universe, const MembershipView* view) {
    const std::size_t n = static_cast<std::size_t>(universe);
    if (replies_.size() < n) {
      replies_.resize(n);
      served_retired_.resize(n, 0);
      touched_.reserve(n);
      missed_.reserve(n);
    }
    for (const int s : touched_) {
      replies_[static_cast<std::size_t>(s)].reset();
      served_retired_[static_cast<std::size_t>(s)] = 0;
    }
    touched_.clear();
    missed_.clear();
    max_ = FoldResult{};
    universe_ = universe;
    view_ = view;
    sorted_ = false;
    saw_newer_epoch_ = false;
  }
  void sort_touched() {
    if (!sorted_) std::sort(touched_.begin(), touched_.end());
    sorted_ = true;
  }

  ProbeStrategy* strategy_ = nullptr;
  const MembershipView* view_ = nullptr;
  std::vector<ReplySlot> replies_;
  std::vector<char> served_retired_;
  std::vector<int> touched_;  // reached indices, probe order until sorted
  std::vector<int> missed_;   // missed or fenced indices
  FoldResult max_;            // the max fold of the replies so far
  int universe_ = 0;
  bool sorted_ = false;
  bool saw_newer_epoch_ = false;
};

// A grow-only set of (ts, value) bindings in the compact-dict layout: the
// bindings sit in an append-only log in insertion order, and an
// open-addressed index (linear probing, power-of-two size, at most 3/4
// full) of 4-byte log positions finds them. A binding costs no node
// allocation, the index is a sixth of a table of whole bindings, and a
// lookup of a recent binding touches recent log memory.
class WriteSet {
 public:
  bool contains(const Timestamp& ts, std::uint64_t value) const;
  void insert(const Timestamp& ts, std::uint64_t value);
  // Makes room for `more` inserts beyond the current size without growth.
  void reserve(std::size_t more);
  std::size_t size() const { return log_.size(); }

 private:
  struct Binding {
    std::uint64_t counter = 0;
    std::uint64_t value = 0;
    int writer = 0;
  };
  static constexpr std::uint32_t kEmpty = 0;  // index entries are position+1
  // The binding's hash; its first probed slot is the hash masked to size.
  static std::size_t home(const Timestamp& ts, std::uint64_t value) {
    return static_cast<std::size_t>(fmix64(
        ts.counter ^ fmix64(value ^ static_cast<std::uint32_t>(ts.writer))));
  }
  void rehash(std::size_t num_slots);
  // Index slot holding the binding, or the empty slot where it belongs.
  std::size_t find(const Timestamp& ts, std::uint64_t value) const;
  std::vector<std::uint32_t> index_;
  std::vector<Binding> log_;
};

// The completed-write frontier: the highest timestamp among writes whose
// virtual finish time has passed, which a read is judged stale against.
// Writes are added in any finish order. Only the writes no other pending
// write dominates are kept — none finishes no later with a timestamp no
// lower — so the kept ones ascend in finish time and timestamp at once.
// A write carrying the highest timestamp yet, the common case, lands at
// the back, and completed writes leave from the front, so both calls cost
// amortized O(1). The frontier equals the max over every added write that
// has finished: a dropped write is dominated by one that finished no
// later.
class WriteFrontier {
 public:
  // A write with timestamp `ts` completes at virtual time `finish`.
  void add(double finish, const Timestamp& ts);
  // Completes every write that finishes at or before `now` (calls come in
  // non-decreasing `now`) and returns the frontier.
  const Timestamp& advance(double now);
  const Timestamp& frontier() const { return frontier_; }
  void reserve(std::size_t n) { pending_.reserve(n); }

 private:
  struct Pending {
    double finish;
    Timestamp ts;
  };
  std::vector<Pending> pending_;  // [head_, end): finish and ts ascending
  std::size_t head_ = 0;
  Timestamp frontier_;
};

// No-lost-acked-write: false iff a write was acked (`newest_acked` > 0)
// and no replica in `members` (all when null) holds a timestamp >= it.
// Crashes keep state, so only amnesia — or, under churn, state stranded
// off the membership — can lose it.
bool acked_write_visible(const std::vector<Replica>& replicas,
                         const Timestamp& newest_acked,
                         const MembershipView* members);

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
// stream. Records a kEpochTransition flight event at the entry's time.
void apply_epoch_transition(const EpochedFamily& sched, int e,
                            std::vector<Replica>& replicas);

}  // namespace sqs
