// The Sect. 4 register protocol shared by the simulator (SimClient, the
// harness) and the served runner. Each caller owns its clock, transport,
// timeouts and rng streams; the protocol decisions live here:
// RegisterPolicy (the knobs), AcquisitionMachine (one op, probe by probe,
// to its verdict and write pushes, holding the attempt's evidence as
// private state), fold_replies (max fold or masking vote), WriteSet
// (genuine write bindings), and the end-of-run and epoch-boundary steps
// acked_write_visible and apply_epoch_transition.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
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

// Folds replies[i] for i in `order` (a range of reply indices; no other
// entry is read). With lie_tolerance b == 0 this is the max-timestamp fold
// over reached replies (Sect. 4's client requirement). With b > 0 it is the
// masking vote: the highest-timestamped (ts, value) pair reported
// identically by at least b+1 replies, else !ok — the op fails rather than
// return a possible fabrication. Both adopt the first reply in
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

// Which reached reply a max fold (lie_tolerance 0) visits first, so which
// one wins a timestamp tie: family-index order in the simulator, probe
// order in the runner. The one thing the two callers do differently, fixed
// per caller (never a config field); a masking vote is always family-index
// ordered.
enum class FoldOrder { kFamilyIndex, kProbe };

// A read's or a write's verdict; !ok when the acquisition failed or a
// masking vote found no pair it could trust.
struct Verdict {
  bool ok = false;
  Timestamp ts;  // read: the adopted one; write: the one to push
  std::uint64_t value = 0;    // read: the adopted value
  bool retired_read = false;  // read: adopted a reply served while retired
};

// One register operation of the Sect. 4 protocol as a sans-I/O machine: a
// read acquires a signed quorum and adopts the max-timestamp (ts, value)
// over S+, the reached probed replicas (or the masking vote); a write
// acquires, then pushes (max+1, writer) to every replica of S+. The machine
// makes every protocol decision and keeps the attempt's evidence (in the
// shape of dsnet's QuorumCert: accumulate replies, then check): the replies
// and their serve-time retired flags, the reached and missed indices, the
// running max, the staleness flag, the universe and the view. Evidence is
// indexed by family index; in epoch mode the view maps an index to the
// replica on the wire, and every replica the machine names is a wire id.
// Its caller owns the clock (each `now`, in seconds), the transport,
// timeouts and rng streams. The calls, in order: start once per op; begin
// (or begin_aborted) per attempt; next_probe, then on_reply / on_fence /
// on_timeout per probe, each naming the replica to probe next (-1 once the
// attempt is over); refetch_view after each attempt; finish_acquisition
// once; then read_verdict, or write_verdict and one on_push per target
// k < push_count(). It records every protocol flight event, hot ones
// behind obs::recorder_enabled(), and allocates nothing once sized for the
// largest family it runs.
class AcquisitionMachine {
 public:
  // Evidence for families of up to `capacity` indices allocates nothing.
  AcquisitionMachine(FoldOrder max_fold, const RegisterPolicy& policy,
                     int capacity = 0)
      : max_fold_(max_fold), policy_(policy) {
    reset(capacity, nullptr);
    push_resolved_.reserve(static_cast<std::size_t>(capacity));
  }

  void start(obs::OpId op) {
    op_ = op;
    probes_ = 0;
    view_fetches_ = 0;
    pushes_ = 0;
  }
  // One attempt: resets `strategy` (caller-owned) from `rng` and drops the
  // previous attempt's evidence; `view` is nullptr outside epoch mode. The
  // op's probe and view-fetch counts carry across its attempts.
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

  // The replica to probe at `now`, then the outcome of the one in flight:
  // a reply (served_retired sampled when served, so a member serving just
  // before its epoch boundary is not a retired read), a retired replica's
  // fence, or no usable reply by `now`. A reply's epoch newer than the
  // view, like a fence, is staleness evidence. A fence is negative
  // evidence too, recorded as kEpochFenced only: it is not a kProbeMiss.
  int next_probe(double now) {
    if (status() != ProbeStatus::kInProgress) return -1;
    sent_at_ = now;
    index_ = strategy_->next_server();
    return wire(index_);
  }
  int on_reply(double now, const Timestamp& ts, std::uint64_t value,
               bool served_retired, int reply_epoch) {
    resolve_probe(obs::FlightKind::kProbe, now);
    const std::size_t s = static_cast<std::size_t>(index_);
    if (view_ != nullptr && reply_epoch > view_->epoch)
      saw_newer_epoch_ = true;
    replies_[s] = std::make_pair(ts, value);
    served_retired_[s] = served_retired ? 1 : 0;
    touched_.push_back(index_);
    if (max_.ts < ts) max_ = FoldResult{true, ts, value, index_};
    sorted_ = false;
    strategy_->observe(index_, true);
    return next_probe(now);
  }
  int on_fence(double now, int replica_epoch) {
    ++probes_;
    obs::flight(obs::FlightKind::kEpochFenced, op_, obs::to_us(sent_at_),
                wire(index_), static_cast<std::uint64_t>(replica_epoch));
    saw_newer_epoch_ = true;
    return missed(now);
  }
  int on_timeout(double now) {
    resolve_probe(obs::FlightKind::kProbeMiss, now);
    return missed(now);
  }
  double probe_sent_at() const { return sent_at_; }

  // After an attempt ending at `now`: true when it failed with staleness
  // evidence and the op has fetches left. It counts the fetch and records
  // kViewRefresh; the caller then waits view_fetch_delay, adopts the
  // current view and begins again. Every kViewRefresh is stamped when the
  // fetched view arrives, view_fetch_delay after `now`.
  bool refetch_view(int current_epoch, int view_epoch, double now) {
    if (acquired() || view_fetches_ >= policy_.max_view_fetches ||
        !view_is_stale(current_epoch, view_epoch))
      return false;
    ++view_fetches_;
    record_refresh(current_epoch, now);
    return true;
  }
  // The op is done acquiring: records the quorum event at `now`; true, with
  // a kViewRefresh, when the caller should fetch the current view for its
  // next op.
  bool finish_acquisition(int current_epoch, int view_epoch, double now) {
    const bool learn = view_is_stale(current_epoch, view_epoch);
    if (learn) record_refresh(current_epoch, now);
    if (obs::recorder_enabled())
      obs::flight(acquired() ? obs::FlightKind::kQuorumAcquired
                             : obs::FlightKind::kQuorumFailed,
                  op_, obs::to_us(now), -1, static_cast<std::uint64_t>(probes_));
    return learn;
  }
  // Refills `out` with the last attempt's probes: +reached, -missed or
  // fenced, reusing its storage.
  void probed(SignedSet& out) const;

  // The fold (or masking vote) over S+; a read also runs the retired-read
  // audit, an ok write starts its pushes to S+ at `now`.
  Verdict read_verdict(double now) {
    const FoldResult adopted = fold();
    return Verdict{adopted.ok, adopted.ts, adopted.value,
                   audit_retired_read(adopted, now)};
  }
  Verdict write_verdict(int writer, double now) {
    const FoldResult adopted = fold();
    if (!adopted.ok) return Verdict{};
    sort_touched();
    pushes_ = static_cast<int>(touched_.size());
    assert(pushes_ > 0 && "an acquired quorum has a reached server");
    push_resolved_.assign(static_cast<std::size_t>(pushes_), 0);
    pushes_pending_ = pushes_;
    acks_ = 0;
    push_start_ = now;
    push_elapsed_ = 0.0;
    return Verdict{true, Timestamp{adopted.ts.counter + 1, writer}};
  }
  // Read repair: calls `send(replica)` for every reached replica whose
  // reply is older than `ts`, in ascending family-index order.
  template <typename Send>
  void for_each_stale_reply(const Timestamp& ts, Send send) {
    sort_touched();
    for (const int s : touched_)
      if (replies_[static_cast<std::size_t>(s)]->first < ts) send(wire(s));
  }
  // S+ in ascending family-index order: push k goes to push_replica(k).
  int push_count() const { return pushes_; }
  int push_replica(int k) const {
    return wire(touched_[static_cast<std::size_t>(k)]);
  }
  double push_start() const { return push_start_; }
  // Push k acked or timed out `elapsed` seconds after push_start(); true
  // when it was the last to resolve. A push resolves once: a late ack
  // after its timeout changes nothing.
  bool on_push(int k, bool acked, double elapsed) {
    char& resolved = push_resolved_[static_cast<std::size_t>(k)];
    if (resolved != 0) return false;
    resolved = 1;
    if (obs::recorder_enabled())
      obs::flight(
          acked ? obs::FlightKind::kWriteAck : obs::FlightKind::kWriteNack,
          op_, obs::to_us(push_start_), push_replica(k), obs::to_us(elapsed));
    if (acked) ++acks_;
    push_elapsed_ = std::max(push_elapsed_, elapsed);
    return --pushes_pending_ == 0;
  }
  int acks() const { return acks_; }
  // When the latest resolved push resolved.
  double push_done() const { return push_start_ + push_elapsed_; }

  bool acquired() const { return status() == ProbeStatus::kAcquired; }
  int probes() const { return probes_; }
  int view_fetches() const { return view_fetches_; }

 private:
  ProbeStatus status() const {
    return strategy_ != nullptr ? strategy_->status() : ProbeStatus::kNoQuorum;
  }
  int wire(int s) const {  // family index -> replica id
    return view_ != nullptr ? view_->members[static_cast<std::size_t>(s)] : s;
  }
  // replies_ and served_retired_ are read only at reached indices of the
  // current attempt, each written when reached, so a new attempt drops the
  // old evidence by clearing the index lists.
  void reset(int universe, const MembershipView* view) {
    const std::size_t n = static_cast<std::size_t>(universe);
    if (replies_.size() < n) {
      replies_.resize(n);
      served_retired_.resize(n, 0);
      touched_.reserve(n);
      missed_.reserve(n);
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
  // Counts the probe in flight as resolved at `now`, recording `kind`.
  void resolve_probe(obs::FlightKind kind, double now) {
    ++probes_;
    if (obs::recorder_enabled())
      obs::flight(kind, op_, obs::to_us(sent_at_), wire(index_),
                  obs::to_us(now - sent_at_));
  }
  // The probe in flight is negative evidence.
  int missed(double now) {
    missed_.push_back(index_);
    strategy_->observe(index_, false);
    return next_probe(now);
  }
  // The view of `current_epoch`, fetched at `now`, arrives.
  void record_refresh(int current_epoch, double now) const {
    obs::flight(obs::FlightKind::kViewRefresh, op_,
                obs::to_us(now + policy_.view_fetch_delay), -1,
                static_cast<std::uint64_t>(current_epoch));
  }
  // The attempt saw a fence or a newer epoch stamp, and the caller may
  // learn a newer view.
  bool view_is_stale(int current_epoch, int view_epoch) const {
    return view_ != nullptr && saw_newer_epoch_ && policy_.refresh_views &&
           current_epoch > view_epoch;
  }
  // fold_replies over S+; !ok also when not acquired. The probe-order max
  // fold is the running max kept as replies arrive: a later reply replaces
  // it only with a strictly higher timestamp, the tie rule of fold_replies.
  FoldResult fold() {
    if (!acquired()) return FoldResult{false, {}, 0, -1};
    const int b = policy_.lie_tolerance;
    if (b <= 0 && max_fold_ == FoldOrder::kProbe) return max_;
    sort_touched();
    return fold_replies(replies_, touched_, b);
  }
  // No-read-from-retired-server: true, with a kRetiredRead flight event
  // naming the replica, when the adopted reply was served retired (only
  // the serve_while_retired bug switch gets past the fence).
  bool audit_retired_read(const FoldResult& adopted, double now) const;

  FoldOrder max_fold_;
  RegisterPolicy policy_;
  obs::OpId op_ = obs::kNoOp;
  int probes_ = 0;  // resolved, across the op's attempts
  int view_fetches_ = 0;
  // The attempt's evidence.
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
  int index_ = -1;  // family index of the probe in flight
  double sent_at_ = 0.0;
  // An ok write's pushes to S+.
  int pushes_ = 0;
  std::vector<char> push_resolved_;
  int pushes_pending_ = 0;
  int acks_ = 0;
  double push_start_ = 0.0;
  double push_elapsed_ = 0.0;
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
