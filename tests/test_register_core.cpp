// The register protocol shared by SimClient and the served runner
// (src/sim/register_core.h): the AcquisitionMachine driven by hand — its
// attempt evidence and verdicts, view refreshes and pushes — and
// RegisterPolicy's validation through both configs that hold it.

#include "sim/register_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "service/runner.h"
#include "sim/client.h"
#include "util/rng.h"

namespace sqs {
namespace {

SignedSet probed_of(const AcquisitionMachine& machine) {
  SignedSet out;
  machine.probed(out);
  return out;
}

// Probes `order` front to back and acquires once `need` probes reached.
class ScriptedStrategy : public ProbeStrategy {
 public:
  ScriptedStrategy(int n, std::vector<int> order, int need)
      : n_(n), order_(std::move(order)), need_(need) {}

  void reset(Rng*) override {
    next_ = 0;
    reached_ = 0;
    observed_.clear();
  }
  int universe_size() const override { return n_; }
  ProbeStatus status() const override {
    if (reached_ >= need_) return ProbeStatus::kAcquired;
    if (next_ >= order_.size()) return ProbeStatus::kNoQuorum;
    return ProbeStatus::kInProgress;
  }
  int next_server() const override { return order_[next_]; }
  void observe(int server, bool reached) override {
    observed_.emplace_back(server, reached);
    ++next_;
    if (reached) ++reached_;
  }
  SignedSet acquired_quorum() const override { return SignedSet(n_); }
  bool is_adaptive() const override { return false; }
  bool is_randomized() const override { return false; }

  const std::vector<std::pair<int, bool>>& observed() const {
    return observed_;
  }

 private:
  int n_;
  std::vector<int> order_;
  int need_;
  std::size_t next_ = 0;
  int reached_ = 0;
  std::vector<std::pair<int, bool>> observed_;
};

// The flight events of `kind` recorded while `run` drives a machine.
template <typename Run>
std::vector<obs::FlightEvent> flights_of(obs::FlightKind kind, Run run) {
  const obs::TelemetryConfig saved = obs::current_config();
  obs::TelemetryConfig tc = saved;
  tc.recorder = true;
  obs::configure(tc);
  obs::reset_flight_recorder();
  run();
  std::vector<obs::FlightEvent> out;
  for (const obs::FlightEvent& e : obs::collect_flight_events())
    if (e.kind == kind) out.push_back(e);
  obs::configure(saved);
  obs::reset_flight_recorder();
  return out;
}

MembershipView view_of(int epoch, std::vector<int> members) {
  MembershipView view;
  view.epoch = epoch;
  view.members = std::move(members);
  return view;
}

// --- the acquisition machine, driven by hand --------------------------------
//
// No simulator and no transport: each test plays the caller, naming the
// clock and every probe outcome, and reads the machine's next move. The
// first tests check one attempt's evidence (what a new attempt drops,
// fences, the retired-read audit, push targets, the running max, sizing);
// the later ones check an op across attempts.

TEST(AcquisitionMachine, BeginDropsAPartialAttemptsEvidence) {
  ScriptedStrategy strategy(4, {2, 0, 1, 3}, 3);
  AcquisitionMachine machine(FoldOrder::kFamilyIndex, RegisterPolicy{}, 4);
  machine.start(obs::make_op_id(1, 1));
  machine.begin(&strategy, nullptr, nullptr);
  EXPECT_EQ(machine.next_probe(0.0), 2);
  // The newest reply, from a replica that served it while retired.
  EXPECT_EQ(machine.on_reply(0.1, Timestamp{5, 1}, 50,
                             /*served_retired=*/true, 0),
            0);
  ASSERT_EQ(machine.on_timeout(0.2), 1);

  machine.begin(&strategy, nullptr, nullptr);
  EXPECT_TRUE(probed_of(machine).empty());
  EXPECT_EQ(probed_of(machine).universe_size(), 4);
  // Equal timestamps, distinct values: the index-order fold adopts index 0,
  // and neither the old newer reply nor its retired flag survives.
  EXPECT_EQ(machine.next_probe(1.0), 2);
  EXPECT_EQ(machine.on_reply(1.1, Timestamp{1, 1}, 12, false, 0), 0);
  EXPECT_EQ(machine.on_reply(1.2, Timestamp{1, 1}, 10, false, 0), 1);
  EXPECT_EQ(machine.on_reply(1.3, Timestamp{1, 1}, 11, false, 0), -1);
  ASSERT_TRUE(machine.acquired());
  const Verdict read = machine.read_verdict(1.3);
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.ts, (Timestamp{1, 1}));
  EXPECT_EQ(read.value, 10u);
  EXPECT_FALSE(read.retired_read);

  // A write's S+ holds this attempt's reached replicas only.
  machine.begin(&strategy, nullptr, nullptr);
  machine.next_probe(2.0);
  machine.on_reply(2.1, Timestamp{1, 1}, 10, false, 0);
  machine.on_timeout(2.2);
  machine.on_reply(2.3, Timestamp{1, 1}, 10, false, 0);
  machine.on_reply(2.4, Timestamp{1, 1}, 10, false, 0);
  ASSERT_TRUE(machine.write_verdict(1, 2.4).ok);
  ASSERT_EQ(machine.push_count(), 3);
  EXPECT_EQ(machine.push_replica(0), 1);
  EXPECT_EQ(machine.push_replica(1), 2);
  EXPECT_EQ(machine.push_replica(2), 3);

  // An aborted attempt (the partition filter) keeps no evidence either.
  machine.start(obs::make_op_id(1, 2));
  machine.begin_aborted(4, nullptr);
  EXPECT_EQ(machine.next_probe(3.0), -1);
  EXPECT_FALSE(machine.acquired());
  EXPECT_TRUE(probed_of(machine).empty());
  EXPECT_FALSE(machine.read_verdict(3.0).ok);
  EXPECT_FALSE(machine.write_verdict(1, 3.0).ok);
  EXPECT_EQ(machine.push_count(), 0);
}

TEST(AcquisitionMachine, FenceIsNegativeEvidenceAndStaleness) {
  const MembershipView view = view_of(0, {4, 5, 6});
  ScriptedStrategy strategy(3, {1, 0, 2}, 2);
  // Fenced by index 1, then two misses: a failed attempt with staleness
  // evidence.
  const auto fenced_out = [&](AcquisitionMachine& machine) {
    machine.start(obs::make_op_id(1, 2));
    machine.begin(&strategy, nullptr, &view);
    EXPECT_EQ(machine.next_probe(0.0), 5);  // index 1 on the wire
    EXPECT_EQ(machine.on_fence(0.1, /*replica_epoch=*/1), 4);
    EXPECT_TRUE(probed_of(machine).has_negative(1));
    EXPECT_EQ(strategy.observed().size(), 1u);
    EXPECT_EQ(strategy.observed()[0], std::make_pair(1, false));
    EXPECT_EQ(machine.on_timeout(0.2), 6);
    EXPECT_EQ(machine.on_timeout(0.3), -1);
    EXPECT_FALSE(machine.acquired());
  };

  RegisterPolicy policy;
  AcquisitionMachine machine(FoldOrder::kFamilyIndex, policy, 3);
  fenced_out(machine);
  EXPECT_FALSE(machine.refetch_view(1, /*view_epoch=*/1, 0.3));
  EXPECT_TRUE(machine.refetch_view(/*current_epoch=*/1, 0, 0.3));
  EXPECT_TRUE(machine.finish_acquisition(1, 0, 0.3));
  RegisterPolicy no_fetches = policy;
  no_fetches.max_view_fetches = 0;
  AcquisitionMachine spent(FoldOrder::kFamilyIndex, no_fetches, 3);
  fenced_out(spent);
  EXPECT_FALSE(spent.refetch_view(1, 0, 0.3));
  policy.refresh_views = false;
  AcquisitionMachine stale(FoldOrder::kFamilyIndex, policy, 3);
  fenced_out(stale);
  EXPECT_FALSE(stale.refetch_view(1, 0, 0.3));
  EXPECT_FALSE(stale.finish_acquisition(1, 0, 0.3));

  // A reply stamped with the view's own epoch is no staleness evidence; a
  // newer stamp is.
  machine.begin(&strategy, nullptr, &view);
  machine.next_probe(1.0);
  machine.on_reply(1.1, Timestamp{}, 0, false, 0);
  machine.on_reply(1.2, Timestamp{}, 0, false, 0);
  ASSERT_TRUE(machine.acquired());
  EXPECT_FALSE(machine.finish_acquisition(1, 0, 1.2));
  machine.begin(&strategy, nullptr, &view);
  machine.next_probe(2.0);
  machine.on_reply(2.1, Timestamp{}, 0, false, 0);
  machine.on_reply(2.2, Timestamp{}, 0, false, 1);
  EXPECT_TRUE(machine.finish_acquisition(1, 0, 2.2));
  // Staleness is learned only in epoch mode.
  machine.begin(&strategy, nullptr, nullptr);
  EXPECT_EQ(machine.next_probe(3.0), 1);
  machine.on_fence(3.1, 1);
  machine.on_timeout(3.2);
  machine.on_timeout(3.3);
  EXPECT_FALSE(machine.refetch_view(1, 0, 3.3));
  EXPECT_FALSE(machine.finish_acquisition(1, 0, 3.3));
}

TEST(AcquisitionMachine, RetiredReadAuditChecksTheAdoptedReply) {
  const MembershipView view = view_of(0, {7, 8, 9});
  ScriptedStrategy strategy(3, {0, 1, 2}, 3);
  AcquisitionMachine machine(FoldOrder::kFamilyIndex, RegisterPolicy{}, 3);
  const obs::OpId op = obs::make_op_id(3, 4);
  const auto retired = flights_of(obs::FlightKind::kRetiredRead, [&] {
    // Index 1 carries the adopted pair but was a member when it served;
    // index 2 reports the same pair from a retired replica. Only the
    // adopted reply decides.
    machine.start(obs::make_op_id(3, 3));
    machine.begin(&strategy, nullptr, &view);
    machine.next_probe(0.0);
    machine.on_reply(0.1, Timestamp{1, 0}, 10, false, 0);
    machine.on_reply(0.2, Timestamp{2, 0}, 20, false, 0);
    machine.on_reply(0.3, Timestamp{2, 0}, 20, true, 0);
    Verdict read = machine.read_verdict(0.3);
    ASSERT_TRUE(read.ok);
    EXPECT_EQ(read.value, 20u);
    EXPECT_FALSE(read.retired_read);

    // Now the newest reply comes from the retired replica behind index 2.
    machine.start(op);
    machine.begin(&strategy, nullptr, &view);
    machine.next_probe(1.0);
    machine.on_reply(1.1, Timestamp{1, 0}, 10, false, 0);
    machine.on_reply(1.2, Timestamp{2, 0}, 20, false, 0);
    machine.on_reply(1.3, Timestamp{3, 0}, 30, true, 0);
    read = machine.read_verdict(1.5);
    EXPECT_EQ(read.value, 30u);
    EXPECT_TRUE(read.retired_read);
  });
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].replica, 9);  // the wire id, not the family index
  EXPECT_EQ(retired[0].op, op);
  EXPECT_EQ(retired[0].time_us, 1500000u);
  EXPECT_EQ(retired[0].payload, 3u);
}

TEST(AcquisitionMachine, PushTargetsAscendAfterAProbeOrderFold) {
  ScriptedStrategy strategy(5, {4, 0, 3, 2}, 3);
  // Equal timestamps, different values (only a liar could do that): the
  // probe-order fold adopts the first reached, the index-order fold the
  // lowest index.
  const auto run = [&](AcquisitionMachine& machine) {
    machine.start(obs::make_op_id(1, 5));
    machine.begin(&strategy, nullptr, nullptr);
    machine.next_probe(0.0);
    machine.on_reply(0.1, Timestamp{4, 1}, 44, false, 0);
    machine.on_timeout(0.2);
    machine.on_reply(0.3, Timestamp{4, 1}, 43, false, 0);
    machine.on_reply(0.4, Timestamp{2, 1}, 22, false, 0);
    EXPECT_TRUE(machine.acquired());
  };
  AcquisitionMachine by_probe(FoldOrder::kProbe, RegisterPolicy{}, 5);
  run(by_probe);
  EXPECT_EQ(by_probe.read_verdict(0.4).value, 44u);
  const Verdict write = by_probe.write_verdict(/*writer=*/9, 0.4);
  ASSERT_TRUE(write.ok);
  EXPECT_EQ(write.ts.counter, 5u);
  EXPECT_EQ(write.ts.writer, 9);
  ASSERT_EQ(by_probe.push_count(), 3);
  std::vector<int> targets;
  for (int k = 0; k < by_probe.push_count(); ++k)
    targets.push_back(by_probe.push_replica(k));
  EXPECT_EQ(targets, (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(probed_of(by_probe).has_negative(0));

  AcquisitionMachine by_index(FoldOrder::kFamilyIndex, RegisterPolicy{}, 5);
  run(by_index);
  EXPECT_EQ(by_index.read_verdict(0.4).value, 43u);

  // With b = 1 the vote needs two identical pairs, which no timestamp has.
  RegisterPolicy masking;
  masking.lie_tolerance = 1;
  AcquisitionMachine voting(FoldOrder::kProbe, masking, 5);
  run(voting);
  EXPECT_FALSE(voting.read_verdict(0.4).ok);
}

TEST(AcquisitionMachine, RunningMaxMatchesTheProbeOrderFold) {
  // The probe-order max fold is kept as replies arrive; it must adopt
  // exactly what fold_replies over the reached replies in probe order
  // adopts. Timestamps come from a tiny range, so most sets hold ties
  // (with distinct values, as only liars produce) and unwritten replies.
  // Each value carries its family index in its low bits, so the verdict
  // names the reply it adopted.
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<ReplySlot> replies(static_cast<std::size_t>(n));
    std::vector<int> reached;
    for (const int s : order) {
      if (rng.bernoulli(0.3)) continue;  // missed
      const Timestamp ts{rng.next_below(3),
                         static_cast<int>(rng.next_below(2))};
      const std::uint64_t value = rng.next_below(4) * 64 +
                                  static_cast<std::uint64_t>(s);
      replies[static_cast<std::size_t>(s)] = std::make_pair(ts, value);
      reached.push_back(s);
    }
    // The attempt acquires on its last reached reply; one with none fails.
    ScriptedStrategy strategy(
        n, order, std::max<int>(1, static_cast<int>(reached.size())));
    AcquisitionMachine machine(FoldOrder::kProbe, RegisterPolicy{}, n);
    machine.start(obs::make_op_id(1, 6));
    machine.begin(&strategy, nullptr, nullptr);
    for (int s = machine.next_probe(0.0); s >= 0;) {
      const ReplySlot& r = replies[static_cast<std::size_t>(s)];
      s = r.has_value() ? machine.on_reply(0.0, r->first, r->second, false, 0)
                        : machine.on_timeout(0.0);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const FoldResult expected = fold_replies(replies, reached, 0);
    const Verdict got = machine.read_verdict(0.0);
    ASSERT_EQ(got.ok, machine.acquired() && expected.ok);
    ASSERT_EQ(machine.acquired(), !reached.empty());
    if (!machine.acquired()) continue;
    if (expected.index >= 0) {
      EXPECT_EQ(static_cast<int>(got.value % 64), expected.index);
    }
    EXPECT_TRUE(got.ts == expected.ts);
    EXPECT_EQ(got.value, expected.value);
  }
}

TEST(AcquisitionMachine, SizedOnceThenReusedAcrossFamilies) {
  // A smaller family after a larger one reuses the evidence storage; a
  // larger one grows it.
  ScriptedStrategy small(2, {1, 0}, 1);
  ScriptedStrategy large(6, {5, 4}, 1);
  AcquisitionMachine machine(FoldOrder::kFamilyIndex, RegisterPolicy{}, 2);
  machine.start(obs::make_op_id(1, 7));
  machine.begin(&small, nullptr, nullptr);
  machine.next_probe(0.0);
  machine.on_reply(0.1, Timestamp{3, 0}, 1, false, 0);
  machine.begin(&large, nullptr, nullptr);
  EXPECT_EQ(probed_of(machine).universe_size(), 6);
  EXPECT_EQ(machine.next_probe(1.0), 5);
  EXPECT_EQ(machine.on_reply(1.1, Timestamp{2, 0}, 2, false, 0), -1);
  const Verdict read = machine.read_verdict(1.1);
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.value, 2u);  // the small family's newer reply is gone
  EXPECT_EQ(probed_of(machine).universe_size(), 6);
  EXPECT_TRUE(probed_of(machine).has_positive(5));
  machine.begin(&small, nullptr, nullptr);
  EXPECT_EQ(probed_of(machine).universe_size(), 2);
}

TEST(AcquisitionMachine, FenceRefetchesThenReprobesUnderTheNewView) {
  // Epoch 1 replaced replica 0 by replica 3. A client still on the epoch-0
  // view is fenced by 0, cannot reach 3 of 3, and fetches the view.
  const MembershipView old_view = view_of(0, {0, 1, 2});
  const MembershipView new_view = view_of(1, {3, 1, 2});
  ScriptedStrategy strategy(3, {0, 1, 2}, 3);
  AcquisitionMachine machine(FoldOrder::kFamilyIndex, RegisterPolicy{}, 3);
  const obs::OpId op = obs::make_op_id(1, 7);
  const auto refreshes = flights_of(obs::FlightKind::kViewRefresh, [&] {
    machine.start(op);
    machine.begin(&strategy, nullptr, &old_view);
    EXPECT_EQ(machine.next_probe(0.0), 0);
    EXPECT_EQ(machine.on_fence(0.1, /*replica_epoch=*/1), 1);
    EXPECT_EQ(machine.on_reply(0.2, Timestamp{1, 0}, 10, false, 0), 2);
    EXPECT_EQ(machine.on_reply(0.3, Timestamp{1, 0}, 10, false, 0), -1);
    EXPECT_FALSE(machine.acquired());
    // Fetched when the attempt ends; the view arrives view_fetch_delay
    // later, and the refresh is stamped then.
    ASSERT_TRUE(machine.refetch_view(/*current_epoch=*/1, /*view_epoch=*/0,
                                     /*now=*/0.3));
    EXPECT_EQ(machine.view_fetches(), 1);

    // Re-begun under the fetched view, index 0 is replica 3.
    machine.begin(&strategy, nullptr, &new_view);
    EXPECT_EQ(machine.next_probe(0.35), 3);
    EXPECT_EQ(machine.on_reply(0.4, Timestamp{1, 0}, 10, false, 1), 1);
    EXPECT_EQ(machine.on_reply(0.5, Timestamp{1, 0}, 10, false, 1), 2);
    EXPECT_EQ(machine.on_reply(0.6, Timestamp{1, 0}, 10, false, 1), -1);
    EXPECT_TRUE(machine.acquired());
    EXPECT_FALSE(machine.refetch_view(1, 1, 0.6));
    EXPECT_FALSE(machine.finish_acquisition(1, 1, 0.6));
  });
  EXPECT_EQ(machine.probes(), 6);
  EXPECT_EQ(machine.view_fetches(), 1);
  const Verdict read = machine.read_verdict(0.6);
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.value, 10u);
  ASSERT_EQ(refreshes.size(), 1u);
  EXPECT_EQ(refreshes[0].op, op);
  EXPECT_EQ(refreshes[0].time_us, 350000u);
  EXPECT_EQ(refreshes[0].payload, 1u);

  // The fetches are bounded per op.
  RegisterPolicy once;
  once.max_view_fetches = 1;
  AcquisitionMachine bounded(FoldOrder::kFamilyIndex, once, 3);
  bounded.start(op);
  for (int fetch = 0; fetch < 2; ++fetch) {
    bounded.begin(&strategy, nullptr, &old_view);
    EXPECT_EQ(bounded.next_probe(0.0), 0);
    bounded.on_fence(0.1, 1);
    bounded.on_timeout(0.2);
    bounded.on_timeout(0.3);
    EXPECT_EQ(bounded.refetch_view(1, 0, 0.3), fetch == 0) << fetch;
  }
}

TEST(AcquisitionMachine, SuccessfulOpLearnsTheViewAfterwards) {
  // A reply stamped with a newer epoch is staleness evidence, but the op
  // acquired anyway: no refetch, the caller learns the view after the op.
  const MembershipView view = view_of(0, {0, 1, 2});
  ScriptedStrategy strategy(3, {0, 1, 2}, 2);
  AcquisitionMachine machine(FoldOrder::kProbe, RegisterPolicy{}, 3);
  const auto quorum = flights_of(obs::FlightKind::kQuorumAcquired, [&] {
    machine.start(obs::make_op_id(0, 1));
    machine.begin(&strategy, nullptr, &view);
    EXPECT_EQ(machine.next_probe(1.0), 0);
    EXPECT_EQ(machine.on_reply(1.1, Timestamp{2, 0}, 20, false, 1), 1);
    EXPECT_EQ(machine.on_reply(1.2, Timestamp{3, 0}, 30, false, 0), -1);
    ASSERT_TRUE(machine.acquired());
    EXPECT_FALSE(machine.refetch_view(1, 0, 1.2));
    EXPECT_TRUE(machine.finish_acquisition(1, 0, 1.2));
  });
  ASSERT_EQ(quorum.size(), 1u);
  EXPECT_EQ(quorum[0].time_us, 1200000u);
  EXPECT_EQ(quorum[0].payload, 2u);  // probes
  EXPECT_EQ(machine.view_fetches(), 0);
  const Verdict write = machine.write_verdict(/*writer=*/5, 1.2);
  ASSERT_TRUE(write.ok);
  EXPECT_EQ(write.ts.counter, 4u);
  EXPECT_EQ(write.ts.writer, 5);
  EXPECT_EQ(machine.push_count(), 2);

  // A caller whose view is current learns nothing; refresh_views off never.
  machine.start(obs::make_op_id(0, 2));
  machine.begin(&strategy, nullptr, &view);
  machine.next_probe(2.0);
  machine.on_reply(2.1, Timestamp{}, 0, false, 1);
  machine.on_reply(2.2, Timestamp{}, 0, false, 1);
  EXPECT_FALSE(machine.finish_acquisition(1, 1, 2.2));
  RegisterPolicy stale_forever;
  stale_forever.refresh_views = false;
  AcquisitionMachine stale(FoldOrder::kProbe, stale_forever, 3);
  stale.start(obs::make_op_id(0, 3));
  stale.begin(&strategy, nullptr, &view);
  stale.next_probe(3.0);
  stale.on_reply(3.1, Timestamp{}, 0, false, 1);
  stale.on_reply(3.2, Timestamp{}, 0, false, 1);
  EXPECT_FALSE(stale.finish_acquisition(1, 0, 3.2));
}

TEST(AcquisitionMachine, MaskingVoteFailsTheOpWithoutAVouchedPair) {
  // b = 1: a pair must be reported by two replicas. Three replicas, three
  // different pairs: the quorum is acquired but the vote fails the op, so a
  // read returns nothing and a write pushes nothing.
  RegisterPolicy masking;
  masking.lie_tolerance = 1;
  ScriptedStrategy strategy(3, {0, 1, 2}, 3);
  for (const FoldOrder order : {FoldOrder::kFamilyIndex, FoldOrder::kProbe}) {
    AcquisitionMachine machine(order, masking, 3);
    for (const bool write : {false, true}) {
      machine.start(obs::make_op_id(1, 1));
      machine.begin(&strategy, nullptr, nullptr);
      machine.next_probe(0.0);
      machine.on_reply(0.1, Timestamp{9, 4}, 99, false, 0);  // a liar
      machine.on_reply(0.2, Timestamp{2, 0}, 20, false, 0);
      machine.on_reply(0.3, Timestamp{1, 0}, 10, false, 0);
      ASSERT_TRUE(machine.acquired());
      const Verdict v =
          write ? machine.write_verdict(3, 0.3) : machine.read_verdict(0.3);
      EXPECT_FALSE(v.ok) << write;
      EXPECT_EQ(v.ts, Timestamp{}) << write;
      EXPECT_EQ(v.value, 0u) << write;
      EXPECT_EQ(machine.push_count(), 0) << write;
    }
    // Two honest replicas agreeing outvote the liar.
    machine.start(obs::make_op_id(1, 2));
    machine.begin(&strategy, nullptr, nullptr);
    machine.next_probe(0.0);
    machine.on_reply(0.1, Timestamp{9, 4}, 99, false, 0);
    machine.on_reply(0.2, Timestamp{2, 0}, 20, false, 0);
    machine.on_reply(0.3, Timestamp{2, 0}, 20, false, 0);
    const Verdict read = machine.read_verdict(0.3);
    EXPECT_TRUE(read.ok);
    EXPECT_EQ(read.value, 20u);
  }
}

TEST(AcquisitionMachine, PushesResolveInAnyOrderAndCompleteAtTheLatest) {
  // Four reached replicas; their acks and timeouts arrive in every order.
  // The write completes on the last resolve, at push_start + the latest
  // elapsed time, whichever push that was; a second resolve of a push (an
  // ack after its timeout) changes nothing.
  const double elapsed[4] = {0.02, 0.25, 0.07, 0.25};
  const bool acked[4] = {true, false, true, false};
  std::vector<int> order = {0, 1, 2, 3};
  ScriptedStrategy strategy(4, {0, 1, 2, 3}, 4);
  AcquisitionMachine machine(FoldOrder::kFamilyIndex, RegisterPolicy{}, 4);
  do {
    machine.start(obs::make_op_id(2, 1));
    machine.begin(&strategy, nullptr, nullptr);
    int next = machine.next_probe(10.0);
    for (int i = 0; i < 4; ++i)
      next = machine.on_reply(10.0 + 0.01 * (i + 1), Timestamp{1, 0}, 1,
                              false, 0);
    ASSERT_EQ(next, -1);
    const Verdict write = machine.write_verdict(2, 10.04);
    ASSERT_TRUE(write.ok);
    ASSERT_EQ(machine.push_count(), 4);
    EXPECT_EQ(machine.push_start(), 10.04);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const int k = order[i];
      EXPECT_EQ(machine.push_replica(k), k);
      const bool last = machine.on_push(k, acked[k], elapsed[k]);
      EXPECT_EQ(last, i + 1 == order.size());
      EXPECT_FALSE(machine.on_push(k, true, 0.01));  // already resolved
    }
    EXPECT_EQ(machine.acks(), 2);
    EXPECT_EQ(machine.push_done(), 10.04 + 0.25);
  } while (std::next_permutation(order.begin(), order.end()));

  // The ack and nack flight events name each replica and its resolve time.
  machine.start(obs::make_op_id(2, 2));
  machine.begin(&strategy, nullptr, nullptr);
  machine.next_probe(0.0);
  for (int i = 0; i < 4; ++i)
    machine.on_reply(0.0, Timestamp{1, 0}, 1, false, 0);
  machine.write_verdict(2, 1.0);
  const auto nacks = flights_of(obs::FlightKind::kWriteNack, [&] {
    for (int k = 3; k >= 0; --k) machine.on_push(k, acked[k], elapsed[k]);
  });
  ASSERT_EQ(nacks.size(), 2u);
  EXPECT_EQ(nacks[0].replica, 1);
  EXPECT_EQ(nacks[0].time_us, 1000000u);
  EXPECT_EQ(nacks[0].payload, 250000u);
}

TEST(AcquisitionMachine, BothFoldOrdersRecordAFenceButNoMiss) {
  // A fence is negative evidence of its own kind: it counts as a probe and
  // is recorded once, as kEpochFenced, whichever driver's fold order runs.
  const MembershipView view = view_of(0, {0, 1});
  ScriptedStrategy strategy(2, {0, 1}, 1);
  for (const FoldOrder order : {FoldOrder::kFamilyIndex, FoldOrder::kProbe}) {
    AcquisitionMachine machine(order, RegisterPolicy{}, 2);
    const auto fence = [&] {
      machine.start(obs::make_op_id(1, 3));
      machine.begin(&strategy, nullptr, &view);
      machine.next_probe(0.001);
      EXPECT_EQ(machine.on_fence(0.004, 1), 1);
    };
    const auto fenced = flights_of(obs::FlightKind::kEpochFenced, fence);
    ASSERT_EQ(fenced.size(), 1u);
    EXPECT_EQ(fenced[0].replica, 0);
    EXPECT_EQ(fenced[0].time_us, 1000u);  // when the probe was sent
    EXPECT_EQ(fenced[0].payload, 1u);     // the replica's epoch
    EXPECT_TRUE(flights_of(obs::FlightKind::kProbeMiss, fence).empty());
    EXPECT_EQ(machine.probes(), 1);
    EXPECT_TRUE(probed_of(machine).has_negative(0));
  }
}

TEST(WriteFrontier, MatchesAHeapOfEveryPendingWrite) {
  // The reference keeps every write in a min-heap by finish time and folds
  // each completed one into the max. Finish times and timestamps come from
  // small ranges, so ties in either are common; some streams run their
  // timestamps mostly upward (the served case), some at random.
  struct Pending {
    double finish;
    Timestamp ts;
    bool operator>(const Pending& o) const { return finish > o.finish; }
  };
  Rng rng(77);
  for (int stream = 0; stream < 200; ++stream) {
    const bool rising = stream % 2 == 0;
    std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>>
        heap;
    Timestamp expect;
    WriteFrontier frontier;
    double now = 0.0;
    std::uint64_t counter = 0;
    for (int op = 0; op < 500; ++op) {
      now += static_cast<double>(rng.next_below(3));
      while (!heap.empty() && heap.top().finish <= now) {
        expect = std::max(expect, heap.top().ts);
        heap.pop();
      }
      ASSERT_TRUE(frontier.advance(now) == expect)
          << "stream " << stream << " op " << op;
      if (rng.bernoulli(0.3)) continue;  // a read
      counter = rising ? counter + (rng.bernoulli(0.8) ? 1 : 0)
                       : rng.next_below(40);
      const Timestamp ts{counter, static_cast<int>(rng.next_below(3))};
      const double finish = now + static_cast<double>(rng.next_below(12));
      heap.push(Pending{finish, ts});
      frontier.add(finish, ts);
    }
  }
}

TEST(RegisterPolicy, NanViewFetchDelayRejectedByBothConfigs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RegisterPolicy policy;
  EXPECT_TRUE(policy.validate("RegisterPolicy"));
  policy.view_fetch_delay = nan;
  EXPECT_FALSE(policy.validate("RegisterPolicy"));

  ClientConfig client;
  EXPECT_TRUE(client.validate());
  client.policy.view_fetch_delay = nan;
  EXPECT_FALSE(client.validate());

  ServiceConfig service;
  EXPECT_TRUE(service.validate(12));
  service.policy.view_fetch_delay = nan;
  EXPECT_FALSE(service.validate(12));
}

TEST(RegisterPolicy, BothConfigsRejectTheSameBadKnobs) {
  for (int knob = 0; knob < 3; ++knob) {
    RegisterPolicy bad;
    if (knob == 0) bad.lie_tolerance = -1;
    if (knob == 1) bad.view_fetch_delay = -0.5;
    if (knob == 2) bad.max_view_fetches = -1;
    ClientConfig client;
    client.policy = bad;
    ServiceConfig service;
    service.policy = bad;
    EXPECT_FALSE(client.validate()) << knob;
    EXPECT_FALSE(service.validate(12)) << knob;
  }
}

}  // namespace
}  // namespace sqs
