// The register protocol step shared by SimClient and the served runner
// (src/sim/register_core.h): QuorumAttempt's evidence and verdicts, and
// RegisterPolicy's validation through both configs that hold it.

#include "sim/register_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <span>
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

SignedSet probed_of(const QuorumAttempt& attempt) {
  SignedSet out;
  attempt.probed(out);
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

MembershipView view_of(int epoch, std::vector<int> members) {
  MembershipView view;
  view.epoch = epoch;
  view.members = std::move(members);
  return view;
}

TEST(QuorumAttempt, BeginDropsAPartialAttemptsEvidence) {
  ScriptedStrategy strategy(4, {2, 0, 1, 3}, 3);
  QuorumAttempt attempt(4);
  attempt.begin(&strategy, nullptr, nullptr);
  attempt.reached(2, Timestamp{5, 1}, 50, /*served_retired=*/true, 0);
  attempt.missed(0);
  ASSERT_TRUE(attempt.in_progress());

  attempt.begin(&strategy, nullptr, nullptr);
  EXPECT_TRUE(attempt.in_progress());
  EXPECT_TRUE(probed_of(attempt).empty());
  EXPECT_EQ(probed_of(attempt).universe_size(), 4);
  EXPECT_FALSE(attempt.reply(2).has_value());
  EXPECT_TRUE(attempt.push_targets().empty());
  // The old attempt's retired reply is gone with it.
  attempt.reached(2, Timestamp{1, 1}, 10, false, 0);
  attempt.reached(0, Timestamp{1, 1}, 10, false, 0);
  attempt.reached(1, Timestamp{1, 1}, 10, false, 0);
  ASSERT_TRUE(attempt.acquired());
  const FoldResult adopted = attempt.fold(0, FoldOrder::kFamilyIndex);
  ASSERT_TRUE(adopted.ok);
  EXPECT_EQ(adopted.index, 0);
  EXPECT_FALSE(attempt.audit_retired_read(adopted, obs::kNoOp, 0));

  // An aborted attempt (the partition filter) keeps no evidence either.
  attempt.begin_aborted(4, nullptr);
  EXPECT_FALSE(attempt.in_progress());
  EXPECT_FALSE(attempt.acquired());
  EXPECT_TRUE(probed_of(attempt).empty());
  EXPECT_FALSE(attempt.fold(0, FoldOrder::kFamilyIndex).ok);
}

TEST(QuorumAttempt, FenceIsNegativeEvidenceAndStaleness) {
  const MembershipView view = view_of(0, {4, 5, 6});
  ScriptedStrategy strategy(3, {1, 0, 2}, 2);
  QuorumAttempt attempt(3);
  attempt.begin(&strategy, nullptr, &view);
  EXPECT_EQ(attempt.wire(1), 5);
  attempt.fenced(1);
  EXPECT_TRUE(probed_of(attempt).has_negative(1));
  ASSERT_EQ(strategy.observed().size(), 1u);
  EXPECT_EQ(strategy.observed()[0], std::make_pair(1, false));
  attempt.missed(0);
  attempt.missed(2);
  ASSERT_FALSE(attempt.in_progress());
  ASSERT_FALSE(attempt.acquired());

  RegisterPolicy policy;
  EXPECT_TRUE(attempt.refetch_view(policy, 0, /*current_epoch=*/1, 0));
  EXPECT_FALSE(attempt.refetch_view(policy, policy.max_view_fetches, 1, 0));
  EXPECT_FALSE(attempt.refetch_view(policy, 0, 1, /*view_epoch=*/1));
  EXPECT_TRUE(attempt.learn_view(policy, 1, 0));
  policy.refresh_views = false;
  EXPECT_FALSE(attempt.refetch_view(policy, 0, 1, 0));
  EXPECT_FALSE(attempt.learn_view(policy, 1, 0));

  // A reply stamped with the view's own epoch is no staleness evidence; a
  // newer stamp is.
  attempt.begin(&strategy, nullptr, &view);
  attempt.reached(1, Timestamp{}, 0, false, 0);
  EXPECT_FALSE(attempt.learn_view(RegisterPolicy{}, 1, 0));
  attempt.reached(0, Timestamp{}, 0, false, 1);
  EXPECT_TRUE(attempt.learn_view(RegisterPolicy{}, 1, 0));
  // Staleness is learned only in epoch mode.
  attempt.begin(&strategy, nullptr, nullptr);
  attempt.fenced(1);
  EXPECT_FALSE(attempt.learn_view(RegisterPolicy{}, 1, 0));
}

TEST(QuorumAttempt, RetiredReadAuditChecksTheAdoptedReply) {
  obs::TelemetryConfig saved = obs::current_config();
  obs::TelemetryConfig tc = saved;
  tc.recorder = true;
  obs::configure(tc);
  obs::reset_flight_recorder();

  const MembershipView view = view_of(0, {7, 8, 9});
  ScriptedStrategy strategy(3, {0, 1, 2}, 3);
  QuorumAttempt attempt(3);
  // Index 1 carries the adopted pair but was a member when it served; index
  // 2 reports the same pair from a retired replica. Only the adopted reply
  // decides.
  attempt.begin(&strategy, nullptr, &view);
  attempt.reached(0, Timestamp{1, 0}, 10, false, 0);
  attempt.reached(1, Timestamp{2, 0}, 20, false, 0);
  attempt.reached(2, Timestamp{2, 0}, 20, true, 0);
  FoldResult adopted = attempt.fold(0, FoldOrder::kFamilyIndex);
  ASSERT_TRUE(adopted.ok);
  EXPECT_EQ(adopted.index, 1);
  EXPECT_FALSE(attempt.audit_retired_read(adopted, obs::kNoOp, 5));

  // Now the newest reply comes from the retired replica behind index 2.
  attempt.begin(&strategy, nullptr, &view);
  attempt.reached(0, Timestamp{1, 0}, 10, false, 0);
  attempt.reached(1, Timestamp{2, 0}, 20, false, 0);
  attempt.reached(2, Timestamp{3, 0}, 30, true, 0);
  adopted = attempt.fold(0, FoldOrder::kFamilyIndex);
  ASSERT_EQ(adopted.index, 2);
  const obs::OpId op = obs::make_op_id(3, 4);
  EXPECT_TRUE(attempt.audit_retired_read(adopted, op, 6));

  std::vector<obs::FlightEvent> retired;
  for (const obs::FlightEvent& e : obs::collect_flight_events())
    if (e.kind == obs::FlightKind::kRetiredRead) retired.push_back(e);
  obs::configure(saved);
  obs::reset_flight_recorder();
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].replica, 9);  // the wire id, not the family index
  EXPECT_EQ(retired[0].op, op);
  EXPECT_EQ(retired[0].time_us, 6u);
  EXPECT_EQ(retired[0].payload, 3u);
}

TEST(QuorumAttempt, PushTargetsAscendAfterAProbeOrderFold) {
  ScriptedStrategy strategy(5, {4, 0, 3, 2}, 3);
  QuorumAttempt attempt(5);
  attempt.begin(&strategy, nullptr, nullptr);
  // Equal timestamps, different values (only a liar could do that): the
  // probe-order fold adopts the first reached, the index-order fold the
  // lowest index.
  attempt.reached(4, Timestamp{4, 1}, 44, false, 0);
  attempt.missed(0);
  attempt.reached(3, Timestamp{4, 1}, 43, false, 0);
  attempt.reached(2, Timestamp{2, 1}, 22, false, 0);
  ASSERT_TRUE(attempt.acquired());
  const FoldResult by_probe = attempt.fold(0, FoldOrder::kProbe);
  EXPECT_EQ(by_probe.index, 4);
  EXPECT_EQ(by_probe.value, 44u);
  const Timestamp next = QuorumAttempt::write_timestamp(by_probe, 9);
  EXPECT_EQ(next.counter, 5u);
  EXPECT_EQ(next.writer, 9);

  const std::span<const int> targets = attempt.push_targets();
  EXPECT_EQ(std::vector<int>(targets.begin(), targets.end()),
            (std::vector<int>{2, 3, 4}));
  EXPECT_TRUE(probed_of(attempt).has_negative(0));
  EXPECT_EQ(attempt.fold(0, FoldOrder::kFamilyIndex).index, 3);

  // With b = 1 the vote needs two identical pairs, which no timestamp has.
  EXPECT_FALSE(attempt.fold(1, FoldOrder::kFamilyIndex).ok);
}

TEST(QuorumAttempt, RunningMaxMatchesTheProbeOrderFold) {
  // The probe-order max fold is kept as replies arrive; it must adopt
  // exactly what fold_replies over the reached replies in probe order
  // adopts. Timestamps come from a tiny range, so most sets hold ties
  // (with distinct values, as only liars produce) and unwritten replies.
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    std::shuffle(order.begin(), order.end(), rng);
    ScriptedStrategy strategy(n, order, 1);
    QuorumAttempt attempt(n);
    attempt.begin(&strategy, nullptr, nullptr);
    std::vector<ReplySlot> replies(static_cast<std::size_t>(n));
    std::vector<int> reached;
    for (const int s : order) {
      if (rng.bernoulli(0.3)) {
        attempt.missed(s);
        continue;
      }
      const Timestamp ts{rng.next_below(3),
                         static_cast<int>(rng.next_below(2))};
      const std::uint64_t value = rng.next_below(4);
      attempt.reached(s, ts, value, false, 0);
      replies[static_cast<std::size_t>(s)] = std::make_pair(ts, value);
      reached.push_back(s);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    const FoldResult expected = fold_replies(replies, reached, 0);
    const FoldResult got = attempt.fold(0, FoldOrder::kProbe);
    ASSERT_EQ(got.ok, attempt.acquired() && expected.ok);
    if (!attempt.acquired()) continue;
    EXPECT_EQ(got.index, expected.index);
    EXPECT_TRUE(got.ts == expected.ts);
    EXPECT_EQ(got.value, expected.value);
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

TEST(QuorumAttempt, SizedOnceThenReusedAcrossFamilies) {
  // A smaller family after a larger one reuses the evidence storage; a
  // larger one grows it.
  ScriptedStrategy small(2, {1, 0}, 1);
  ScriptedStrategy large(6, {5, 4}, 1);
  QuorumAttempt attempt(2);
  attempt.begin(&small, nullptr, nullptr);
  attempt.reached(1, Timestamp{1, 0}, 1, false, 0);
  attempt.begin(&large, nullptr, nullptr);
  EXPECT_EQ(probed_of(attempt).universe_size(), 6);
  EXPECT_FALSE(attempt.reply(1).has_value());
  attempt.reached(5, Timestamp{2, 0}, 2, false, 0);
  EXPECT_EQ(attempt.fold(0, FoldOrder::kFamilyIndex).index, 5);
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
