// Churn timelines (src/faults/churn) and the reconfiguration chaos cells:
// plan builders, epoch-schedule expansion, the churn invariant grid through
// run_chaos (bit-identical at 1/2/8 threads), the designed-to-fail
// stale-view scenario tripping retired-read first, and ServiceRunner churn
// replays staying bit-identical across thread counts.

#include "faults/churn.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/chaos.h"
#include "faults/family_spec.h"
#include "service/load_gen.h"
#include "service/runner.h"
#include "uqs/majority.h"

namespace sqs {
namespace {

FamilySpec majority12() {
  FamilySpec spec;
  spec.kind = "majority";
  spec.n = 12;
  spec.alpha = 2;
  return spec;
}

TEST(Churn, BuildersProduceTheExpectedTimeline) {
  const ChurnPlan plan = make_replace_churn(80.0, 80.0, 3);
  ASSERT_EQ(plan.events.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    const ChurnEvent& e = plan.events[static_cast<std::size_t>(w)];
    EXPECT_EQ(e.kind, ChurnEvent::Kind::kReplace);
    EXPECT_DOUBLE_EQ(e.at, 80.0 + 80.0 * w);
    EXPECT_EQ(e.server, w);
  }
  const ChurnPlan resize = make_resize_churn(100.0, 14, 260.0, 12);
  ASSERT_EQ(resize.events.size(), 2u);
  EXPECT_EQ(resize.events[0].kind, ChurnEvent::Kind::kResize);
  EXPECT_EQ(resize.events[0].count, 14);
  EXPECT_EQ(resize.events[1].count, 12);
  EXPECT_TRUE(plan.validate());
  EXPECT_TRUE(resize.validate());
}

TEST(Churn, ValidateRejectsMalformedPlans) {
  {
    ChurnPlan plan;
    plan.replace(-1.0, 0);  // negative time
    EXPECT_FALSE(plan.validate());
  }
  {
    ChurnPlan plan;
    plan.join(10.0, 0);  // joining zero servers
    EXPECT_FALSE(plan.validate());
  }
  {
    ChurnPlan plan;
    plan.resize(10.0, 0);  // resizing to an empty membership
    EXPECT_FALSE(plan.validate());
  }
  {
    ChurnPlan plan;
    plan.leave(10.0, -1);  // unknown member
    EXPECT_FALSE(plan.validate());
  }
}

TEST(Churn, ScheduleExpansionKeepsLogicalIdsStable) {
  const ChurnPlan plan = make_replace_churn(80.0, 80.0, 3);
  const auto sched =
      build_epoch_schedule(plan, family_factory(majority12()), 12);
  ASSERT_NE(sched, nullptr);
  EXPECT_TRUE(sched->validate());
  EXPECT_EQ(sched->num_epochs(), 4);
  // Three waves retire logical 0, 1, 2 and introduce 12, 13, 14.
  EXPECT_EQ(sched->num_logical, 15);
  EXPECT_TRUE(sched->is_member(0, 0));
  EXPECT_FALSE(sched->is_member(1, 0));
  EXPECT_TRUE(sched->is_member(1, 12));
  EXPECT_FALSE(sched->is_member(3, 2));
  EXPECT_TRUE(sched->is_member(3, 14));
  // Untouched members keep their ids through every epoch.
  for (int e = 0; e < 4; ++e) EXPECT_TRUE(sched->is_member(e, 5));
  // Every epoch's family is sized to its view.
  for (int e = 0; e < 4; ++e)
    EXPECT_EQ(sched->entry(e).family->universe_size(),
              sched->entry(e).view.universe_size());
}

TEST(Churn, ScheduleExpansionRejectsUnknownMembers) {
  ChurnPlan plan;
  plan.replace(10.0, 40);  // not a member of a 12-server universe
  EXPECT_EQ(build_epoch_schedule(plan, family_factory(majority12()), 12),
            nullptr);
  ChurnPlan leave_twice;
  leave_twice.leave(10.0, 3).leave(20.0, 3);  // already gone
  EXPECT_EQ(
      build_epoch_schedule(leave_twice, family_factory(majority12()), 12),
      nullptr);
}

TEST(Churn, ResizeScheduleGrowsAndShrinks) {
  const ChurnPlan plan = make_resize_churn(100.0, 14, 260.0, 12);
  const auto sched =
      build_epoch_schedule(plan, family_factory(majority12()), 12);
  ASSERT_NE(sched, nullptr);
  EXPECT_TRUE(sched->validate());
  ASSERT_EQ(sched->num_epochs(), 3);
  EXPECT_EQ(sched->entry(0).view.universe_size(), 12);
  EXPECT_EQ(sched->entry(1).view.universe_size(), 14);
  EXPECT_EQ(sched->entry(2).view.universe_size(), 12);
  // Shrink drops the most recently added members first.
  EXPECT_TRUE(sched->is_member(1, 12));
  EXPECT_TRUE(sched->is_member(1, 13));
  EXPECT_FALSE(sched->is_member(2, 12));
  EXPECT_FALSE(sched->is_member(2, 13));
}

// --- churn chaos cells ------------------------------------------------------

TEST(Churn, ReplaceAndResizeCellsPassTheirInvariants) {
  const FamilySpec spec = majority12();
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  const std::vector<ChaosScenario> scenarios = {
      churn_replace_chaos_scenario(spec), churn_resize_chaos_scenario(spec)};
  const auto results = run_chaos(*family, scenarios, /*replicates=*/2);
  ASSERT_EQ(results.size(), 2u);
  for (const ChaosCellResult& cell : results) {
    EXPECT_TRUE(cell.passed()) << cell.scenario << ": "
                               << (cell.violations.empty()
                                       ? ""
                                       : cell.violations.front().invariant +
                                             " — " +
                                             cell.violations.front().detail);
    // The reconfiguration actually happened and was observed.
    EXPECT_GT(cell.epoch_transitions, 0) << cell.scenario;
    EXPECT_GT(cell.view_refreshes, 0) << cell.scenario;
    EXPECT_EQ(cell.retired_reads, 0) << cell.scenario;
    EXPECT_EQ(cell.stale_views_at_end, 0) << cell.scenario;
    EXPECT_EQ(cell.lost_writes, 0) << cell.scenario;
  }
}

TEST(Churn, GridIsBitIdenticalAcrossThreadCounts) {
  const FamilySpec spec = majority12();
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  const std::vector<ChaosScenario> scenarios = {
      churn_replace_chaos_scenario(spec)};
  std::vector<ChaosCellResult> first;
  for (const int threads : {1, 2, 8}) {
    TrialOptions opts;
    opts.threads = threads;
    const auto results = run_chaos(*family, scenarios, 2, opts);
    ASSERT_EQ(results.size(), 1u);
    if (first.empty()) {
      first = results;
      continue;
    }
    EXPECT_EQ(results[0].availability, first[0].availability)
        << "threads=" << threads;
    EXPECT_EQ(results[0].stale_reads, first[0].stale_reads);
    EXPECT_EQ(results[0].epoch_transitions, first[0].epoch_transitions);
    EXPECT_EQ(results[0].view_refreshes, first[0].view_refreshes);
    EXPECT_EQ(results[0].epoch_rejects, first[0].epoch_rejects);
    EXPECT_EQ(results[0].retired_reads, first[0].retired_reads);
    EXPECT_EQ(results[0].violations.size(), first[0].violations.size());
  }
}

TEST(Churn, StaleViewForeverTripsRetiredReadFirst) {
  const FamilySpec spec = majority12();
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  const std::vector<ChaosScenario> scenarios = {
      stale_view_chaos_scenario(spec)};
  const auto results = run_chaos(*family, scenarios, /*replicates=*/2);
  ASSERT_EQ(results.size(), 1u);
  const ChaosCellResult& cell = results[0];
  EXPECT_FALSE(cell.passed());
  ASSERT_FALSE(cell.violations.empty());
  // The black box's reason (the first violation) must be the retired read —
  // the strict invariant only the serve_while_retired bug can produce.
  EXPECT_EQ(cell.violations.front().invariant, "retired-read");
  EXPECT_GT(cell.retired_reads, 0);
  EXPECT_GT(cell.stale_views_at_end, 0);
  EXPECT_EQ(cell.view_refreshes, 0);  // refresh_views=false: stale forever
}

// --- ServiceRunner churn replay ---------------------------------------------

TEST(Churn, ServiceRunnerChurnBitIdenticalAcrossThreadCounts) {
  const FamilySpec spec = majority12();
  const auto family = spec.make();
  ASSERT_NE(family, nullptr);
  const ChurnPlan plan = make_replace_churn(1.0, 1.0, 3);
  const auto epochs =
      build_epoch_schedule(plan, family_factory(spec), 12);
  ASSERT_NE(epochs, nullptr);

  LoadGenConfig load;
  load.rate = 500.0;
  load.duration = 4.0;
  load.num_clients = 16;
  load.seed = 7;
  const std::vector<std::uint8_t> requests = generate_load(load);

  ServiceResult first;
  std::vector<std::uint8_t> first_replies;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config;
    config.num_clients = 16;
    config.batch = 64;
    config.seed = 7;
    config.threads = threads;
    config.epochs = epochs;
    ServiceRunner runner(*family, config);
    std::vector<std::uint8_t> replies;
    const ServiceResult r = runner.serve(requests, &replies);
    EXPECT_EQ(r.decode_failures, 0u);
    // All three waves crossed; the runner refreshed its own view.
    EXPECT_EQ(r.epoch_transitions, 3u);
    EXPECT_EQ(r.current_epoch, 3);
    EXPECT_EQ(r.view_epoch, 3);
    EXPECT_EQ(r.retired_reads, 0u);
    EXPECT_EQ(r.lost_acked_writes, 0u);
    if (!have_first) {
      first = r;
      first_replies = std::move(replies);
      have_first = true;
      continue;
    }
    EXPECT_EQ(replies, first_replies) << "threads=" << threads;
    EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
    EXPECT_EQ(r.view_refreshes, first.view_refreshes);
    EXPECT_EQ(r.epoch_rejects, first.epoch_rejects);
    EXPECT_EQ(r.reads_ok, first.reads_ok);
    EXPECT_EQ(r.writes_ok, first.writes_ok);
  }
}

TEST(Churn, ServiceConfigValidatesEpochSurface) {
  const FamilySpec spec = majority12();
  const ChurnPlan plan = make_replace_churn(1.0, 1.0, 3);
  const auto epochs = build_epoch_schedule(plan, family_factory(spec), 12);
  ASSERT_NE(epochs, nullptr);
  ServiceConfig config;
  config.epochs = epochs;
  EXPECT_TRUE(config.validate(epochs->num_logical));
  ServiceConfig bad = config;
  bad.policy.view_fetch_delay = -1.0;
  EXPECT_FALSE(bad.validate(epochs->num_logical));
  bad = config;
  bad.policy.max_view_fetches = -1;
  EXPECT_FALSE(bad.validate(epochs->num_logical));
  // The fleet must be sized to the schedule's logical universe.
  EXPECT_FALSE(config.validate(12));
}

}  // namespace
}  // namespace sqs
