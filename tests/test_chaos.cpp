// Chaos harness: the shipped scenario grid passes its invariants, the
// invariant checker actually detects injected violations (amnesia), and the
// whole grid is bit-identical at any thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/chaos.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"

namespace sqs {
namespace {

TEST(Chaos, FloorHelperMatchesExactAvailabilityMinusSlack) {
  const OptDFamily family(12, 2);
  const double exact = family.availability(0.05);
  EXPECT_DOUBLE_EQ(chaos_availability_floor(family, 0.05, 0.02), exact - 0.02);
  // Clamped at zero for absurd slack.
  EXPECT_DOUBLE_EQ(chaos_availability_floor(family, 0.05, 2.0), 0.0);
}

TEST(Chaos, EnvelopeHelperFollowsTheorem9) {
  // m = 1/3 -> epsilon = 2m/(1+m) = 0.5; alpha = 1 -> epsilon^2 = 0.25.
  EXPECT_NEAR(chaos_stale_envelope(1, 1.0 / 3.0, 1.0, 0.0), 0.25, 1e-12);
  // Monotone in the miss probability, and the noise floor adds directly.
  EXPECT_LT(chaos_stale_envelope(2, 0.05, 1.0, 0.0),
            chaos_stale_envelope(2, 0.10, 1.0, 0.0));
  EXPECT_NEAR(chaos_stale_envelope(2, 0.05, 1.0, 0.01) -
                  chaos_stale_envelope(2, 0.05, 1.0, 0.0),
              0.01, 1e-12);
}

TEST(Chaos, BuiltinScenariosAllPassTheirInvariants) {
  const OptDFamily family(12, 2);
  const auto scenarios = builtin_chaos_scenarios(family);
  ASSERT_GE(scenarios.size(), 6u);
  const auto results = run_chaos(family, scenarios, /*replicates=*/2);
  ASSERT_EQ(results.size(), scenarios.size());
  for (const ChaosCellResult& cell : results) {
    EXPECT_TRUE(cell.passed()) << cell.scenario << ": "
                               << (cell.violations.empty()
                                       ? ""
                                       : cell.violations.front().invariant +
                                             " — " +
                                             cell.violations.front().detail);
    EXPECT_GT(cell.ops_attempted, 0);
  }
}

TEST(Chaos, AmnesiaScenarioExercisesTheRegressionDetector) {
  const OptDFamily family(12, 2);
  const auto scenarios = builtin_chaos_scenarios(family);
  const ChaosScenario* amnesia = nullptr;
  for (const ChaosScenario& s : scenarios)
    if (s.invariants.expect_ts_regressions) amnesia = &s;
  ASSERT_NE(amnesia, nullptr) << "grid must ship a detector scenario";
  EXPECT_TRUE(amnesia->config.server.amnesia_on_recovery);
  const auto results =
      run_chaos(family, {*amnesia}, /*replicates=*/2);
  ASSERT_EQ(results.size(), 1u);
  // The checker has teeth: regressions were actually observed, and because
  // the scenario declares them expected, the cell still passes.
  EXPECT_GT(results[0].server_ts_regressions, 0);
  EXPECT_TRUE(results[0].passed());
}

TEST(Chaos, ViolatedInvariantIsReported) {
  const OptDFamily family(12, 2);
  auto scenarios = builtin_chaos_scenarios(family);
  ASSERT_FALSE(scenarios.empty());
  ChaosScenario impossible = scenarios.front();
  impossible.invariants.availability_floor = 1.1;  // unreachable on purpose
  const auto results = run_chaos(family, {impossible}, /*replicates=*/1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].passed());
  ASSERT_FALSE(results[0].violations.empty());
  EXPECT_EQ(results[0].violations.front().invariant, "availability-floor");
}

TEST(Chaos, OutOfRangeFaultPlanIsASetupViolation) {
  // A fault naming server 99 of 12 is checked before anything runs: the
  // cell reports a fault-plan setup violation and runs no replicate,
  // instead of applying the fault to a replica that does not exist.
  const OptDFamily family(12, 2);
  ChaosScenario bad;
  for (const ChaosScenario& s : builtin_chaos_scenarios(family))
    if (s.name == "churn") bad = s;
  ASSERT_FALSE(bad.config.plan.events.empty());
  bad.config.plan.events.front().server = 99;
  testing::internal::CaptureStderr();
  const auto results = run_chaos(family, {bad}, /*replicates=*/2);
  const std::string err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].replicates.empty());
  EXPECT_EQ(results[0].ops_attempted, 0);
  ASSERT_EQ(results[0].violations.size(), 1u);
  EXPECT_EQ(results[0].violations.front().invariant, "fault-plan");
  EXPECT_NE(err.find("server index out of range"), std::string::npos) << err;
}

TEST(Chaos, GridBitIdenticalAcrossThreadCounts) {
  const OptDFamily family(12, 2);
  const auto scenarios = builtin_chaos_scenarios(family);
  TrialOptions t1, t8;
  t1.threads = 1;
  t8.threads = 8;
  const auto r1 = run_chaos(family, scenarios, /*replicates=*/2, t1);
  const auto r8 = run_chaos(family, scenarios, /*replicates=*/2, t8);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].scenario, r8[i].scenario);
    // Bit-identical doubles, not approximate.
    EXPECT_EQ(r1[i].availability, r8[i].availability);
    EXPECT_EQ(r1[i].stale_fraction, r8[i].stale_fraction);
    EXPECT_EQ(r1[i].ops_attempted, r8[i].ops_attempted);
    EXPECT_EQ(r1[i].reads_ok, r8[i].reads_ok);
    EXPECT_EQ(r1[i].stale_reads, r8[i].stale_reads);
    EXPECT_EQ(r1[i].retries, r8[i].retries);
    EXPECT_EQ(r1[i].deadline_failures, r8[i].deadline_failures);
    EXPECT_EQ(r1[i].server_ts_regressions, r8[i].server_ts_regressions);
    EXPECT_EQ(r1[i].read_ts_regressions, r8[i].read_ts_regressions);
    EXPECT_EQ(r1[i].lost_writes, r8[i].lost_writes);
    EXPECT_EQ(r1[i].violations.size(), r8[i].violations.size());
    ASSERT_EQ(r1[i].replicates.size(), r8[i].replicates.size());
    for (std::size_t r = 0; r < r1[i].replicates.size(); ++r) {
      EXPECT_EQ(r1[i].replicates[r].events_executed,
                r8[i].replicates[r].events_executed);
      EXPECT_EQ(r1[i].replicates[r].latency_ok.mean(),
                r8[i].replicates[r].latency_ok.mean());
    }
  }
}

// --- the Byzantine scenario -------------------------------------------------

TEST(Byzantine, MaskingGridShipsTheScenarioAndPlainGridsDoNot) {
  const MaskingThresholdFamily masking(12, 1);
  const OptDFamily plain(12, 2);
  const auto count_byz = [](const std::vector<ChaosScenario>& scenarios) {
    int hits = 0;
    for (const ChaosScenario& s : scenarios)
      if (s.name == "byzantine") ++hits;
    return hits;
  };
  EXPECT_EQ(count_byz(builtin_chaos_scenarios(masking)), 1);
  EXPECT_EQ(count_byz(builtin_chaos_scenarios(plain)), 0);
}

TEST(Byzantine, MaskingFamilySurvivesLiarsAcrossTheWholeGrid) {
  // The headline acceptance run: a masking family sized for b = 1 liar
  // runs the ENTIRE builtin grid (the eight classic scenarios plus the
  // byzantine cell its masking_b() pulls in) and keeps every invariant —
  // in particular zero reads of never-written values and zero lost acked
  // writes — while staying above the liar-discounted availability floor.
  const MaskingThresholdFamily family(12, 1);
  const auto scenarios = builtin_chaos_scenarios(family);
  const auto results = run_chaos(family, scenarios, /*replicates=*/1);
  ASSERT_EQ(results.size(), scenarios.size());
  bool saw_byzantine = false;
  for (const ChaosCellResult& cell : results) {
    EXPECT_TRUE(cell.passed())
        << cell.scenario << ": "
        << (cell.violations.empty()
                ? ""
                : cell.violations.front().invariant + " — " +
                      cell.violations.front().detail);
    EXPECT_GT(cell.ops_attempted, 0) << cell.scenario;
    EXPECT_EQ(cell.fabricated_reads, 0) << cell.scenario;
    EXPECT_EQ(cell.lost_writes, 0) << cell.scenario;
    saw_byzantine = saw_byzantine || cell.scenario == "byzantine";
  }
  EXPECT_TRUE(saw_byzantine);
}

TEST(Byzantine, PlainFamilyTripsTheFabricatedWriteInvariant) {
  // Without the masking vote, the boosted fabricated timestamps win the
  // max-timestamp fold: the durability invariant must trip and — with the
  // recorder on — leave a black-box dump behind.
  obs::TelemetryConfig saved = obs::current_config();
  obs::TelemetryConfig tc = saved;
  tc.recorder = true;
  obs::configure(tc);
  obs::reset_flight_recorder();

  const OptDFamily family(9, 2);
  const std::string path = testing::TempDir() + "sqs_byzantine_blackbox.jsonl";
  const auto results = run_chaos(
      family, {byzantine_chaos_scenario(family, 1)}, /*replicates=*/1, {},
      path);

  obs::configure(saved);
  obs::reset_flight_recorder();

  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].passed());
  EXPECT_GT(results[0].fabricated_reads, 0);
  bool found = false;
  for (const ChaosViolation& v : results[0].violations)
    found = found || v.invariant == "fabricated-write";
  EXPECT_TRUE(found) << "fabricated-write violation must be reported";

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  ASSERT_FALSE(text.str().empty()) << path;
  EXPECT_NE(text.str().find("fabricated-write"), std::string::npos);
  EXPECT_NE(text.str().find("\"kind\":\"fabricated_read\""), std::string::npos);
}

TEST(Byzantine, ChaosCellBitIdenticalAt1_2_8Threads) {
  const MaskingThresholdFamily family(12, 1);
  const std::vector<ChaosScenario> scenarios = {
      byzantine_chaos_scenario(family, 1)};
  std::vector<ChaosCellResult> first;
  for (const int threads : {1, 2, 8}) {
    TrialOptions opts;
    opts.threads = threads;
    auto results = run_chaos(family, scenarios, /*replicates=*/2, opts);
    ASSERT_EQ(results.size(), 1u);
    if (first.empty()) {
      first = std::move(results);
      continue;
    }
    EXPECT_EQ(results[0].availability, first[0].availability) << threads;
    EXPECT_EQ(results[0].stale_fraction, first[0].stale_fraction) << threads;
    EXPECT_EQ(results[0].ops_attempted, first[0].ops_attempted) << threads;
    EXPECT_EQ(results[0].reads_ok, first[0].reads_ok) << threads;
    EXPECT_EQ(results[0].fabricated_reads, first[0].fabricated_reads)
        << threads;
    EXPECT_EQ(results[0].lost_writes, first[0].lost_writes) << threads;
    EXPECT_EQ(results[0].retries, first[0].retries) << threads;
    ASSERT_EQ(results[0].replicates.size(), first[0].replicates.size());
    for (std::size_t r = 0; r < first[0].replicates.size(); ++r)
      EXPECT_EQ(results[0].replicates[r].events_executed,
                first[0].replicates[r].events_executed)
          << threads;
  }
}

// --- the event stream of the benchmark grid --------------------------------

void fnv_fold(std::uint64_t& h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

std::uint64_t histogram_digest(const obs::MetricsSnapshot& snap,
                               const char* name) {
  const obs::HistogramSnapshot* h = snap.histogram(name);
  if (h == nullptr) return 0;
  std::uint64_t digest = 0xCBF29CE484222325ull;
  for (const std::uint64_t c : h->counts) fnv_fold(digest, c);
  for (const std::uint64_t v : {h->count, h->sum, h->min, h->max})
    fnv_fold(digest, v);
  return digest;
}

// The chaos_grid_4t grid of bench/e2e at seed 1 and one replicate: the
// builtin OPT_d(12,2) cells, byzantine on MaskingThreshold(12,1) and
// churn_replace on majority(12). Each cell's counters, event count and peak
// queue depth, plus the event loop's queue-depth and event-wait histograms,
// are pinned: any change to the order in which the simulator runs events
// moves at least one of them. The constants come from a queue that kept
// every event in one std::push_heap/pop_heap heap: the reference order.
TEST(Chaos, BenchmarkGridEventStreamIsPinned) {
  const OptDFamily optd(12, 2);
  std::vector<ChaosScenario> scenarios = builtin_chaos_scenarios(optd);
  const MaskingThresholdFamily masking(12, 1);
  ChaosScenario byzantine = byzantine_chaos_scenario(masking, 1);
  byzantine.family.kind = "masking-majority";
  byzantine.family.n = 12;
  byzantine.family.b = 1;
  scenarios.push_back(std::move(byzantine));
  FamilySpec churn;
  churn.kind = "majority";
  churn.n = 12;
  churn.alpha = 2;
  scenarios.push_back(churn_replace_chaos_scenario(churn));

  const obs::TelemetryConfig saved = obs::current_config();
  obs::Registry::instance().reset();
  obs::TelemetryConfig metrics_on;
  metrics_on.metrics = true;
  obs::configure(metrics_on);
  const std::vector<ChaosCellResult> cells =
      run_chaos(optd, scenarios, /*replicates=*/1);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  obs::configure(saved);
  obs::Registry::instance().reset();

  struct Pinned {
    const char* scenario;
    std::uint64_t counters;
    std::uint64_t events_executed;
    std::size_t peak_event_queue;
  };
  const std::vector<Pinned> expected = {
      {"baseline", 0x986F5B42F059A1BAull, 68853, 53},
      {"crash_wave", 0xFA63AAD523F51303ull, 48733, 52},
      {"churn", 0x293D3CDCCD357FDDull, 68546, 76},
      {"gray_servers", 0x8BB1AF738B6EF627ull, 55201, 46},
      {"partition_storm", 0x9654CFE59700B83Dull, 70180, 62},
      {"lossy_bursts", 0x114F26B0E6115A05ull, 55108, 77},
      {"amnesia_churn", 0xE496CDD923E0C03Eull, 67294, 46},
      {"byzantine", 0x7E5DA79C72BB3248ull, 104825, 70},
      {"churn_replace", 0x698DB27DDE77FC76ull, 101253, 73},
  };
  ASSERT_EQ(cells.size(), expected.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ChaosCellResult& c = cells[i];
    std::uint64_t h = 0xCBF29CE484222325ull;
    fnv_fold(h, double_bits(c.availability));
    fnv_fold(h, double_bits(c.stale_fraction));
    for (const long v :
         {c.ops_attempted, c.reads_ok, c.stale_reads, c.retries,
          c.deadline_failures, c.server_ts_regressions, c.read_ts_regressions,
          c.lost_writes, c.fabricated_reads, c.epoch_transitions,
          c.view_refreshes, c.epoch_rejects, c.retired_reads,
          c.stale_views_at_end})
      fnv_fold(h, static_cast<std::uint64_t>(v));
    fnv_fold(h, c.violations.size());
    ASSERT_EQ(c.replicates.size(), 1u) << c.scenario;
    const RegisterExperimentResult& r = c.replicates.front();
    EXPECT_EQ(c.scenario, expected[i].scenario);
    EXPECT_EQ(h, expected[i].counters) << c.scenario;
    EXPECT_EQ(r.events_executed, expected[i].events_executed) << c.scenario;
    EXPECT_EQ(r.peak_event_queue, expected[i].peak_event_queue) << c.scenario;
  }
  const std::uint64_t depth = histogram_digest(snap, "sim.queue_depth");
  const std::uint64_t wait = histogram_digest(snap, "sim.event_wait_us");
  EXPECT_EQ(depth, 0x708FC7D6D6024F33ull);
  EXPECT_EQ(wait, 0x69225F21F9465A07ull);
}

}  // namespace
}  // namespace sqs
