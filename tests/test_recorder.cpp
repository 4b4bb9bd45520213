// Flight recorder and windowed timeline: op-id packing, ring wraparound,
// deterministic merged dumps (bit-identical at any thread count while no
// ring wrapped), op-id propagation through every ServiceRunner stage under
// a fault plan, the chaos black box, strict telemetry-flag parsing, and
// the "observability changes no served bit" contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "faults/chaos.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "service/load_gen.h"
#include "service/message.h"
#include "service/runner.h"

namespace sqs {
namespace {

// Enables the flight recorder (optionally with a small ring) for one test
// and restores the previous telemetry config — and clean, default-capacity
// rings — on exit, so tests compose in any gtest order.
class RecorderScope {
 public:
  explicit RecorderScope(std::uint64_t flight_events = 0)
      : saved_(obs::current_config()) {
    obs::TelemetryConfig tc = saved_;
    tc.recorder = true;
    tc.flight_events = flight_events;
    obs::configure(tc);
    obs::reset_flight_recorder();
  }
  ~RecorderScope() {
    obs::configure(saved_);
    obs::reset_flight_recorder();
  }

 private:
  obs::TelemetryConfig saved_;
};

using EventKey = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, int,
                            std::int32_t, std::uint64_t>;

std::vector<EventKey> event_keys(const std::vector<obs::FlightEvent>& events) {
  std::vector<EventKey> keys;
  keys.reserve(events.size());
  for (const obs::FlightEvent& e : events)
    keys.emplace_back(e.run, e.time_us, e.op, static_cast<int>(e.kind),
                      e.replica, e.payload);
  return keys;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

LoadGenConfig tiny_load() {
  LoadGenConfig load;
  load.rate = 500.0;
  load.duration = 2.0;  // 1000 ops
  load.num_clients = 16;
  load.seed = 7;
  return load;
}

ServiceConfig tiny_service() {
  ServiceConfig config;
  config.num_clients = 16;
  config.batch = 64;
  config.seed = 7;
  return config;
}

// --- op identity ------------------------------------------------------------

TEST(Recorder, OpIdPacksStreamAndSequence) {
  const obs::OpId op = obs::make_op_id(7, 99);
  EXPECT_EQ(obs::op_stream(op), 7u);
  EXPECT_EQ(obs::op_seq(op), 99u);
  // Extremes survive the packing; kNoOp is the all-ones id.
  EXPECT_EQ(obs::op_stream(obs::make_op_id(0xFFFF, (1ull << 48) - 1)), 0xFFFFu);
  EXPECT_EQ(obs::op_seq(obs::make_op_id(0xFFFF, (1ull << 48) - 1)),
            (1ull << 48) - 1);
  EXPECT_EQ(obs::make_op_id(0xFFFF, (1ull << 48) - 1), obs::kNoOp);
  EXPECT_NE(obs::make_op_id(obs::kServiceStream, 0), obs::kNoOp);
}

TEST(Recorder, ScopedOpAndRunScopeSaveAndRestore) {
  EXPECT_EQ(obs::current_op(), obs::kNoOp);
  {
    obs::ScopedOp outer(obs::make_op_id(1, 5));
    EXPECT_EQ(obs::current_op(), obs::make_op_id(1, 5));
    {
      obs::ScopedOp inner(obs::make_op_id(2, 6));
      EXPECT_EQ(obs::current_op(), obs::make_op_id(2, 6));
    }
    EXPECT_EQ(obs::current_op(), obs::make_op_id(1, 5));
  }
  EXPECT_EQ(obs::current_op(), obs::kNoOp);

  const std::uint32_t before = obs::current_flight_run();
  {
    obs::FlightRunScope run(42);
    EXPECT_EQ(obs::current_flight_run(), 42u);
  }
  EXPECT_EQ(obs::current_flight_run(), before);
}

// --- ring behaviour ---------------------------------------------------------

TEST(Recorder, DisabledRecorderRecordsNothing) {
  // Enable-then-disable leaves clean rings around; flight() must then be a
  // no-op (the single-branch fast path).
  RecorderScope scope;
  obs::TelemetryConfig off = obs::current_config();
  off.recorder = false;
  obs::configure(off);
  obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, 1), 100);
  EXPECT_EQ(obs::flight_recorder_stats().recorded, 0u);
  EXPECT_TRUE(obs::collect_flight_events().empty());
}

TEST(Recorder, CollectedEventsAreSortedByFullKey) {
  RecorderScope scope;
  // Record out of time order from one thread; collect() must sort.
  obs::flight(obs::FlightKind::kOpDone, obs::make_op_id(1, 2), 300);
  obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, 1), 100);
  obs::flight(obs::FlightKind::kProbe, obs::make_op_id(1, 1), 200, 3, 50);
  // Equal-time events of one op sort in FlightKind (causal pipeline) order.
  obs::flight(obs::FlightKind::kOpDone, obs::make_op_id(1, 3), 400);
  obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, 3), 400);

  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].time_us, events[i].time_us);
  EXPECT_EQ(events[0].kind, obs::FlightKind::kArrival);
  EXPECT_EQ(events[3].kind, obs::FlightKind::kArrival);  // t=400 pair ordered
  EXPECT_EQ(events[4].kind, obs::FlightKind::kOpDone);
  EXPECT_EQ(obs::flight_recorder_stats().recorded, 5u);
  EXPECT_EQ(obs::flight_recorder_stats().overwritten, 0u);
}

TEST(Recorder, WraparoundKeepsTheMostRecentWindow) {
  RecorderScope scope(/*flight_events=*/64);
  for (std::uint64_t t = 0; t < 100; ++t)
    obs::flight(obs::FlightKind::kArrival, obs::make_op_id(1, t), t);

  const obs::FlightRecorderStats stats = obs::flight_recorder_stats();
  EXPECT_EQ(stats.recorded, 100u);
  EXPECT_EQ(stats.overwritten, 36u);

  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  ASSERT_EQ(events.size(), 64u);
  // The oldest 36 events were overwritten; the retained window is 36..99.
  EXPECT_EQ(events.front().time_us, 36u);
  EXPECT_EQ(events.back().time_us, 99u);
}

TEST(Recorder, EmptyDumpIsWellFormedJsonl) {
  RecorderScope scope;
  const std::string path = testing::TempDir() + "sqs_empty_dump.jsonl";
  ASSERT_TRUE(obs::write_flight_recorder(path, "test: empty"));
  const std::string text = read_file(path);
  // Exactly the meta line: reason + zero events, one trailing newline.
  EXPECT_NE(text.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"test: empty\""), std::string::npos);
  EXPECT_NE(text.find("\"events\":0"), std::string::npos);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_EQ(obs::flight_recorder_stats().dumps, 1u);
}

// --- determinism across thread counts ---------------------------------------

TEST(Recorder, ServeDumpBitIdenticalAcrossThreadCounts) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());

  RecorderScope scope;
  std::vector<EventKey> first;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    obs::reset_flight_recorder();
    ServiceConfig config = tiny_service();
    config.threads = threads;
    ServiceRunner runner(family, config);
    runner.serve(requests);
    const obs::FlightRecorderStats stats = obs::flight_recorder_stats();
    ASSERT_GT(stats.recorded, 0u);
    // The bit-identity contract only holds while no ring wrapped; the tiny
    // workload is far below the default per-thread capacity.
    ASSERT_EQ(stats.overwritten, 0u);
    const std::vector<EventKey> keys = event_keys(obs::collect_flight_events());
    if (!have_first) {
      first = keys;
      have_first = true;
      continue;
    }
    EXPECT_EQ(keys, first) << "threads=" << threads;
  }
}

TEST(Recorder, OpIdPropagatesThroughAllStagesUnderPartition) {
  const OptDFamily family(12, 2);
  RecorderScope scope;

  // Generated with the recorder on so kGenerated events land in the rings;
  // the partition fault plan exercises kFault and probe misses.
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());
  ServiceConfig config = tiny_service();
  config.plan.server_partition(0.5, 0, 1.0);
  ServiceRunner runner(family, config);
  const ServiceResult result = runner.serve(requests);
  EXPECT_EQ(result.lost_acked_writes, 0u);

  const std::vector<obs::FlightEvent> events = obs::collect_flight_events();
  const std::uint64_t n = tiny_load().total_ops();

  std::uint64_t generated = 0, decoded = 0, arrivals = 0, done = 0,
                encoded = 0, probes = 0, faults = 0;
  std::vector<std::uint8_t> stages(static_cast<std::size_t>(n), 0);
  for (const obs::FlightEvent& e : events) {
    if (e.kind == obs::FlightKind::kFault) {
      ++faults;
      EXPECT_EQ(e.op, obs::kNoOp);
      continue;
    }
    if (e.op == obs::kNoOp) continue;
    EXPECT_EQ(obs::op_stream(e.op), obs::kServiceStream);
    const std::uint64_t seq = obs::op_seq(e.op);
    ASSERT_LT(seq, n);
    std::uint8_t& mask = stages[static_cast<std::size_t>(seq)];
    switch (e.kind) {
      case obs::FlightKind::kGenerated: ++generated; mask |= 1; break;
      case obs::FlightKind::kDecoded: ++decoded; mask |= 2; break;
      case obs::FlightKind::kArrival: ++arrivals; mask |= 4; break;
      case obs::FlightKind::kOpDone: ++done; mask |= 8; break;
      case obs::FlightKind::kEncoded: ++encoded; mask |= 16; break;
      case obs::FlightKind::kProbe:
      case obs::FlightKind::kProbeMiss:
        ++probes;
        EXPECT_GE(e.replica, 0);
        break;
      default: break;
    }
  }
  // Every op is visible in all three runner stages (prologue, solo,
  // epilogue) plus load gen, under the same op id.
  EXPECT_EQ(generated, n);
  EXPECT_EQ(decoded, n);
  EXPECT_EQ(arrivals, n);
  EXPECT_EQ(done, n);
  EXPECT_EQ(encoded, n);
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i)
    EXPECT_EQ(stages[i], 31) << "op " << i << " missing a stage";
  EXPECT_GT(probes, 0u);
  EXPECT_GT(faults, 0u);  // the partition start/stop events
}

TEST(Recorder, ServedProbeMissRecordsTheTimeSpent) {
  // Replica 0 — OPT_d's first probe — lies, so its replies arrive in time
  // but fail cert verification. Such a miss costs the op its round trip,
  // not the probe timeout, and the kProbeMiss payload says so; no miss can
  // take longer than the timeout.
  const OptDFamily family(12, 2);
  RecorderScope scope;
  ServiceConfig config = tiny_service();
  config.plan = make_byzantine_plan(12, 1, 0.5, 1.0);
  ServiceRunner runner(family, config);
  const ServiceResult result = runner.serve(generate_load(tiny_load()));
  ASSERT_GT(result.cert_rejects, 0u);

  const std::uint64_t timeout_us = obs::to_us(config.probe_timeout);
  std::uint64_t misses = 0, short_misses = 0;
  for (const obs::FlightEvent& e : obs::collect_flight_events()) {
    if (e.kind != obs::FlightKind::kProbeMiss) continue;
    ++misses;
    EXPECT_LE(e.payload, timeout_us);
    if (e.payload < timeout_us) ++short_misses;
  }
  EXPECT_GT(misses, 0u);
  EXPECT_GT(short_misses, 0u);
}

// --- the chaos black box ----------------------------------------------------

TEST(Recorder, ChaosViolationWritesBlackBox) {
  const OptDFamily family(12, 2);
  RecorderScope scope;
  auto scenarios = builtin_chaos_scenarios(family);
  ASSERT_FALSE(scenarios.empty());
  ChaosScenario impossible = scenarios.front();
  impossible.invariants.availability_floor = 1.1;  // unreachable on purpose

  const std::string path = testing::TempDir() + "sqs_chaos_blackbox.jsonl";
  const auto results =
      run_chaos(family, {impossible}, /*replicates=*/1, {}, path);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_FALSE(results[0].passed());

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  // Meta line names the scenario and the tripped invariant...
  EXPECT_NE(text.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(text.find("availability-floor"), std::string::npos);
  EXPECT_NE(text.find(impossible.name), std::string::npos);
  // ...and the dump carries per-op causal events from the replicates.
  EXPECT_NE(text.find("\"kind\":\"arrival\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"op_done\""), std::string::npos);
  EXPECT_EQ(obs::flight_recorder_stats().dumps, 1u);
}

// --- strict flag parsing ----------------------------------------------------

TEST(Recorder, ParseFlagU64AcceptsFullStringIntegersInRange) {
  EXPECT_EQ(obs::parse_flag_u64("--x", "64", 64, 1 << 20), 64u);
  EXPECT_EQ(obs::parse_flag_u64("--x", "1048576", 64, 1 << 20), 1u << 20);
}

TEST(Recorder, ParseFlagU64RejectsGarbage) {
  EXPECT_EQ(obs::parse_flag_u64("--x", "12abc", 1, 100), 0u);  // trailing junk
  EXPECT_EQ(obs::parse_flag_u64("--x", "abc", 1, 100), 0u);
  EXPECT_EQ(obs::parse_flag_u64("--x", "", 1, 100), 0u);
  EXPECT_EQ(obs::parse_flag_u64("--x", "-5", 1, 100), 0u);    // negative
  EXPECT_EQ(obs::parse_flag_u64("--x", "0", 1, 100), 0u);     // below lo
  EXPECT_EQ(obs::parse_flag_u64("--x", "101", 1, 100), 0u);   // above hi
  EXPECT_EQ(obs::parse_flag_u64("--x", "1e3", 1, 10000), 0u);  // no floats
}

// --- the windowed timeline --------------------------------------------------

TEST(Timeline, DefaultConstructedIsDisabled) {
  obs::Timeline timeline;
  EXPECT_FALSE(timeline.enabled());
  timeline.record_op(100, true, true, 10, 2, 0, 0);
  EXPECT_TRUE(timeline.windows().empty());
}

TEST(Timeline, AggregatesWindowsAndMaterializesGaps) {
  obs::Timeline timeline(1000, {10, 100, 1000});
  timeline.record_op(100, true, true, 50, 2, 7, 0);     // window 0
  timeline.record_op(900, false, false, 500, 4, 3, 1);  // window 0
  timeline.record_op(3500, true, true, 5, 1, 0, 0);     // window 3

  const auto& windows = timeline.windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].start_us, 0u);
  EXPECT_EQ(windows[0].ops, 2u);
  EXPECT_EQ(windows[0].ok, 1u);
  EXPECT_EQ(windows[0].reads, 1u);
  EXPECT_EQ(windows[0].writes, 1u);
  EXPECT_EQ(windows[0].probes, 6u);
  EXPECT_EQ(windows[0].replica_drops, 1u);
  EXPECT_EQ(windows[0].queue_max_us, 7u);
  EXPECT_EQ(windows[0].lat_min, 50u);
  EXPECT_EQ(windows[0].lat_max, 500u);
  // Gap windows exist and are empty, so the series has no holes.
  EXPECT_EQ(windows[1].ops, 0u);
  EXPECT_EQ(windows[2].ops, 0u);
  EXPECT_EQ(windows[3].start_us, 3000u);
  EXPECT_EQ(windows[3].ops, 1u);
  // The per-window quantile runs through the shared histogram math.
  EXPECT_GT(timeline.window_quantile(windows[0], 0.99), 0.0);
  EXPECT_EQ(timeline.window_quantile(windows[1], 0.99), 0.0);
}

TEST(Timeline, JsonlCarriesTheDocumentedSchema) {
  obs::Timeline timeline(1000, {10, 100});
  timeline.record_op(100, true, true, 50, 2, 7, 0);
  std::string out;
  timeline.append_jsonl(out);
  for (const char* key :
       {"\"t_us\"", "\"window_us\"", "\"ops\"", "\"ok\"", "\"reads\"",
        "\"writes\"", "\"throughput_ops_per_s\"", "\"p50_us\"", "\"p99_us\"",
        "\"max_us\"", "\"queue_max_us\"", "\"probes\"", "\"replica_drops\""})
    EXPECT_NE(out.find(key), std::string::npos) << key;
  EXPECT_EQ(out.find("\"rate\""), std::string::npos);

  std::string labeled;
  timeline.append_jsonl(labeled, "rate", 750.0);
  EXPECT_NE(labeled.find("\"rate\""), std::string::npos);
}

TEST(Timeline, ServeSeriesBitIdenticalAcrossThreadCounts) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());
  std::string first;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config = tiny_service();
    config.threads = threads;
    config.timeline_window_us = 250000;
    ServiceRunner runner(family, config);
    runner.serve(requests);
    ASSERT_TRUE(runner.timeline().enabled());
    ASSERT_FALSE(runner.timeline().windows().empty());
    std::string out;
    runner.timeline().append_jsonl(out);
    if (!have_first) {
      first = out;
      have_first = true;
      continue;
    }
    EXPECT_EQ(out, first) << "threads=" << threads;
  }
}

TEST(Timeline, ObservabilityChangesNoServedBit) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(tiny_load());

  // Plain run: no recorder, no timeline, no metrics.
  ServiceRunner plain(family, tiny_service());
  const ServiceResult base = plain.serve(requests);

  // Everything on: recorder rings, timeline windows, metrics counters.
  RecorderScope scope;
  obs::TelemetryConfig tc = obs::current_config();
  tc.metrics = true;
  obs::configure(tc);
  ServiceConfig config = tiny_service();
  config.timeline_window_us = 250000;
  ServiceRunner instrumented(family, config);
  const ServiceResult observed = instrumented.serve(requests);
  obs::TelemetryConfig off = obs::current_config();
  off.metrics = false;
  obs::configure(off);

  EXPECT_EQ(observed.reply_fingerprint, base.reply_fingerprint);
  EXPECT_EQ(observed.reads_ok, base.reads_ok);
  EXPECT_EQ(observed.writes_ok, base.writes_ok);
  EXPECT_EQ(observed.stale_reads, base.stale_reads);
  EXPECT_EQ(observed.probes, base.probes);
  EXPECT_EQ(observed.latency_us.counts, base.latency_us.counts);
  EXPECT_EQ(observed.latency_us.sum, base.latency_us.sum);
}

}  // namespace
}  // namespace sqs
