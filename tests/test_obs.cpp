// The telemetry subsystem's contracts (src/obs, DESIGN.md "Telemetry"):
//
//  * disabled by default, and disabled recording is a no-op;
//  * counter/histogram totals are bit-identical for 1, 2, and 8 threads
//    (thread-local shards, integer-only values, merge at scope exit);
//  * enabling telemetry cannot perturb an instrumented Monte Carlo run —
//    the estimates must match the uninstrumented run bit for bit;
//  * spans nest on one timeline, the global event cap drops (and counts)
//    the excess, and the Chrome trace export is well-formed JSON.
//
// Suites are named Obs* so the CI TSan job can select them alongside the
// runtime determinism suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/constructions.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "probe/measurements.h"
#include "runtime/run_trials.h"
#include "runtime/thread_pool.h"
#include "sim/harness.h"
#include "sweep/sweep.h"
#include "util/json.h"

namespace sqs {
namespace {

// Restores the process-default (disabled) telemetry state on scope exit so
// these tests never leak an enabled config into the rest of the suite.
struct TelemetryGuard {
  obs::TelemetryConfig saved = obs::current_config();
  TelemetryGuard() {
    obs::Registry::instance().reset();
    obs::clear_trace();
  }
  ~TelemetryGuard() {
    obs::configure(saved);
    obs::Registry::instance().reset();
    obs::clear_trace();
  }
};

obs::TelemetryConfig enabled_config(bool metrics, bool trace) {
  obs::TelemetryConfig cfg;
  cfg.metrics = metrics;
  cfg.trace = trace;
  return cfg;
}

TEST(ObsTelemetry, DisabledByDefaultAndRecordingIsNoOp) {
  TelemetryGuard guard;
  ASSERT_FALSE(obs::metrics_enabled());
  ASSERT_FALSE(obs::trace_enabled());
  obs::Counter c = obs::Registry::instance().counter("test.noop_counter");
  obs::Histogram h = obs::Registry::instance().histogram(
      "test.noop_hist", obs::pow2_bounds(0, 8));
  c.add(5);
  h.record(100);
  obs::instant("test", "noop");
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter("test.noop_counter"), 0u);
  const obs::HistogramSnapshot* hs = snap.histogram("test.noop_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 0u);
  EXPECT_TRUE(obs::collect_trace().empty());
}

TEST(ObsTelemetry, CounterAndHistogramSemantics) {
  TelemetryGuard guard;
  obs::configure(enabled_config(true, false));
  obs::Counter c = obs::Registry::instance().counter("test.basic_counter");
  c.add();
  c.add(41);
  // Same name, second registration: same underlying slot.
  obs::Registry::instance().counter("test.basic_counter").add(8);

  // Bounds {4, 8}: bucket 0 counts values <= 4, bucket 1 values in (4, 8],
  // bucket 2 (overflow) the rest.
  obs::Histogram h = obs::Registry::instance().histogram(
      "test.basic_hist", std::vector<std::uint64_t>{4, 8});
  h.record(0);
  h.record(4);
  h.record(5);
  h.record(8);
  h.record(9);
  h.record(1000);

  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter("test.basic_counter"), 50u);
  EXPECT_EQ(snap.counter("test.never_registered"), 0u);
  const obs::HistogramSnapshot* hs = snap.histogram("test.basic_hist");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->counts.size(), 3u);
  EXPECT_EQ(hs->counts[0], 2u);  // 0, 4
  EXPECT_EQ(hs->counts[1], 2u);  // 5, 8
  EXPECT_EQ(hs->counts[2], 2u);  // 9, 1000
  EXPECT_EQ(hs->count, 6u);
  EXPECT_EQ(hs->sum, 0u + 4 + 5 + 8 + 9 + 1000);
  EXPECT_EQ(hs->min, 0u);
  EXPECT_EQ(hs->max, 1000u);
}

// The core determinism claim: totals after a sharded parallel workload are
// identical for any thread count, because every shard merges exactly once
// before run_trials returns and all values are order-independent integers.
TEST(ObsTelemetry, QuantileEmptyAndSingleValue) {
  obs::HistogramSnapshot h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> 0

  // Every sample equal: min/max tighten the bucket to a point, so any q is
  // exact even though the bucket spans (10, 20].
  h.bounds = {10, 20, 30};
  h.counts = {0, 4, 0, 0};
  h.count = 4;
  h.sum = 60;
  h.min = 15;
  h.max = 15;
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 15.0);
  EXPECT_DOUBLE_EQ(h.p50(), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
}

TEST(ObsTelemetry, QuantileInterpolatesWithinBucket) {
  obs::HistogramSnapshot h;
  h.bounds = {0, 100};
  h.counts = {0, 100, 0};  // all 100 samples in (0, 100]
  h.count = 100;
  h.min = 1;
  h.max = 100;
  // lo tightened to min=1, hi stays 100; linear in the target rank.
  EXPECT_DOUBLE_EQ(h.p50(), 1.0 + 0.50 * 99.0);
  EXPECT_DOUBLE_EQ(h.p99(), 1.0 + 0.99 * 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(ObsTelemetry, QuantileWalksBucketsByRank) {
  obs::HistogramSnapshot h;
  h.bounds = {10, 20};
  h.counts = {5, 5, 0};
  h.count = 10;
  h.min = 2;
  h.max = 18;
  // target rank 3 lands in the first bucket [min=2, 10].
  EXPECT_DOUBLE_EQ(h.quantile(0.3), 2.0 + (3.0 / 5.0) * 8.0);
  // target rank 9 lands in the second bucket (10, max=18].
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 10.0 + (4.0 / 5.0) * 8.0);
}

TEST(ObsTelemetry, QuantileOverflowBucketUsesRecordedMax) {
  obs::HistogramSnapshot h;
  h.bounds = {10};
  h.counts = {0, 5};  // everything past the last bound
  h.count = 5;
  h.min = 50;
  h.max = 90;
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 90.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.2), 50.0 + (1.0 / 5.0) * 40.0);
}

TEST(ObsTelemetry, QuantileThroughRegistryAndJson) {
  TelemetryGuard guard;
  obs::configure(enabled_config(true, false));
  obs::Histogram h = obs::Registry::instance().histogram(
      "test.quantile_hist", obs::linear_bounds(1, 100, 1));
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* hs = snap.histogram("test.quantile_hist");
  ASSERT_NE(hs, nullptr);
  // One distinct value per bucket -> quantiles are exact at integer ranks.
  EXPECT_DOUBLE_EQ(hs->p50(), 50.0);
  EXPECT_DOUBLE_EQ(hs->p99(), 99.0);
  EXPECT_NEAR(hs->p999(), 99.9, 1e-9);
  // The snapshot JSON carries the quantiles for downstream consumers.
  JsonWriter json;
  snap.write_json(json);
  EXPECT_NE(json.str().find("\"p50\""), std::string::npos);
  EXPECT_NE(json.str().find("\"p99\""), std::string::npos);
  EXPECT_NE(json.str().find("\"p999\""), std::string::npos);
}

TEST(ObsTelemetry, MergeDeterminismAcrossThreadCounts) {
  TelemetryGuard guard;
  obs::configure(enabled_config(true, false));
  obs::Counter c = obs::Registry::instance().counter("test.merge_counter");
  obs::Histogram h = obs::Registry::instance().histogram(
      "test.merge_hist", obs::linear_bounds(8, 64, 8));

  struct Totals {
    std::uint64_t counter = 0;
    std::uint64_t hist_count = 0, hist_sum = 0, hist_min = 0, hist_max = 0;
    std::vector<std::uint64_t> buckets;
    bool operator==(const Totals& o) const {
      return counter == o.counter && hist_count == o.hist_count &&
             hist_sum == o.hist_sum && hist_min == o.hist_min &&
             hist_max == o.hist_max && buckets == o.buckets;
    }
  };
  std::vector<Totals> per_thread_count;
  for (const int threads : {1, 2, 8}) {
    obs::Registry::instance().reset();
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 64;
    run_trials(
        10000, Rng(3), 0,
        [&](int&, std::uint64_t t, Rng&) {
          c.add();
          h.record(t % 97);
        },
        [](int&, int) {}, opts);
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    const obs::HistogramSnapshot* hs = snap.histogram("test.merge_hist");
    ASSERT_NE(hs, nullptr);
    per_thread_count.push_back({snap.counter("test.merge_counter"), hs->count,
                                hs->sum, hs->min, hs->max, hs->counts});
  }
  ASSERT_EQ(per_thread_count.size(), 3u);
  EXPECT_EQ(per_thread_count[0].counter, 10000u);
  EXPECT_EQ(per_thread_count[0].hist_count, 10000u);
  EXPECT_TRUE(per_thread_count[0] == per_thread_count[1]) << "1 vs 2 threads";
  EXPECT_TRUE(per_thread_count[0] == per_thread_count[2]) << "1 vs 8 threads";
}

// Same claim under sweep load: many small cells' chunks finish concurrently
// on the pool (src/sweep flattens them into one submission), and both the
// engine's own metrics and user counters/histograms recorded inside the
// chunk kernels must merge to identical totals at any thread count.
TEST(ObsTelemetry, MergeDeterminismUnderSweepLoad) {
  TelemetryGuard guard;
  obs::configure(enabled_config(true, false));
  obs::Counter c = obs::Registry::instance().counter("test.sweep_counter");
  obs::Histogram h = obs::Registry::instance().histogram(
      "test.sweep_hist", obs::linear_bounds(8, 64, 8));

  // 24 ragged cells, several chunks each: plenty of concurrent finishes.
  std::vector<SweepCell> cells;
  std::uint64_t total_trials = 0, total_chunks = 0;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::uint64_t trials = 40 + 17 * i;
    cells.push_back({trials, Rng(i)});
    total_trials += trials;
    total_chunks += (trials + 31) / 32;
  }

  struct Totals {
    std::uint64_t counter = 0, hist_count = 0, hist_sum = 0;
    std::vector<std::uint64_t> buckets;
    std::uint64_t sweep_runs = 0, sweep_cells = 0, sweep_chunks = 0;
    bool operator==(const Totals& o) const {
      return counter == o.counter && hist_count == o.hist_count &&
             hist_sum == o.hist_sum && buckets == o.buckets &&
             sweep_runs == o.sweep_runs && sweep_cells == o.sweep_cells &&
             sweep_chunks == o.sweep_chunks;
    }
  };
  std::vector<Totals> per_thread_count;
  for (const int threads : {1, 2, 8}) {
    obs::Registry::instance().reset();
    TrialOptions opts;
    opts.threads = threads;
    opts.chunk_size = 32;
    run_sweep(
        cells, 0,
        [&](std::size_t, int&, const TrialContext& ctx, Rng&) {
          for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) {
            c.add();
            h.record(t % 53);
          }
        },
        [](int&, int) {}, opts);
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    const obs::HistogramSnapshot* hs = snap.histogram("test.sweep_hist");
    ASSERT_NE(hs, nullptr);
    per_thread_count.push_back({snap.counter("test.sweep_counter"), hs->count,
                                hs->sum, hs->counts,
                                snap.counter("sweep.runs"),
                                snap.counter("sweep.cells"),
                                snap.counter("sweep.chunks_executed")});
  }
  ASSERT_EQ(per_thread_count.size(), 3u);
  EXPECT_EQ(per_thread_count[0].counter, total_trials);
  EXPECT_EQ(per_thread_count[0].hist_count, total_trials);
  EXPECT_EQ(per_thread_count[0].sweep_runs, 1u);
  EXPECT_EQ(per_thread_count[0].sweep_cells, 24u);
  EXPECT_EQ(per_thread_count[0].sweep_chunks, total_chunks);
  EXPECT_TRUE(per_thread_count[0] == per_thread_count[1]) << "1 vs 2 threads";
  EXPECT_TRUE(per_thread_count[0] == per_thread_count[2]) << "1 vs 8 threads";
}

TEST(ObsTelemetry, PoolRecordsTheCpuOfEveryClaim) {
  // Placement telemetry: one runtime.claim_cpu sample per task claim, by
  // the caller and the workers alike (runtime.queue_depth counts the same
  // claims).
  TelemetryGuard guard;
  obs::configure(enabled_config(true, false));
  const std::uint64_t kTasks = 37;
  std::atomic<std::uint64_t> ran{0};
  ThreadPool::global(3).for_each_chunk(kTasks, 4, [&](std::uint64_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_EQ(ran.load(), kTasks);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  const obs::HistogramSnapshot* cpu = snap.histogram("runtime.claim_cpu");
  ASSERT_NE(cpu, nullptr);
  EXPECT_EQ(cpu->count, kTasks);
  const obs::HistogramSnapshot* depth = snap.histogram("runtime.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count, kTasks);
}

TEST(ObsTelemetry, GroupedSweepRecordsOneWallSamplePerChunk) {
  // A task that samples several chunks side by side records its wall time
  // split evenly, once per chunk: sweep.chunk_wall_ns keeps one sample per
  // chunk and its sum stays the busy time (runtime.busy_frac).
  TelemetryGuard guard;
  obs::configure(enabled_config(true, false));
  const std::uint64_t chunks = 10;
  std::vector<AvailabilityCell> cells = {
      {std::make_shared<OptDFamily>(24, 2), 0.2,
       (chunks - 1) * kDefaultTrialChunk + 300, 5}};
  TrialOptions opts;
  opts.threads = 2;
  opts.batch = BatchPolicy::kBatched;
  sweep_availability(cells, opts);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter("sweep.chunks_executed"), chunks);
  const obs::HistogramSnapshot* wall = snap.histogram("sweep.chunk_wall_ns");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->count, chunks);
}

// Regression: telemetry enabled *mid-batch* must still flush every worker's
// shard. run_chunks used to capture the enabled flag at batch start and skip
// the exit flush when it was false, stranding whatever the workers recorded
// after the toggle; the fix flushes unconditionally (a no-op for clean
// shards). The first chunk flips metrics on, every chunk then increments a
// counter, and the caller parks until a worker has taken at least one chunk
// so the test cannot pass vacuously on a caller-only run.
TEST(ObsTelemetry, MidBatchEnableFlushesWorkerShards) {
  TelemetryGuard guard;
  obs::configure(enabled_config(false, false));  // off when the batch starts
  obs::Counter c = obs::Registry::instance().counter("test.toggle_counter");

  const std::uint64_t kTrials = 256;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::uint64_t> worker_chunks{0};
  std::atomic<bool> worker_ran{false};

  TrialOptions opts;
  opts.threads = 8;
  opts.chunk_size = 1;
  run_trial_chunks(
      kTrials, Rng(5), 0,
      [&](int&, const TrialContext& ctx, Rng&) {
        obs::configure(enabled_config(true, false));  // mid-batch toggle
        c.add(ctx.chunk.end - ctx.chunk.begin);
        if (std::this_thread::get_id() != caller) {
          worker_chunks.fetch_add(1, std::memory_order_relaxed);
          worker_ran.store(true, std::memory_order_release);
        } else if (!worker_ran.load(std::memory_order_acquire)) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (!worker_ran.load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        }
      },
      [](int&, int) {}, opts);

  EXPECT_GT(worker_chunks.load(), 0u) << "no chunk ran on a pool worker";
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter("test.toggle_counter"), kTrials);
}

// Enabling full telemetry must not change any Monte Carlo estimate: the
// instrumented probe engine + runtime produce bit-identical measurements.
// The probe.* part of a snapshot as text: every counter, and every
// histogram's buckets, count, sum, min and max.
std::string probe_metrics(const obs::MetricsSnapshot& snap) {
  std::ostringstream out;
  auto probe = [](const std::string& name) { return name.rfind("probe.", 0) == 0; };
  for (const auto& [name, value] : snap.counters)
    if (probe(name)) out << name << ' ' << value << '\n';
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (!probe(h.name)) continue;
    out << h.name << " count " << h.count << " sum " << h.sum << " min "
        << h.min << " max " << h.max << " buckets";
    for (const std::uint64_t c : h.counts) out << ' ' << c;
    out << '\n';
  }
  return out.str();
}

TEST(ObsTelemetry, InstrumentedRunIsBitIdentical) {
  // Under the scalar oracle (run_probe per trial), the batched counting walk
  // and the differential replay alike: enabling telemetry changes no
  // estimate, and every policy records the same probe.* snapshot.
  TelemetryGuard guard;
  const OptDFamily fam(64, 2);
  std::vector<std::string> snapshots;
  for (const BatchPolicy policy : {BatchPolicy::kScalar, BatchPolicy::kBatched,
                                   BatchPolicy::kDifferential}) {
    SCOPED_TRACE(batch_policy_name(policy));
    TrialOptions opts;
    opts.batch = policy;
    auto run = [&] { return measure_probes(fam, 0.25, 5000, Rng(11), opts); };

    obs::Registry::instance().reset();
    obs::configure(enabled_config(false, false));
    const ProbeMeasurement off = run();
    obs::configure(enabled_config(true, true));
    const ProbeMeasurement on = run();
    const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
    obs::configure(enabled_config(false, false));
    obs::clear_trace();

    EXPECT_EQ(off.acquired.successes, on.acquired.successes);
    EXPECT_EQ(off.acquired.trials, on.acquired.trials);
    EXPECT_EQ(off.probes_overall.mean(), on.probes_overall.mean());
    EXPECT_EQ(off.probes_overall.variance(), on.probes_overall.variance());
    EXPECT_EQ(off.max_probes_seen, on.max_probes_seen);
    EXPECT_EQ(off.load(), on.load());

    // And the instrumented run did actually record probe metrics.
    EXPECT_EQ(snap.counter("probe.runs"), 5000u);
    EXPECT_GT(snap.counter("probe.probes_total"), 0u);
    EXPECT_EQ(snap.counter("probe.acquired") + snap.counter("probe.failed"),
              5000u);
    EXPECT_EQ(snap.counter("probe.positive_probes") +
                  snap.counter("probe.negative_probes"),
              snap.counter("probe.probes_total"));
    snapshots.push_back(probe_metrics(snap));
  }
  EXPECT_EQ(snapshots[1], snapshots[0]) << "batched vs scalar";
  EXPECT_EQ(snapshots[2], snapshots[0]) << "differential vs scalar";
}

TEST(ObsTrace, SpanNestingAndInstants) {
  TelemetryGuard guard;
  obs::configure(enabled_config(true, true));
  {
    obs::Span outer("test", "outer");
    outer.arg("depth", 0);
    {
      obs::Span inner("test", "inner");
      inner.arg("depth", 1);
      obs::instant("test", "tick", "k", 7);
    }
  }
  const std::vector<obs::TraceEvent> events = obs::collect_trace();
  ASSERT_EQ(events.size(), 3u);
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* tick = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, "outer") == 0) outer = &e;
    if (std::strcmp(e.name, "inner") == 0) inner = &e;
    if (std::strcmp(e.name, "tick") == 0) tick = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(inner->phase, 'X');
  EXPECT_EQ(tick->phase, 'i');
  // Nesting: inner starts no earlier and ends no later than outer.
  EXPECT_GE(inner->ts_ns, outer->ts_ns);
  EXPECT_LE(inner->ts_ns + inner->dur_ns, outer->ts_ns + outer->dur_ns);
  EXPECT_GE(tick->ts_ns, inner->ts_ns);
  EXPECT_EQ(outer->tid, inner->tid);
  ASSERT_NE(outer->arg1_name, nullptr);
  EXPECT_STREQ(outer->arg1_name, "depth");
  EXPECT_EQ(tick->arg1, 7u);
  // collect_trace() returns events sorted by timestamp.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
}

TEST(ObsTrace, EventCapDropsAndCounts) {
  TelemetryGuard guard;
  obs::TelemetryConfig cfg = enabled_config(true, true);
  cfg.max_trace_events = 4;
  obs::configure(cfg);
  for (int i = 0; i < 10; ++i) obs::instant("test", "burst");
  EXPECT_EQ(obs::collect_trace().size(), 4u);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  EXPECT_EQ(snap.counter("obs.trace_events_dropped"), 6u);
}

// --- Minimal JSON syntax checker (objects/arrays/strings/numbers/atoms) ----

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (static_cast<std::size_t>(end_ - p_) < len) return false;
    if (std::strncmp(p_, word, len) != 0) return false;
    p_ += len;
    return true;
  }
  bool string() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (static_cast<unsigned char>(*p_) < 0x20) return false;  // raw control
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
        if (*p_ == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ >= end_ ||
                !std::isxdigit(static_cast<unsigned char>(*p_)))
              return false;
          }
        } else if (std::strchr("\"\\/bfnrt", *p_) == nullptr) {
          return false;
        }
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '+' || *p_ == '-'))
      ++p_;
    return p_ > start;
  }
  bool members(char close, bool with_keys) {
    skip_ws();
    if (p_ < end_ && *p_ == close) {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      if (with_keys) {
        if (!string()) return false;
        skip_ws();
        if (p_ >= end_ || *p_ != ':') return false;
        ++p_;
        skip_ws();
      }
      if (!value()) return false;
      skip_ws();
      if (p_ >= end_) return false;
      if (*p_ == ',') {
        ++p_;
        continue;
      }
      if (*p_ == close) {
        ++p_;
        return true;
      }
      return false;
    }
  }
  bool value() {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': ++p_; return members('}', /*with_keys=*/true);
      case '[': ++p_; return members(']', /*with_keys=*/false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  const char* p_;
  const char* end_;
};

TEST(ObsTrace, ChromeTraceExportIsWellFormedJson) {
  TelemetryGuard guard;
  obs::configure(enabled_config(true, true));
  {
    obs::Span span("runtime", "chunk_like");
    span.arg("chunk", 3);
    span.arg("trials", 64);
    obs::instant("probe", "probe_hit", "server", 12);
  }
  // An instrumented sim run contributes real "sim" spans to the same trace.
  RegisterExperimentConfig cfg;
  cfg.num_clients = 2;
  cfg.duration = 50.0;
  const RegisterExperimentResult r =
      run_register_experiment(OptDFamily(12, 2), cfg);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_GT(r.peak_event_queue, 0u);

  const std::string chrome = obs::chrome_trace_json();
  EXPECT_TRUE(JsonChecker(chrome).valid()) << chrome.substr(0, 400);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"displayTimeUnit\""), std::string::npos);
  for (const char* cat : {"\"runtime\"", "\"probe\"", "\"sim\""})
    EXPECT_NE(chrome.find(cat), std::string::npos) << cat;

  // The metrics snapshot JSON shares the writer; check it parses too.
  JsonWriter json;
  obs::Registry::instance().snapshot().write_json(json);
  EXPECT_TRUE(JsonChecker(json.str()).valid()) << json.str().substr(0, 400);
}

}  // namespace
}  // namespace sqs
