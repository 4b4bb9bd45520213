// google-benchmark microbenchmarks for the library's hot paths: quorum
// acquisition via each family's probe strategy, pairwise SQS verification,
// exact analyses, the lane-parallel Monte Carlo samplers, and the
// simulator's event loop. These are engineering
// benchmarks (throughput of this implementation), complementing the
// paper-reproduction harnesses in the sibling binaries.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/batch.h"
#include "core/composition.h"
#include "core/constructions.h"
#include "mismatch/batch.h"
#include "probe/engine.h"
#include "probe/measurements.h"
#include "probe/sequential_analysis.h"
#include "probe/serverprobe.h"
#include "runtime/run_trials.h"
#include "sim/harness.h"
#include "uqs/majority.h"
#include "uqs/paths.h"
#include "util/json.h"

#include "obs/telemetry.h"

namespace sqs {
namespace {

Configuration random_config(int n, double p, Rng& rng) {
  Configuration c(Bitset(static_cast<std::size_t>(n)));
  for (int i = 0; i < n; ++i) c.set_up(i, !rng.bernoulli(p));
  return c;
}

void BM_OptDAcquisition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const OptDFamily fam(n, 2);
  auto strategy = fam.make_probe_strategy();
  Rng rng(1);
  for (auto _ : state) {
    Configuration c = random_config(n, 0.2, rng);
    ConfigurationOracle oracle(&c);
    benchmark::DoNotOptimize(run_probe(*strategy, oracle, nullptr).num_probes);
  }
}
BENCHMARK(BM_OptDAcquisition)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_MajorityAcquisition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const MajorityFamily fam(n);
  auto strategy = fam.make_probe_strategy();
  Rng rng(2);
  for (auto _ : state) {
    Configuration c = random_config(n, 0.2, rng);
    ConfigurationOracle oracle(&c);
    Rng srng = rng.split(7);
    benchmark::DoNotOptimize(run_probe(*strategy, oracle, &srng).num_probes);
  }
}
BENCHMARK(BM_MajorityAcquisition)->Arg(16)->Arg(64)->Arg(256);

void BM_PathsAcquisition(benchmark::State& state) {
  const int l = static_cast<int>(state.range(0));
  const PathsFamily fam(l);
  auto strategy = fam.make_probe_strategy();
  Rng rng(3);
  for (auto _ : state) {
    Configuration c = random_config(fam.universe_size(), 0.1, rng);
    ConfigurationOracle oracle(&c);
    Rng srng = rng.split(9);
    benchmark::DoNotOptimize(run_probe(*strategy, oracle, &srng).num_probes);
  }
}
BENCHMARK(BM_PathsAcquisition)->Arg(4)->Arg(8)->Arg(16);

void BM_CompositionAcquisition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto maj = std::make_shared<MajorityFamily>(9);
  const CompositionFamily comp(maj, n, 2);
  auto strategy = comp.make_probe_strategy();
  Rng rng(4);
  for (auto _ : state) {
    Configuration c = random_config(n, 0.2, rng);
    ConfigurationOracle oracle(&c);
    Rng srng = rng.split(11);
    benchmark::DoNotOptimize(run_probe(*strategy, oracle, &srng).num_probes);
  }
}
BENCHMARK(BM_CompositionAcquisition)->Arg(64)->Arg(256);

void BM_SqsVerification(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ExplicitSqs d = opt_d_explicit(n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(d.verify().has_value());
  state.counters["quorums"] = static_cast<double>(d.num_quorums());
}
BENCHMARK(BM_SqsVerification)->Arg(8)->Arg(10);

void BM_ServerProbeComplexity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(serverprobe_complexity(n, 3, 0.3));
}
BENCHMARK(BM_ServerProbeComplexity)->Arg(64)->Arg(512);

void BM_SequentialAnalysisDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const StopRule rule = opt_d_stop_rule(n, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(analyze_sequential(n, 0.7, rule).expected_probes);
}
BENCHMARK(BM_SequentialAnalysisDp)->Arg(64)->Arg(512);

// The lane samplers on their own, one 64-trial block of `width` chunk
// streams per iteration (1, 4 or 8 lanes: scalar, AVX2, AVX-512F). The
// ns_per_trial counter is the sampling cost of one Monte Carlo trial,
// which the end-to-end sweeps' per-layer timers, run at one lane, cannot
// show for the wider widths.
template <typename DrawFn>
void run_lane_sampler(benchmark::State& state, int width, DrawFn&& draw) {
  if (!rng_lanes_supported(width)) {
    state.SkipWithError("this CPU lacks the ISA for this lane width");
    return;
  }
  LaneStates states;
  const Rng base(5);
  for (int g = 0; g < width; ++g)
    states.set(g, base.split(static_cast<std::uint64_t>(g)));
  for (auto _ : state) {
    draw(states);
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_trial"] = benchmark::Counter(
      static_cast<double>(kBatchLaneBits) * width,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Availability worlds (draw_world_rows) at p = 0.3 over Paths(6), Paths(8)
// and Paths(10)'s 84, 144 and 220 edges. Args: width, n.
void BM_WorldRows(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const std::uint64_t threshold = bernoulli_threshold(0.3);
  std::vector<std::uint64_t> rows(lane_block_words(n, width));
  run_lane_sampler(state, width, [&](LaneStates& states) {
    draw_world_rows(width, n, threshold, states, rows.data(), 0,
                    static_cast<int>(kBatchLaneBits));
    benchmark::DoNotOptimize(rows.data());
  });
}
BENCHMARK(BM_WorldRows)->ArgsProduct({{1, 4, 8}, {84, 144, 220}});

// Two-client worlds (draw_two_client_rows) over OPT_d(24, alpha)'s 24
// servers at p = 0.1, link miss 0.2. Arg: width.
void BM_TwoClientRows(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  const int n = 24;
  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.2;
  std::vector<std::uint64_t> rows1(lane_block_words(n, width));
  std::vector<std::uint64_t> rows2(lane_block_words(n, width));
  run_lane_sampler(state, width, [&](LaneStates& states) {
    draw_two_client_rows(width, n, model, states, rows1.data(), rows2.data(),
                         0, static_cast<int>(kBatchLaneBits));
    benchmark::DoNotOptimize(rows1.data());
    benchmark::DoNotOptimize(rows2.data());
  });
}
BENCHMARK(BM_TwoClientRows)->Arg(1)->Arg(4)->Arg(8);

// The shared trial runtime end to end: sharded probe measurement at a given
// thread count (results are identical across the Arg values by contract).
void BM_TrialRuntimeMeasureProbes(benchmark::State& state) {
  const OptDFamily fam(256, 2);
  TrialOptions opts;
  opts.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_probes(fam, 0.25, 20000, Rng(1), opts).probes_overall.mean());
  }
}
BENCHMARK(BM_TrialRuntimeMeasureProbes)->Arg(1)->Arg(2)->Arg(8);

// The telemetry disabled fast path: one relaxed atomic load + branch per
// record. This is the cost every instrumented hot loop pays when no --trace
// or --metrics flag is given; it must stay in the ~1 ns range.
void BM_TelemetryDisabledCounter(benchmark::State& state) {
  obs::Counter counter = obs::Registry::instance().counter("bench.disabled");
  obs::Histogram hist = obs::Registry::instance().histogram(
      "bench.disabled_hist", obs::pow2_bounds(0, 16));
  const obs::TelemetryConfig saved = obs::current_config();
  obs::TelemetryConfig off = saved;
  off.metrics = false;
  off.trace = false;
  obs::configure(off);
  std::uint64_t i = 0;
  for (auto _ : state) {
    counter.add();
    hist.record(i++ & 0xffff);
  }
  obs::configure(saved);
}
BENCHMARK(BM_TelemetryDisabledCounter);

// The enabled slow path: thread-local shard lookup + integer adds.
void BM_TelemetryEnabledCounter(benchmark::State& state) {
  obs::Counter counter = obs::Registry::instance().counter("bench.enabled");
  obs::Histogram hist = obs::Registry::instance().histogram(
      "bench.enabled_hist", obs::pow2_bounds(0, 16));
  const obs::TelemetryConfig saved = obs::current_config();
  obs::TelemetryConfig on = saved;
  on.metrics = true;
  obs::configure(on);
  std::uint64_t i = 0;
  for (auto _ : state) {
    counter.add();
    hist.record(i++ & 0xffff);
  }
  obs::configure(saved);
}
BENCHMARK(BM_TelemetryEnabledCounter);

void BM_RegisterExperimentSecond(benchmark::State& state) {
  const OptDFamily fam(12, 2);
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 10.0;
  config.think_time = 0.2;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(run_register_experiment(fam, config).reads_ok);
  }
}
BENCHMARK(BM_RegisterExperimentSecond);

// Wall-clock scaling record for the perf trajectory: the sharded probe
// measurement workload at 1 and 8 threads, written to BENCH_perf.json.
void write_perf_json() {
  const int n = 256, alpha = 2, trials = 200000;
  const double p = 0.25;
  const OptDFamily fam(n, alpha);

  struct Run {
    int threads;
    double wall_ms;
    double mean_probes;
  };
  std::vector<Run> runs;
  for (const int threads : {1, 8}) {
    TrialOptions opts;
    opts.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const ProbeMeasurement m = measure_probes(fam, p, trials, Rng(7), opts);
    const auto stop = std::chrono::steady_clock::now();
    runs.push_back(
        {threads,
         std::chrono::duration<double, std::milli>(stop - start).count(),
         m.probes_overall.mean()});
  }

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "perf_microbench");
  json.key("workload");
  json.begin_object()
      .kv("name", "optd_measure_probes")
      .kv("family", fam.name())
      .kv("n", n)
      .kv("alpha", alpha)
      .kv("p", p)
      .kv("trials", trials)
      .end_object();
  json.key("runs").begin_array();
  for (const Run& r : runs) {
    json.begin_object()
        .kv("threads", r.threads)
        .kv("wall_ms", r.wall_ms)
        .kv("mean_probes", r.mean_probes)
        .end_object();
  }
  json.end_array();
  json.kv("speedup_8v1", runs[0].wall_ms / runs[1].wall_ms);
  json.kv("deterministic", runs[0].mean_probes == runs[1].mean_probes);

  // Telemetry overhead check (acceptance: compiled-in-but-disabled telemetry
  // costs <= ~2% on the probe hot loop). Same workload, telemetry off vs
  // metrics on, single-threaded so timing noise is minimal; the estimates
  // must be identical — recording never draws randomness.
  const obs::TelemetryConfig saved_config = obs::current_config();
  auto timed_run = [&](bool metrics, double* mean_probes) {
    obs::TelemetryConfig cfg = saved_config;
    cfg.metrics = metrics;
    cfg.trace = false;
    obs::configure(cfg);
    TrialOptions opts;
    opts.threads = 1;
    const auto start = std::chrono::steady_clock::now();
    const ProbeMeasurement m = measure_probes(fam, p, trials, Rng(7), opts);
    const auto stop = std::chrono::steady_clock::now();
    *mean_probes = m.probes_overall.mean();
    return std::chrono::duration<double, std::milli>(stop - start).count();
  };
  double mean_off = 0.0, mean_on = 0.0;
  const double wall_off = timed_run(false, &mean_off);
  const double wall_on = timed_run(true, &mean_on);
  const obs::MetricsSnapshot metrics = obs::Registry::instance().snapshot();
  obs::configure(saved_config);
  json.key("telemetry");
  json.begin_object()
      .kv("wall_ms_disabled", wall_off)
      .kv("wall_ms_metrics_on", wall_on)
      .kv("enabled_overhead_pct", 100.0 * (wall_on - wall_off) / wall_off)
      .kv("identical_estimates", mean_off == mean_on)
      .end_object();
  json.key("metrics");
  metrics.write_json(json);
  json.end_object();
  json.write_file("BENCH_perf.json");
  std::printf(
      "[obs] telemetry overhead on measure_probes: %.1f ms off, %.1f ms "
      "metrics-on (%.2f%%), identical estimates=%s\n",
      wall_off, wall_on, 100.0 * (wall_on - wall_off) / wall_off,
      mean_off == mean_on ? "yes" : "NO");
  std::printf(
      "[runtime] measure_probes n=%d trials=%d: %.1f ms @1 thread, %.1f ms "
      "@8 threads (speedup %.2fx, identical=%s) -> BENCH_perf.json\n",
      n, trials, runs[0].wall_ms, runs[1].wall_ms,
      runs[0].wall_ms / runs[1].wall_ms,
      runs[0].mean_probes == runs[1].mean_probes ? "yes" : "NO");
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sqs::write_perf_json();
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
