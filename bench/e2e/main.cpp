// e2e_bench: runs one workload of the end-to-end benchmark and prints one
// JSON record on stdout. run.py builds it, runs it once per workload and
// turns the records into the benchmark's output; see README.md.
//
//   e2e_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//             [--trace-out FILE] [--setup-only]
//   e2e_bench --host
//
// A run sets the workload up, runs one untimed warm-up rep, then timed reps
// for --seconds; every rep must reproduce the warm-up's outputs exactly.
// --setup-only exits once the inputs are built; run.py times several such
// launches for setup_s. With --trace 1 half the time runs untraced and half
// with the obs metrics on, and the isolated-call layer suite follows; the
// benchmark-side spans go to --trace-out.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "util/json.h"

namespace sqs::e2e {
namespace {

constexpr int kMinReps = 3;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

volatile std::uint64_t g_host_sink = 0;

// A fixed amount of integer work; the result is stored in g_host_sink so
// the compiler cannot drop it.
std::uint64_t busy_loop() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

void write_host_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const long visible = sysconf(_SC_NPROCESSORS_ONLN);
  // Effective parallel capacity: the same busy loop on 1 thread, then on
  // every usable CPU at once. A host whose CPUs are shared reads below
  // `usable`.
  std::uint64_t sink = 0;
  Clock::time_point start = Clock::now();
  sink ^= busy_loop();
  const double one_s = seconds_since(start);
  const int n = std::max(usable, 1);
  std::vector<std::uint64_t> results(static_cast<std::size_t>(n), 0);
  start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i)
      threads.emplace_back([&results, i] { results[static_cast<std::size_t>(i)] = busy_loop(); });
    for (std::thread& t : threads) t.join();
  }
  const double all_s = seconds_since(start);
  for (const std::uint64_t r : results) sink ^= r;

  JsonWriter json;
  json.begin_object()
      .kv("nproc", static_cast<std::int64_t>(visible))
      .kv("usable_cpus", usable)
      .kv("parallel_capacity", n * one_s / all_s)
      .kv("compiler", SQS_E2E_COMPILER)
      .kv("build_type", SQS_E2E_BUILD_TYPE)
      .kv("flags", SQS_E2E_FLAGS)
      .end_object();
  g_host_sink = sink;
  std::printf("%s\n", json.str().c_str());
}

// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
// does not carry over the peak of the process that exec'd us.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool host = false;
  bool setup_only = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (arg == "--host") {
      args.host = true;
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (arg == "--workload" && (v = value())) {
      args.workload = v;
    } else if (arg == "--trace-out" && (v = value())) {
      args.trace_out = v;
    } else if (arg == "--seed" && (v = value())) {
      args.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (arg == "--seconds" && (v = value())) {
      args.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args.seconds > 0.0 && args.seconds <= 600.0))
        return false;
    } else if (arg == "--trace" && (v = value())) {
      const std::string t = v;
      if (t != "0" && t != "1") return false;
      args.trace = t == "1";
    } else {
      return false;
    }
  }
  return args.host || !args.workload.empty();
}

struct RepStats {
  std::vector<double> ops_per_s, cpu_us_per_op;
  std::uint64_t ops = 0, unavailable = 0, failed = 0;
  double wall_s = 0.0;
};

void write_metrics(JsonWriter& json, const Metrics& metrics) {
  json.begin_object();
  for (const Metric& m : metrics.all())
    json.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
  json.end_object();
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed, args.quick);
  if (wl == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) Spans::get().enable(args.workload);
  std::vector<std::string> errors;

  {
    ScopedSpan span("setup");
    wl->setup();
  }
  if (args.setup_only) return 0;

  int rep_index = 0;
  RepOutput reference;
  {
    ScopedSpan span("warmup");
    reference = wl->rep(rep_index++);
  }
  if (reference.bad > 0) errors.push_back("warm-up rep broke an invariant");

  // Timed reps until `budget_s` has passed (at least kMinReps).
  const auto timed_reps = [&](double budget_s, RepStats& stats) {
    const Clock::time_point phase_start = Clock::now();
    while (static_cast<int>(stats.ops_per_s.size()) < kMinReps ||
           seconds_since(phase_start) < budget_s) {
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t = Clock::now();
      const RepOutput out = wl->rep(rep_index++);
      const double wall = seconds_since(t);
      const double cpu = process_cpu_seconds() - cpu0;
      const double ops = static_cast<double>(out.ops);
      stats.ops_per_s.push_back(ops / wall);
      stats.cpu_us_per_op.push_back(cpu * 1e6 / ops);
      stats.ops += out.ops;
      stats.unavailable += out.unavailable;
      stats.wall_s += wall;
      if (out.outputs != reference.outputs) {
        errors.push_back("rep " + std::to_string(rep_index - 1) +
                         " outputs differ from the warm-up rep");
        stats.failed += out.ops;
      } else {
        stats.failed += out.bad;
      }
    }
  };

  RepStats plain, traced;
  Metrics layers;
  timed_reps(args.trace ? args.seconds / 2 : args.seconds, plain);
  if (args.trace) {
    obs::TelemetryConfig config = obs::current_config();
    config.metrics = true;
    obs::configure(config);
    obs::Registry::instance().reset();
    timed_reps(args.seconds / 2, traced);
    wl->layer_metrics(obs::Registry::instance().snapshot(), traced.wall_s,
                      traced.ops, layers);
    layers.add("obs.trace_overhead_frac",
               1.0 - median(traced.ops_per_s) / median(plain.ops_per_s), "frac");
  }

  wl->cross_check(errors);
  if (args.trace) measure_layers(args.seed, args.quick, layers);

  Metrics e2e;
  e2e.add("ops_per_s", median(plain.ops_per_s), "1/s");
  e2e.add("cpu_us_per_op", median(plain.cpu_us_per_op), "us");
  e2e.add("peak_rss_mb", peak_rss_mib(), "MiB");
  e2e.add("failed_frac",
          static_cast<double>(plain.unavailable) / static_cast<double>(plain.ops),
          "frac");

  const std::uint64_t attempted = plain.ops + traced.ops;
  const std::uint64_t failed = plain.failed + traced.failed;
  JsonWriter json;
  json.begin_object()
      .kv("workload", args.workload)
      .kv("seed", args.seed)
      .kv("size", args.quick ? "quick" : "full")
      .kv("threads", wl->threads())
      .kv("trace", args.trace)
      .kv("seconds", args.seconds)
      .kv("ops_per_rep", reference.ops)
      .kv("attempted", attempted)
      .kv("failed", failed);
  json.key("metrics");
  write_metrics(json, e2e);
  json.key("samples").begin_object();
  json.key("ops_per_s").begin_array();
  for (const double v : plain.ops_per_s) json.value(v);
  json.end_array();
  json.key("cpu_us_per_op").begin_array();
  for (const double v : plain.cpu_us_per_op) json.value(v);
  json.end_array();
  json.end_object();
  if (args.trace) {
    json.key("layers");
    write_metrics(json, layers);
  }
  json.key("context");
  write_metrics(json, reference.context);
  // Decimal strings: exact for 64-bit digests in any JSON reader.
  json.key("outputs").begin_object();
  for (const auto& [name, value] : reference.outputs)
    json.kv(name, std::to_string(value));
  json.end_object();
  json.key("errors").begin_array();
  for (const std::string& e : errors) json.value(e);
  json.end_array();
  json.end_object();
  std::printf("%s\n", json.str().c_str());

  if (args.trace && !args.trace_out.empty() &&
      !Spans::get().write_chrome_trace(args.trace_out)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  return errors.empty() && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sqs::e2e

int main(int argc, char** argv) {
  sqs::e2e::Args args;
  if (!sqs::e2e::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--quick] [--trace-out FILE] "
                 "[--setup-only] | --host\n");
    return 2;
  }
  if (args.host) {
    sqs::e2e::write_host_json();
    return 0;
  }
  return sqs::e2e::run(args);
}
