// The four workloads. Each one drives a single engine through its public
// entry points, so a change to one layer shows on the workload that uses it
// and leaves the others flat:
//
//   serve_read_1t  — ServiceRunner, 80% reads, 1 thread: the default served
//                    regime, where the ordered solo stage dominates.
//   serve_write_4t — ServiceRunner, 20% reads, a mid-run partition of
//                    server 0, 4 threads: write pushes, the audit set, probe
//                    timeouts and the solo ticket hand-off.
//   mc_sweep_4t    — batched Monte Carlo sweeps (Theorem 9 non-intersection
//                    grid plus Paths availability), 4 threads.
//   chaos_grid_4t  — run_chaos over the builtin, byzantine and churn grids,
//                    4 threads: the discrete-event simulator.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "core/constructions.h"
#include "core/masking.h"
#include "faults/chaos.h"
#include "mismatch/exact.h"
#include "probe/sequential_analysis.h"
#include "service/load_gen.h"
#include "service/runner.h"
#include "sweep/sweep.h"
#include "uqs/paths.h"

namespace sqs::e2e {
namespace {

constexpr int kMaxThreads = 4;

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

std::uint64_t scaled(std::uint64_t full, bool quick) {
  return quick ? full / 20 : full;
}

// True when `count` successes of `n` Bernoulli(p) trials lie within 6
// standard deviations (plus one count) of n*p. An exact p may round a hair
// above 1, hence the clamp.
bool plausible(std::uint64_t count, double p, std::uint64_t n) {
  const double mean = p * static_cast<double>(n);
  return std::abs(static_cast<double>(count) - mean) <=
         6.0 * std::sqrt(std::max(0.0, mean * (1.0 - p))) + 1.0;
}

// runtime.busy_frac / runtime.wait_ns_per_op from `busy_ns` of work done on
// `threads` threads in `wall_s` seconds.
void busy_metrics(double busy_ns, int threads, double wall_s, std::uint64_t ops,
                  Metrics& out) {
  const double capacity_ns = threads * wall_s * 1e9;
  out.add("runtime.busy_frac", busy_ns / capacity_ns, "frac");
  out.add("runtime.wait_ns_per_op",
          (capacity_ns - busy_ns) / static_cast<double>(ops), "ns");
}

// Busy time is the sum of the sweep chunks (MC sweeps, chaos replicates).
void sweep_busy_metrics(const obs::MetricsSnapshot& snap, int threads,
                        double wall_s, std::uint64_t ops, Metrics& out) {
  const obs::HistogramSnapshot* h = snap.histogram("sweep.chunk_wall_ns");
  busy_metrics(h != nullptr ? static_cast<double>(h->sum) : 0.0, threads, wall_s,
               ops, out);
}

// Served-path stage metrics over `requests` requests served with `threads`
// threads in `wall_s` seconds; busy time is the sum of the stages.
void service_stage_metrics(const obs::MetricsSnapshot& snap, int threads,
                           double wall_s, std::uint64_t requests,
                           Metrics& out) {
  double busy_ns = 0.0;
  for (const char* stage : {"prologue", "solo", "epilogue"}) {
    const obs::HistogramSnapshot* h =
        snap.histogram(std::string("service.") + stage + "_batch_ns");
    const double sum = h != nullptr ? static_cast<double>(h->sum) : 0.0;
    busy_ns += sum;
    out.add(std::string("service.") + stage + "_ns_per_op",
            sum / static_cast<double>(requests), "ns");
  }
  busy_metrics(busy_ns, threads, wall_s, requests, out);
}

// Per-op counts of a served run (probes, transport attempts, write acks,
// drop ratios); deterministic per seed. The layer suite weighs isolated call
// costs by them.
void add_service_counts(const ServiceResult& r, Metrics& out) {
  const double n = static_cast<double>(r.requests);
  const double attempts =
      static_cast<double>(r.net_delivered + r.net_dropped);
  out.add("service.probes_per_op", static_cast<double>(r.probes) / n, "count");
  out.add("service.attempts_per_op", attempts / n, "count");
  out.add("service.write_acks_per_op", static_cast<double>(r.write_acks) / n,
          "count");
  out.add("service.replica_drop_ratio",
          static_cast<double>(r.replica_dropped) /
              static_cast<double>(r.probes),
          "frac");
  out.add("service.net_drop_ratio",
          static_cast<double>(r.net_dropped) / attempts, "frac");
}

// --- served register traffic ----------------------------------------------

struct ServeShape {
  double read_fraction;
  int threads;
  bool partition;  // server 0 cut off for the middle half of the run
};

// Offered load at the knee bench/service finds for OPT_d(12,2).
constexpr double kServeRate = 750.0;
constexpr std::uint64_t kServeOpsPerRep = 300000;
constexpr std::uint64_t kServePrefixOps = 100000;

class ServeWorkload : public Workload {
 public:
  ServeWorkload(ServeShape shape, std::uint64_t seed, bool quick)
      : shape_(shape), seed_(seed), ops_(scaled(kServeOpsPerRep, quick)),
        prefix_ops_(scaled(kServePrefixOps, quick)) {}

  int threads() const override { return shape_.threads; }

  void setup() override {
    family_ = std::make_unique<OptDFamily>(12, 2);
    LoadGenConfig load;
    load.rate = kServeRate;
    load.duration = static_cast<double>(ops_) / kServeRate;
    load.read_fraction = shape_.read_fraction;
    load.num_clients = 64;
    load.seed = seed_;
    // One thread, so set-up time does not depend on how many CPUs the host
    // lends at the moment; the stream is identical at any thread count.
    TrialOptions opts;
    opts.threads = 1;
    {
      ScopedSpan span("generate_load");
      const Clock::time_point start = Clock::now();
      requests_ = generate_load(load, opts);
      loadgen_s_ = seconds_since(start);
    }
    config_ = ServiceConfig{};
    config_.num_clients = 64;
    config_.probe_timeout = 0.25;
    config_.batch = 256;
    config_.threads = shape_.threads;
    config_.seed = seed_;
    if (shape_.partition)
      config_.plan.server_partition(0.25 * load.duration, 0, 0.5 * load.duration);
  }

  RepOutput rep(int rep_index) override {
    ScopedSpan rep_span("rep", rep_index);
    std::unique_ptr<ServiceRunner> runner;
    {
      ScopedSpan span("ServiceRunner", rep_index);
      runner = std::make_unique<ServiceRunner>(*family_, config_);
    }
    {
      ScopedSpan span("serve", rep_index);
      last_ = runner->serve(requests_);
    }
    const ServiceResult& r = last_;
    RepOutput out;
    out.ops = r.requests;
    out.unavailable =
        r.decode_failures + (r.reads - r.reads_ok) + (r.writes - r.writes_ok);
    out.bad = r.decode_failures + r.cert_rejects + r.fabricated_reads +
              r.retired_reads + r.lost_acked_writes;
    out.outputs = {{"reply_fingerprint", r.reply_fingerprint},
                   {"latency_counts_fnv", fnv1a_words(r.latency_us.counts)},
                   {"latency_count", r.latency_us.count},
                   {"reads_ok", r.reads_ok},
                   {"writes_ok", r.writes_ok},
                   {"stale_reads", r.stale_reads},
                   {"probes", r.probes},
                   {"lost_acked_writes", r.lost_acked_writes},
                   {"fabricated_reads", r.fabricated_reads}};
    out.context.add("virtual_p50_ms", r.latency_us.p50() / 1e3, "ms");
    out.context.add("virtual_p99_ms", r.latency_us.p99() / 1e3, "ms");
    out.context.add("availability", r.availability(), "frac");
    return out;
  }

  void cross_check(std::vector<std::string>& errors) override {
    // The ordered solo stage makes replies bit-identical at any thread
    // count: serve a prefix at 1 thread and at the most threads used here.
    ScopedSpan span("cross_check");
    const std::vector<std::uint8_t> prefix(
        requests_.begin(),
        requests_.begin() +
            static_cast<std::ptrdiff_t>(prefix_ops_ * kRequestWireSize));
    ServiceResult results[2];
    const int thread_counts[2] = {1, kMaxThreads};
    for (int i = 0; i < 2; ++i) {
      ServiceConfig config = config_;
      config.threads = thread_counts[i];
      ServiceRunner runner(*family_, config);
      results[i] = runner.serve(prefix);
    }
    if (results[0].reply_fingerprint != results[1].reply_fingerprint ||
        results[0].latency_us.counts != results[1].latency_us.counts)
      errors.push_back("served prefix differs between 1 and " +
                       std::to_string(kMaxThreads) + " threads");
  }

  void layer_metrics(const obs::MetricsSnapshot& snap, double wall_s,
                     std::uint64_t ops, Metrics& out) const override {
    service_stage_metrics(snap, shape_.threads, wall_s, ops, out);
    out.add("service.loadgen_ns_per_op",
            loadgen_s_ * 1e9 / static_cast<double>(ops_), "ns");
    add_service_counts(last_, out);
  }

 private:
  ServeShape shape_;
  std::uint64_t seed_;
  std::uint64_t ops_, prefix_ops_;
  std::unique_ptr<OptDFamily> family_;
  std::vector<std::uint8_t> requests_;
  ServiceConfig config_;
  double loadgen_s_ = 0.0;
  ServiceResult last_;
};

// --- Monte Carlo sweeps ---------------------------------------------------

constexpr std::uint64_t kNonintTrialsPerCell = 500000;
constexpr std::uint64_t kPathsTrialsPerCell = 250000;
constexpr std::uint64_t kDifferentialPrefix = 65536;

class SweepWorkload : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, bool quick)
      : seed_(seed), quick_(quick) {}

  int threads() const override { return kMaxThreads; }

  void setup() override {
    // Theorem 9 grid: OPT_d(24, alpha) under link miss m at p = 0.1, and the
    // Paths availability estimator (Theorem 45's family) at p = 0.3.
    const Rng base(seed_);
    nonint_cells_.clear();
    for (const int alpha : {1, 2, 3})
      for (const double m : {0.1, 0.2, 0.3}) {
        NonintersectionCell cell;
        cell.family = std::make_shared<OptDFamily>(24, alpha);
        cell.model.p = 0.1;
        cell.model.link_miss = m;
        cell.trials = scaled(kNonintTrialsPerCell, quick_);
        cell.base = base.split("nonint").split(nonint_cells_.size());
        nonint_cells_.push_back(std::move(cell));
      }
    avail_cells_.clear();
    for (const int l : {6, 8, 10})
      avail_cells_.push_back(
          {std::make_shared<PathsFamily>(l), 0.3,
           scaled(kPathsTrialsPerCell, quick_),
           base.split("paths").split(avail_cells_.size()).next_u64()});
  }

  RepOutput rep(int rep_index) override {
    ScopedSpan rep_span("rep", rep_index);
    TrialOptions opts;
    opts.threads = kMaxThreads;
    opts.batch = BatchPolicy::kBatched;
    RepOutput out;
    for (const NonintersectionCell& c : nonint_cells_) out.ops += c.trials;
    for (const AvailabilityCell& c : avail_cells_) out.ops += c.samples;
    try {
      std::vector<NonintersectionStats> nonint;
      {
        ScopedSpan span("sweep_nonintersection", rep_index);
        nonint = sweep_nonintersection(nonint_cells_, opts);
      }
      std::vector<AvailabilityEstimate> avail;
      {
        ScopedSpan span("sweep_availability", rep_index);
        avail = sweep_availability(avail_cells_, opts);
      }
      last_nonint_ = nonint;
      for (std::size_t i = 0; i < nonint.size(); ++i) {
        const std::string cell = "nonint" + std::to_string(i);
        out.outputs.push_back({cell + ".both_acquired",
                               nonint[i].both_acquired.successes});
        out.outputs.push_back({cell + ".nonintersection",
                               nonint[i].nonintersection.successes});
        if (nonint[i].nonintersection.trials != nonint_cells_[i].trials)
          out.bad += nonint_cells_[i].trials;
      }
      for (std::size_t i = 0; i < avail.size(); ++i) {
        out.outputs.push_back({"paths" + std::to_string(i) + ".live",
                               static_cast<std::uint64_t>(avail[i].live)});
        if (avail[i].samples != avail_cells_[i].samples)
          out.bad += avail_cells_[i].samples;
      }
    } catch (const std::exception& err) {
      std::fprintf(stderr, "mc_sweep_4t: sweep threw: %s\n", err.what());
      out.unavailable = out.ops;
      out.bad = out.ops;
    }
    return out;
  }

  void cross_check(std::vector<std::string>& errors) override {
    ScopedSpan span("cross_check");
    // Each OPT_d cell's counts against the exact DP of mismatch/exact.h: a
    // kernel that miscounts lands many standard deviations off.
    for (std::size_t i = 0; i < nonint_cells_.size(); ++i) {
      const NonintersectionCell& c = nonint_cells_[i];
      const int alpha = c.family->alpha();
      const ExactNonintersection exact =
          exact_nonintersection(24, alpha, c.model.p, c.model.link_miss,
                                opt_d_stop_rule(24, alpha));
      const std::pair<const char*, std::pair<std::uint64_t, double>> counts[] = {
          {"both_acquired", {last_nonint_[i].both_acquired.successes, exact.both_acquire}},
          {"nonintersection",
           {last_nonint_[i].nonintersection.successes, exact.nonintersection}}};
      for (const auto& [what, count_p] : counts)
        if (!plausible(count_p.first, count_p.second, c.trials))
          errors.push_back("nonint" + std::to_string(i) + "." + what + " = " +
                           std::to_string(count_p.first) + " of " +
                           std::to_string(c.trials) + ", exact DP gives p = " +
                           std::to_string(count_p.second));
    }
    // Every batched trial of a prefix of each cell replayed through the
    // scalar oracle; kDifferential throws on the first divergence.
    std::vector<NonintersectionCell> nonint = nonint_cells_;
    std::vector<AvailabilityCell> avail = avail_cells_;
    const std::uint64_t prefix = scaled(kDifferentialPrefix, quick_);
    for (NonintersectionCell& c : nonint) c.trials = std::min(c.trials, prefix);
    for (AvailabilityCell& c : avail) c.samples = std::min(c.samples, prefix);
    TrialOptions opts;
    opts.threads = kMaxThreads;
    opts.batch = BatchPolicy::kDifferential;
    try {
      sweep_nonintersection(nonint, opts);
      sweep_availability(avail, opts);
    } catch (const std::exception& err) {
      errors.push_back(std::string("differential prefix: ") + err.what());
    }
  }

  void layer_metrics(const obs::MetricsSnapshot& snap, double wall_s,
                     std::uint64_t ops, Metrics& out) const override {
    sweep_busy_metrics(snap, kMaxThreads, wall_s, ops, out);
    if (const obs::HistogramSnapshot* h = snap.histogram("sweep.chunk_wall_ns")) {
      out.add("sweep.chunk_us_p50", h->p50() / 1e3, "us");
      out.add("sweep.chunk_us_p99", h->p99() / 1e3, "us");
    }
    if (const obs::HistogramSnapshot* h = snap.histogram("runtime.steal_ns"))
      out.add("runtime.steal_ns_p99", h->p99(), "ns");
    out.add("runtime.arena.cache_misses",
            static_cast<double>(snap.counter("runtime.arena.cache_misses")),
            "count");
  }

 private:
  std::uint64_t seed_;
  bool quick_;
  std::vector<NonintersectionCell> nonint_cells_;
  std::vector<AvailabilityCell> avail_cells_;
  std::vector<NonintersectionStats> last_nonint_;
};

// --- chaos grids ----------------------------------------------------------

constexpr int kChaosReplicates = 16;

// Everything bench/faults' determinism gate compares for a grid: the full
// integer state of each cell plus its availability/stale doubles.
void push_chaos_fingerprint(const std::vector<ChaosCellResult>& cells,
                            std::vector<std::uint64_t>& fp) {
  for (const ChaosCellResult& c : cells) {
    fp.push_back(double_bits(c.availability));
    fp.push_back(double_bits(c.stale_fraction));
    for (const long v :
         {c.ops_attempted, c.reads_ok, c.stale_reads, c.retries,
          c.deadline_failures, c.server_ts_regressions, c.read_ts_regressions,
          c.lost_writes, c.fabricated_reads, c.epoch_transitions,
          c.view_refreshes, c.epoch_rejects, c.retired_reads,
          c.stale_views_at_end})
      fp.push_back(static_cast<std::uint64_t>(v));
    fp.push_back(c.violations.size());
    for (const RegisterExperimentResult& r : c.replicates)
      fp.push_back(r.events_executed);
  }
}

class ChaosWorkload : public Workload {
 public:
  ChaosWorkload(std::uint64_t seed, bool quick)
      : seed_(seed), replicates_(quick ? 1 : kChaosReplicates) {}

  int threads() const override { return kMaxThreads; }

  void setup() override {
    // Three grids in one run_chaos submission (scenario x replicate flattened
    // over the pool): the builtin grid inherits OPT_d(12,2); the byzantine
    // and churn scenarios name their own families by spec.
    optd_ = std::make_unique<OptDFamily>(12, 2);
    scenarios_ = builtin_chaos_scenarios(*optd_);
    const MaskingThresholdFamily masking(12, 1);
    ChaosScenario byzantine = byzantine_chaos_scenario(masking, 1);
    byzantine.family.kind = "masking-majority";
    byzantine.family.n = 12;
    byzantine.family.b = 1;
    scenarios_.push_back(std::move(byzantine));
    FamilySpec churn;
    churn.kind = "majority";
    churn.n = 12;
    churn.alpha = 2;
    scenarios_.push_back(churn_replace_chaos_scenario(churn));
    // Seed 1 keeps the scenarios' own seeds (bench/faults' inputs).
    for (ChaosScenario& s : scenarios_)
      s.config.seed ^= (seed_ - 1) * 0x9E3779B97F4A7C15ull;
  }

  RepOutput rep(int rep_index) override {
    ScopedSpan rep_span("rep", rep_index);
    TrialOptions opts;
    opts.threads = kMaxThreads;
    std::vector<ChaosCellResult> cells;
    {
      ScopedSpan span("run_chaos", rep_index);
      cells = run_chaos(*optd_, scenarios_, replicates_, opts);
    }
    RepOutput out;
    std::vector<std::uint64_t> fp;
    push_chaos_fingerprint(cells, fp);
    long ok = 0, cells_passed = 0;
    events_ = 0;
    retries_ = 0;
    queue_peak_ = 0;
    for (const ChaosCellResult& c : cells) {
      out.ops += static_cast<std::uint64_t>(c.ops_attempted);
      if (c.passed())
        ++cells_passed;
      else
        out.bad += static_cast<std::uint64_t>(c.ops_attempted);
      retries_ += static_cast<std::uint64_t>(c.retries);
      for (const RegisterExperimentResult& r : c.replicates) {
        ok += r.reads_ok + r.writes_ok;
        events_ += r.events_executed;
        queue_peak_ = std::max<std::uint64_t>(queue_peak_, r.peak_event_queue);
      }
    }
    out.unavailable = out.ops - static_cast<std::uint64_t>(ok);
    ops_ = out.ops;
    out.outputs = {{"chaos_fingerprint", fnv1a_words(fp)},
                   {"ops_attempted", out.ops},
                   {"ops_ok", static_cast<std::uint64_t>(ok)},
                   {"cells_passed", static_cast<std::uint64_t>(cells_passed)}};
    out.context.add("availability",
                    static_cast<double>(ok) / static_cast<double>(out.ops),
                    "frac");
    return out;
  }

  void cross_check(std::vector<std::string>&) override {
    // Every cell's invariant verdict and the reference fingerprint are the
    // checks here; run_chaos' thread-count identity is the test suite's.
  }

  void layer_metrics(const obs::MetricsSnapshot& snap, double wall_s,
                     std::uint64_t ops, Metrics& out) const override {
    sweep_busy_metrics(snap, kMaxThreads, wall_s, ops, out);
    // One sweep chunk per replicate.
    if (const obs::HistogramSnapshot* h = snap.histogram("sweep.chunk_wall_ns")) {
      out.add("faults.replicate_ms_p50", h->p50() / 1e6, "ms");
      out.add("faults.replicate_ms_p99", h->p99() / 1e6, "ms");
    }
    const double events_per_op =
        static_cast<double>(events_) / static_cast<double>(ops_);
    out.add("sim.events_per_s", events_per_op * static_cast<double>(ops) / wall_s,
            "1/s");
    out.add("sim.events_per_op", events_per_op, "count");
    out.add("sim.event_queue_peak", static_cast<double>(queue_peak_), "count");
    out.add("sim.client.retries_per_op",
            static_cast<double>(retries_) / static_cast<double>(ops_), "count");
    const double delivered = static_cast<double>(snap.counter("sim.net.delivered"));
    const double dropped = static_cast<double>(snap.counter("sim.net.dropped"));
    out.add("sim.net.drop_ratio", dropped / (delivered + dropped), "frac");
  }

 private:
  std::uint64_t seed_;
  int replicates_;
  std::unique_ptr<OptDFamily> optd_;
  std::vector<ChaosScenario> scenarios_;
  // Counts of the last rep (identical in every rep).
  std::uint64_t ops_ = 0, events_ = 0, retries_ = 0, queue_peak_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  if (name == "serve_read_1t")
    return std::make_unique<ServeWorkload>(ServeShape{0.8, 1, false}, seed, quick);
  if (name == "serve_write_4t")
    return std::make_unique<ServeWorkload>(ServeShape{0.2, kMaxThreads, true},
                                           seed, quick);
  if (name == "mc_sweep_4t") return std::make_unique<SweepWorkload>(seed, quick);
  if (name == "chaos_grid_4t") return std::make_unique<ChaosWorkload>(seed, quick);
  return nullptr;
}

}  // namespace sqs::e2e
