// Shared pieces of the end-to-end benchmark binary (e2e_bench): metric
// lists, the benchmark-side span recorder, and the workload interface.
//
// The benchmark measures every layer from outside, by timing calls into the
// layers' public functions; nothing under src/ knows it exists.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.h"

namespace sqs::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Process user+system CPU seconds so far (getrusage).
double process_cpu_seconds();

// FNV-1a over a vector of words: the digest the checks compare.
std::uint64_t fnv1a_words(const std::vector<std::uint64_t>& words);

// Named metrics with units, kept in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const Metric* find(const std::string& name) const;
  double get(const std::string& name) const;  // 0 when absent
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Benchmark-side spans, recorded on the main thread around each
// call into a layer, kept in memory and written as Chrome trace JSON at exit.
// Recording is off unless enabled, so untraced runs pay one branch per span.
class Spans {
 public:
  static Spans& get();
  void enable(std::string workload) {
    enabled_ = true;
    workload_ = std::move(workload);
  }
  bool enabled() const { return enabled_; }
  int begin(const char* name, int rep);
  void end(int id);
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0, end_ns = 0;
    int parent = -1;
    int rep = -1;
  };
  bool enabled_ = false;
  std::string workload_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int rep = -1)
      : id_(Spans::get().enabled() ? Spans::get().begin(name, rep) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Spans::get().end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// What one repetition of a workload produced.
struct RepOutput {
  std::uint64_t ops = 0;          // work units: requests, trials or client ops
  std::uint64_t unavailable = 0;  // ops the modelled system failed (no quorum)
  std::uint64_t bad = 0;          // ops whose output broke an invariant
  // Deterministic outputs: equal across reps and thread counts, compared
  // against the committed reference for the seed.
  std::vector<std::pair<std::string, std::uint64_t>> outputs;
  // Context the modelled system reports (virtual latency, availability);
  // experiment outputs, not costs of the code.
  Metrics context;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  // Builds every input (families, request streams, cells, scenarios); run.py
  // times fresh launches that stop right after it as setup_s.
  virtual void setup() = 0;
  virtual RepOutput rep(int rep_index) = 0;
  // Identity cross-checks on a prefix of the inputs, for any seed; each
  // failure is appended to `errors`.
  virtual void cross_check(std::vector<std::string>& errors) = 0;
  // Per-layer metrics from the obs snapshot of the traced reps, which took
  // `wall_s` seconds in total and did `ops` work units.
  virtual void layer_metrics(const obs::MetricsSnapshot& snap, double wall_s,
                             std::uint64_t ops, Metrics& out) const = 0;
};

// nullptr for an unknown name. `quick` runs at 1/20 of the full size.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick);

// The isolated-call layer suite (layers.cpp): times single public calls of
// every layer on inputs drawn from `seed`. When `out` already holds a serve
// workload's stage and per-op count metrics, it adds the solo stage's
// residual after the isolated costs.
void measure_layers(std::uint64_t seed, bool quick, Metrics& out);

}  // namespace sqs::e2e
