// Telemetry: named counters and fixed-bucket histograms with deterministic
// thread-local sharding.
//
// Everything is compiled in and gated at runtime by a TelemetryConfig: the
// disabled fast path of every recording call is a single branch on a relaxed
// atomic load (measured in perf_microbench), so instrumentation can stay in
// hot loops permanently.
//
// Determinism contract (mirrors the trial runtime's, DESIGN.md "Telemetry"):
// each thread records into a private shard — no atomics, no sharing — and
// merges it into the process-wide Registry totals under a mutex at scope
// exit (the thread pool flushes when a worker leaves its claim loop; thread
// exit and snapshot() flush too). All metric values are unsigned integers,
// so merged totals are independent of merge order and therefore identical
// for any thread count. Recording never draws randomness and never
// synchronizes with the measured code beyond that one relaxed load: enabling
// telemetry cannot perturb any Monte Carlo result (enforced bit-for-bit by
// tests/test_obs.cpp).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sqs {

class JsonWriter;

namespace obs {

struct TelemetryConfig {
  bool metrics = false;   // counters + histograms
  bool trace = false;     // spans + instant events (see trace.h)
  bool recorder = false;  // flight-recorder rings (see recorder.h)
  // Global cap on buffered trace events; once reached, further events are
  // dropped (and counted in the "obs.trace_events_dropped" snapshot entry).
  std::uint64_t max_trace_events = 1u << 20;
  // Per-thread flight-recorder ring capacity in events (0 = keep default).
  // Applies to rings created after configure() or re-sized by
  // reset_flight_recorder().
  std::uint64_t flight_events = 0;
};

namespace detail {
// Bit 0: metrics, bit 1: trace, bit 2: flight recorder. Relaxed loads on
// the hot path.
extern std::atomic<unsigned> g_telemetry_flags;
}  // namespace detail

void configure(const TelemetryConfig& config);
TelemetryConfig current_config();

inline bool metrics_enabled() {
  return (detail::g_telemetry_flags.load(std::memory_order_relaxed) & 1u) != 0;
}
inline bool trace_enabled() {
  return (detail::g_telemetry_flags.load(std::memory_order_relaxed) & 2u) != 0;
}
// Metrics or trace (the consumers that feed the Registry); the flight
// recorder has its own gate, recorder_enabled() in recorder.h.
inline bool telemetry_enabled() {
  return (detail::g_telemetry_flags.load(std::memory_order_relaxed) & 3u) != 0;
}

// Lightweight handles (an index into the Registry); copy freely, cache in
// function-local statics next to the hot loop they instrument.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const {
    if (!metrics_enabled()) return;
    add_slow(delta);
  }

 private:
  friend class Registry;
  explicit Counter(std::uint32_t id) : id_(id) {}
  void add_slow(std::uint64_t delta) const;
  std::uint32_t id_ = 0;
};

// Fixed-bucket histogram over unsigned integer values (durations in ns,
// probe counts, queue depths). Bucket b counts values <= bounds[b]; one
// implicit overflow bucket follows. Integer sum/count/min/max ride along.
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const {
    if (!metrics_enabled()) return;
    record_slow(value);
  }

 private:
  friend class Registry;
  Histogram(std::uint32_t id, const std::vector<std::uint64_t>* bounds)
      : id_(id), bounds_(bounds) {}
  void record_slow(std::uint64_t value) const;
  std::uint32_t id_ = 0;
  // Points at the registry's immutable bound vector (stable storage), so
  // recording never takes the registry mutex.
  const std::vector<std::uint64_t>* bounds_ = nullptr;
};

// Bucket-bound helpers. pow2_bounds(4, 10) -> {16, 32, ..., 1024}.
std::vector<std::uint64_t> pow2_bounds(int lo_exp, int hi_exp);
std::vector<std::uint64_t> linear_bounds(std::uint64_t lo, std::uint64_t hi,
                                         std::uint64_t step);

struct HistogramSnapshot {
  std::string name;
  std::vector<std::uint64_t> bounds;  // upper bounds; counts has one extra
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // 0 when count == 0
  std::uint64_t max = 0;

  // The q-quantile (q in [0, 1]) estimated from the fixed buckets: the
  // target rank is located in its bucket and interpolated linearly between
  // the bucket's edges, with the recorded min/max tightening the first,
  // last, and overflow buckets. Exact whenever a bucket holds one distinct
  // value; otherwise within one bucket width. 0 when the histogram is
  // empty. Downstream consumers (bench records, bench_diff gates) read
  // p50/p99/p999 through this instead of re-deriving percentile math.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
};

// A histogram's running totals over caller-held bucket bounds, behind the
// Registry, the timeline windows and the served runner. counts has
// bounds.size() + 1 entries (overflow last), sized at construction or on
// the first record.
struct HistAccum {
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~0ull;  // ~0 while empty
  std::uint64_t max = 0;

  HistAccum() = default;
  explicit HistAccum(std::size_t num_bounds) : counts(num_bounds + 1, 0) {}

  void record(const std::vector<std::uint64_t>& bounds, std::uint64_t value) {
    if (counts.empty()) counts.resize(bounds.size() + 1, 0);
    ++counts[static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), value) -
        bounds.begin())];
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }
  void merge(const HistAccum& other);
  void reset();  // empty again, keeping the bucket storage
  HistogramSnapshot snapshot(std::string name,
                             const std::vector<std::uint64_t>& bounds) const;
};

struct MetricsSnapshot {
  // Both sorted by name for stable, diffable output.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  std::uint64_t counter(std::string_view name) const;  // 0 if absent
  const HistogramSnapshot* histogram(std::string_view name) const;

  // Serializes as {"counters": {...}, "histograms": {...}} into an open
  // value position of `json` (used to enrich BENCH_*.json records).
  void write_json(JsonWriter& json) const;
};

// Process-wide metric registry. Registration (counter()/histogram()) takes a
// mutex and is intended for cold paths / static-local handle init; the same
// name always resolves to the same handle.
class Registry {
 public:
  static Registry& instance();

  Counter counter(std::string_view name);
  Histogram histogram(std::string_view name, std::vector<std::uint64_t> bounds);

  // Flushes the calling thread's shard, then returns the merged totals.
  MetricsSnapshot snapshot();

  // Zeroes all totals (calling thread's shard included). Only valid while no
  // other thread is recording; shards of pool workers are empty between
  // batches because the pool flushes at claim-loop exit.
  void reset();

  // Merges the calling thread's shard (metrics and trace buffer) into the
  // process-wide totals; no-op when the shard is clean. Called by the thread
  // pool when a worker leaves a batch, by thread destructors, and by
  // snapshot()/export paths for the calling thread.
  static void flush_thread();

 private:
  Registry() = default;
};

// --- Command-line wiring shared by sqs_cli and every bench driver ---------

struct TelemetryArgs {
  std::string metrics_path;      // --metrics FILE: metrics snapshot JSON
  std::string trace_path;        // --trace FILE: Chrome trace_event JSON
  std::string trace_jsonl_path;  // --trace-jsonl FILE: one event per line
  std::string timeline_path;     // --timeline FILE: windowed series JSONL
  // --timeline-window-ms N: width of a timeline window (virtual time).
  std::uint64_t timeline_window_us = 250000;
  // --flight-recorder-events N: per-thread ring capacity (0 = default).
  std::uint64_t flight_events = 0;
  // False when any flag was malformed (missing value, non-integer,
  // out-of-range); the complaint is already on stderr and drivers must
  // exit nonzero.
  bool ok = true;
};

// parse_thread_count-style strict integer parsing for telemetry flags:
// full-string decimal integer within [lo, hi]. Returns 0 and complains on
// stderr (naming `flag`) otherwise — callers treat 0 as failure.
std::uint64_t parse_flag_u64(const char* flag, const char* text,
                             std::uint64_t lo, std::uint64_t hi);

// Scans argv for --metrics/--trace/--trace-jsonl (enabling the matching
// telemetry; metrics also turn on with --trace, since span durations are
// summarized in the histograms), --timeline/--timeline-window-ms (recorded
// for drivers that emit windowed series), and --flight-recorder-events
// (ring capacity, applied via configure()). Malformed values set .ok =
// false with the complaint on stderr.
TelemetryArgs init_telemetry_from_args(int argc, char** argv);

// The args parsed by the last init_telemetry_from_args call (process-wide).
const TelemetryArgs& telemetry_args();

// Writes the files requested by init_telemetry_from_args (no-op when none).
// Returns false if any write failed; the failing path and errno reason are
// reported on stderr, and drivers surface the failure as a nonzero exit.
bool export_telemetry_files();

}  // namespace obs
}  // namespace sqs
