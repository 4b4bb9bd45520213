// Windowed time-series metrics on the explicit virtual clock.
//
// A Timeline buckets per-op observations into fixed windows of simulated
// time (never wall time): each window accumulates op counts, a latency
// histogram over caller-supplied bounds, probe totals, replica drops, and
// the maximum replica queue backlog seen at an arrival. Because the feed
// point is the service runner's solo stage — which observes the identical
// op order at any thread count — the emitted series is bit-identical for
// 1, 2, or N threads (tests/test_recorder.cpp, Timeline suite).
//
// The object is single-owner (no atomics, no locking): exactly one thread
// at a time may call record_op, which the served solo stage's single
// sequencer thread already guarantees.
//
// JSONL schema, one window per line (DESIGN.md section 3.11):
//   {"t_us": window start, "window_us": width, "ops", "ok", "reads",
//    "writes", "throughput_ops_per_s", "p50_us", "p99_us", "max_us",
//    "queue_max_us", "probes", "replica_drops"}

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace sqs {
namespace obs {

struct TimelineWindow {
  std::uint64_t start_us = 0;
  std::uint64_t ops = 0, ok = 0, reads = 0, writes = 0;
  std::uint64_t probes = 0, replica_drops = 0;
  std::uint64_t queue_max_us = 0;  // max replica backlog at an arrival
  HistAccum latency;               // over the timeline's latency bounds
};

class Timeline {
 public:
  // window_us == 0 disables the timeline (record_op becomes one branch).
  Timeline() = default;
  Timeline(std::uint64_t window_us, std::vector<std::uint64_t> latency_bounds);

  bool enabled() const { return window_us_ != 0; }
  std::uint64_t window_us() const { return window_us_; }

  // Folds one op into its arrival window; windows between the last arrival
  // and this one are materialized empty, so the series has no gaps.
  void record_op(std::uint64_t arrival_us, bool ok, bool is_read,
                 std::uint64_t latency_us, std::uint64_t probes,
                 std::uint64_t queue_us, std::uint64_t replica_drops);

  const std::vector<TimelineWindow>& windows() const { return windows_; }

  // Latency quantile of one window through the shared histogram math.
  double window_quantile(const TimelineWindow& w, double q) const;

  // Appends one JSONL line per window. When label_key is non-null every
  // line carries an extra "label_key": label_value field (bench sweeps tag
  // rows with their offered rate).
  void append_jsonl(std::string& out, const char* label_key = nullptr,
                    double label_value = 0.0) const;

  // Writes append_jsonl() output to `path`; errno complaints on stderr.
  bool write_jsonl(const std::string& path) const;

 private:
  TimelineWindow& window_for(std::uint64_t arrival_us);

  std::uint64_t window_us_ = 0;
  std::vector<std::uint64_t> bounds_;
  std::vector<TimelineWindow> windows_;
};

}  // namespace obs
}  // namespace sqs
