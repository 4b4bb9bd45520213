#include "obs/timeline.h"

#include <algorithm>
#include <utility>

#include "obs/recorder.h"
#include "util/json.h"

namespace sqs {
namespace obs {

Timeline::Timeline(std::uint64_t window_us,
                   std::vector<std::uint64_t> latency_bounds)
    : window_us_(window_us), bounds_(std::move(latency_bounds)) {}

TimelineWindow& Timeline::window_for(std::uint64_t arrival_us) {
  const std::size_t index = static_cast<std::size_t>(arrival_us / window_us_);
  while (windows_.size() <= index) {
    TimelineWindow w;
    w.start_us = static_cast<std::uint64_t>(windows_.size()) * window_us_;
    windows_.push_back(std::move(w));
  }
  return windows_[index];
}

void Timeline::record_op(std::uint64_t arrival_us, bool ok, bool is_read,
                         std::uint64_t latency_us, std::uint64_t probes,
                         std::uint64_t queue_us, std::uint64_t replica_drops) {
  if (window_us_ == 0) return;
  TimelineWindow& w = window_for(arrival_us);
  ++w.ops;
  if (ok) ++w.ok;
  if (is_read) ++w.reads; else ++w.writes;
  w.probes += probes;
  w.replica_drops += replica_drops;
  w.queue_max_us = std::max(w.queue_max_us, queue_us);
  w.latency.record(bounds_, latency_us);
}

double Timeline::window_quantile(const TimelineWindow& w, double q) const {
  return w.latency.snapshot({}, bounds_).quantile(q);
}

void Timeline::append_jsonl(std::string& out, const char* label_key,
                            double label_value) const {
  const double window_s = static_cast<double>(window_us_) / 1e6;
  for (const TimelineWindow& w : windows_) {
    JsonWriter json;
    json.begin_object();
    if (label_key != nullptr) json.kv(label_key, label_value);
    json.kv("t_us", w.start_us);
    json.kv("window_us", window_us_);
    json.kv("ops", w.ops);
    json.kv("ok", w.ok);
    json.kv("reads", w.reads);
    json.kv("writes", w.writes);
    json.kv("throughput_ops_per_s",
            window_s > 0.0 ? static_cast<double>(w.ops) / window_s : 0.0);
    json.kv("p50_us", window_quantile(w, 0.50));
    json.kv("p99_us", window_quantile(w, 0.99));
    json.kv("max_us", w.latency.max);
    json.kv("queue_max_us", w.queue_max_us);
    json.kv("probes", w.probes);
    json.kv("replica_drops", w.replica_drops);
    json.end_object();
    out += json.str();
    out += '\n';
  }
}

bool Timeline::write_jsonl(const std::string& path) const {
  std::string out;
  append_jsonl(out);
  return detail::write_text_file(path, out);
}

}  // namespace obs
}  // namespace sqs
