#include "obs/telemetry.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/recorder.h"
#include "obs/store.h"
#include "obs/trace.h"
#include "util/json.h"

namespace sqs {
namespace obs {

namespace detail {

std::atomic<unsigned> g_telemetry_flags{0};

Store& store() {
  static Store* s = new Store;
  return *s;
}

Shard& shard() {
  thread_local Shard s;
  return s;
}

void Shard::flush() {
  if (!dirty && events.empty()) return;
  Store& st = store();
  std::lock_guard<std::mutex> lock(st.mu);
  for (std::size_t i = 0; i < counters.size(); ++i)
    st.counter_totals[i] += counters[i];
  for (std::size_t i = 0; i < hists.size(); ++i)
    st.hist_totals[i].merge(hists[i]);
  counters.clear();
  hists.clear();
  dirty = false;
  for (TraceEvent& e : events) st.events.push_back(e);
  events.clear();
}

}  // namespace detail

void configure(const TelemetryConfig& config) {
  detail::Store& st = detail::store();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.config = config;
  }
  st.max_trace_events.store(config.max_trace_events, std::memory_order_relaxed);
  detail::set_flight_capacity(config.flight_events);
  const unsigned flags = (config.metrics ? 1u : 0u) |
                         (config.trace ? 2u : 0u) |
                         (config.recorder ? 4u : 0u);
  detail::g_telemetry_flags.store(flags, std::memory_order_relaxed);
}

TelemetryConfig current_config() {
  detail::Store& st = detail::store();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.config;
}

void Counter::add_slow(std::uint64_t delta) const {
  detail::Shard& s = detail::shard();
  if (s.counters.size() <= id_) s.counters.resize(id_ + 1, 0);
  s.counters[id_] += delta;
  s.dirty = true;
}

void Histogram::record_slow(std::uint64_t value) const {
  detail::Shard& s = detail::shard();
  if (s.hists.size() <= id_) s.hists.resize(id_ + 1);
  s.hists[id_].record(*bounds_, value);
  s.dirty = true;
}

void HistAccum::merge(const HistAccum& other) {
  if (other.count == 0) return;
  if (counts.size() < other.counts.size())
    counts.resize(other.counts.size(), 0);
  for (std::size_t b = 0; b < other.counts.size(); ++b)
    counts[b] += other.counts[b];
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

void HistAccum::reset() {
  std::fill(counts.begin(), counts.end(), 0);
  count = sum = max = 0;
  min = ~0ull;
}

HistogramSnapshot HistAccum::snapshot(
    std::string name, const std::vector<std::uint64_t>& bounds) const {
  return HistogramSnapshot{std::move(name), bounds, counts, count,
                           sum, count > 0 ? min : 0, max};
}

std::vector<std::uint64_t> pow2_bounds(int lo_exp, int hi_exp) {
  std::vector<std::uint64_t> bounds;
  for (int e = lo_exp; e <= hi_exp && e < 64; ++e)
    bounds.push_back(1ull << e);
  return bounds;
}

std::vector<std::uint64_t> linear_bounds(std::uint64_t lo, std::uint64_t hi,
                                         std::uint64_t step) {
  std::vector<std::uint64_t> bounds;
  if (step == 0) step = 1;
  for (std::uint64_t b = lo; b <= hi; b += step) bounds.push_back(b);
  return bounds;
}

Registry& Registry::instance() {
  static Registry* r = new Registry;
  return *r;
}

Counter Registry::counter(std::string_view name) {
  detail::Store& st = detail::store();
  std::lock_guard<std::mutex> lock(st.mu);
  auto [it, inserted] = st.counter_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(st.counter_names.size()));
  if (inserted) {
    st.counter_names.emplace_back(name);
    st.counter_totals.push_back(0);
  }
  return Counter(it->second);
}

Histogram Registry::histogram(std::string_view name,
                              std::vector<std::uint64_t> bounds) {
  detail::Store& st = detail::store();
  std::lock_guard<std::mutex> lock(st.mu);
  auto [it, inserted] = st.hist_ids.try_emplace(
      std::string(name), static_cast<std::uint32_t>(st.hist_names.size()));
  if (inserted) {
    st.hist_names.emplace_back(name);
    st.hist_bounds.push_back(std::move(bounds));
    st.hist_totals.emplace_back(st.hist_bounds.back().size());
  }
  return Histogram(it->second, &st.hist_bounds[it->second]);
}

void Registry::flush_thread() { detail::shard().flush(); }

MetricsSnapshot Registry::snapshot() {
  flush_thread();
  detail::Store& st = detail::store();
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    out.counters.reserve(st.counter_names.size() + 1);
    for (std::size_t i = 0; i < st.counter_names.size(); ++i)
      out.counters.emplace_back(st.counter_names[i], st.counter_totals[i]);
    out.histograms.reserve(st.hist_names.size());
    for (std::size_t i = 0; i < st.hist_names.size(); ++i)
      out.histograms.push_back(
          st.hist_totals[i].snapshot(st.hist_names[i], st.hist_bounds[i]));
  }
  const std::uint64_t dropped =
      st.events_dropped.load(std::memory_order_relaxed);
  if (dropped > 0) out.counters.emplace_back("obs.trace_events_dropped", dropped);
  const FlightRecorderStats recorder = flight_recorder_stats();
  if (recorder.recorded > 0) {
    out.counters.emplace_back("obs.recorder.events_recorded",
                              recorder.recorded);
    out.counters.emplace_back("obs.recorder.events_overwritten",
                              recorder.overwritten);
    out.counters.emplace_back("obs.recorder.dumps", recorder.dumps);
  }
  std::sort(out.counters.begin(), out.counters.end());
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::reset() {
  detail::Shard& s = detail::shard();
  s.counters.clear();
  s.hists.clear();
  s.dirty = false;
  detail::Store& st = detail::store();
  std::lock_guard<std::mutex> lock(st.mu);
  std::fill(st.counter_totals.begin(), st.counter_totals.end(), 0);
  for (HistAccum& t : st.hist_totals) t.reset();
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based; ceil so quantile(1.0) is the last.
  const double target = std::max(1.0, q * static_cast<double>(count));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t next = cum + counts[b];
    if (static_cast<double>(next) < target) {
      cum = next;
      continue;
    }
    // Bucket b covers (bounds[b-1], bounds[b]]; the overflow bucket's upper
    // edge is the recorded max. min/max tighten the outermost buckets.
    double lo = b == 0 ? static_cast<double>(min)
                       : static_cast<double>(bounds[b - 1]);
    double hi = b < bounds.size() ? static_cast<double>(bounds[b])
                                  : static_cast<double>(max);
    lo = std::max(lo, static_cast<double>(min));
    hi = std::min(hi, static_cast<double>(max));
    if (hi < lo) hi = lo;
    const double frac =
        (target - static_cast<double>(cum)) / static_cast<double>(counts[b]);
    return lo + frac * (hi - lo);
  }
  return static_cast<double>(max);  // unreachable when counts sum to count
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

void MetricsSnapshot::write_json(JsonWriter& json) const {
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : counters) json.kv(name, value);
  json.end_object();
  json.key("histograms").begin_object();
  for (const HistogramSnapshot& h : histograms) {
    json.key(h.name).begin_object();
    json.kv("count", h.count).kv("sum", h.sum).kv("min", h.min).kv("max", h.max);
    json.kv("p50", h.p50()).kv("p99", h.p99()).kv("p999", h.p999());
    json.key("buckets").begin_array();
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      json.begin_object();
      json.key("le");
      if (b < h.bounds.size()) {
        json.value(h.bounds[b]);
      } else {
        json.null();  // overflow bucket
      }
      json.kv("count", h.counts[b]).end_object();
    }
    json.end_array().end_object();
  }
  json.end_object();
  json.end_object();
}

namespace {

TelemetryArgs& mutable_telemetry_args() {
  static TelemetryArgs* args = new TelemetryArgs;
  return *args;
}

}  // namespace

std::uint64_t parse_flag_u64(const char* flag, const char* text,
                             std::uint64_t lo, std::uint64_t hi) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "%s: missing value\n", flag);
    return 0;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    std::fprintf(stderr, "%s: expected a decimal integer, got \"%s\"\n", flag,
                 text);
    return 0;
  }
  if (value < lo || value > hi) {
    std::fprintf(stderr, "%s: %llu out of range [%llu, %llu]\n", flag, value,
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return 0;
  }
  return static_cast<std::uint64_t>(value);
}

TelemetryArgs init_telemetry_from_args(int argc, char** argv) {
  TelemetryArgs& args = mutable_telemetry_args();
  args = TelemetryArgs{};
  // Flags taking a string path: complain when the value is missing instead
  // of silently ignoring the flag.
  auto take_path = [&](int& i, const char* flag, std::string& out) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing FILE value\n", flag);
      args.ok = false;
      return;
    }
    out = argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--metrics") == 0) {
      take_path(i, a, args.metrics_path);
    } else if (std::strcmp(a, "--trace") == 0) {
      take_path(i, a, args.trace_path);
    } else if (std::strcmp(a, "--trace-jsonl") == 0) {
      take_path(i, a, args.trace_jsonl_path);
    } else if (std::strcmp(a, "--timeline") == 0) {
      take_path(i, a, args.timeline_path);
    } else if (std::strcmp(a, "--timeline-window-ms") == 0) {
      const char* text = i + 1 < argc ? argv[++i] : nullptr;
      const std::uint64_t ms = parse_flag_u64(a, text, 1, 3600000);
      if (ms == 0) {
        args.ok = false;
      } else {
        args.timeline_window_us = ms * 1000;
      }
    } else if (std::strcmp(a, "--flight-recorder-events") == 0) {
      const char* text = i + 1 < argc ? argv[++i] : nullptr;
      const std::uint64_t events = parse_flag_u64(a, text, 64, 1u << 24);
      if (events == 0) {
        args.ok = false;
      } else {
        args.flight_events = events;
      }
    }
  }
  const bool tracing = !args.trace_path.empty() || !args.trace_jsonl_path.empty();
  if (tracing || !args.metrics_path.empty() || args.flight_events != 0) {
    TelemetryConfig config = current_config();
    // Metrics also turn on with --trace: span durations feed the histograms.
    config.metrics = config.metrics || tracing || !args.metrics_path.empty();
    config.trace = config.trace || tracing;
    config.flight_events = args.flight_events != 0 ? args.flight_events
                                                   : config.flight_events;
    configure(config);
  }
  return args;
}

const TelemetryArgs& telemetry_args() { return mutable_telemetry_args(); }

bool export_telemetry_files() {
  const TelemetryArgs& args = mutable_telemetry_args();
  bool ok = true;
  if (!args.metrics_path.empty()) {
    JsonWriter json;
    Registry::instance().snapshot().write_json(json);
    if (json.write_file(args.metrics_path)) {
      std::printf("[obs] metrics snapshot -> %s\n", args.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "[obs] metrics snapshot export failed: %s\n",
                   args.metrics_path.c_str());
      ok = false;
    }
  }
  if (!args.trace_path.empty()) {
    if (write_chrome_trace(args.trace_path)) {
      std::printf(
          "[obs] chrome trace (load in chrome://tracing or Perfetto) -> %s\n",
          args.trace_path.c_str());
    } else {
      std::fprintf(stderr, "[obs] chrome trace export failed: %s\n",
                   args.trace_path.c_str());
      ok = false;
    }
  }
  if (!args.trace_jsonl_path.empty()) {
    if (write_trace_jsonl(args.trace_jsonl_path)) {
      std::printf("[obs] trace JSONL -> %s\n", args.trace_jsonl_path.c_str());
    } else {
      std::fprintf(stderr, "[obs] trace JSONL export failed: %s\n",
                   args.trace_jsonl_path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace obs
}  // namespace sqs
