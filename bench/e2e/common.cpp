#include <sys/resource.h>

#include <cstdio>

#include "bench.h"
#include "obs/trace.h"
#include "util/json.h"

namespace sqs::e2e {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t fnv1a_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::uint64_t w : words)
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  return h;
}

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

double Metrics::get(const std::string& name) const {
  const Metric* m = find(name);
  return m != nullptr ? m->value : 0.0;
}

Spans& Spans::get() {
  static Spans spans;
  return spans;
}

int Spans::begin(const char* name, int rep) {
  Span span;
  span.name = name;
  span.start_ns = obs::trace_now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.rep = rep;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = obs::trace_now_ns();
  // Spans are scoped, so the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Spans::write_chrome_trace(const std::string& path) const {
  JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.begin_object()
        .kv("name", s.name)
        .kv("cat", "e2e")
        .kv("ph", "X")
        .kv("ts", static_cast<double>(s.start_ns) * 1e-3)
        .kv("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        .kv("pid", 1)
        .kv("tid", 1);
    json.key("args")
        .begin_object()
        .kv("id", static_cast<std::uint64_t>(i))
        .kv("parent", s.parent)
        .kv("workload", workload_)
        .kv("rep", s.rep)
        .end_object();
    json.end_object();
  }
  json.end_array();
  json.kv("displayTimeUnit", "ms");
  json.end_object();
  return json.write_file(path);
}

}  // namespace sqs::e2e
