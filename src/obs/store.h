// Private shared state of the telemetry layer (telemetry.cpp + trace.cpp).
// Not installed as API; include only from src/obs implementation files.
//
// Ownership discipline: a Shard is strictly thread-local — only its owner
// thread ever reads or writes it — and the Store's aggregate state is only
// touched under Store::mu. The one cross-thread fast-path signal is the pair
// of relaxed atomics (event cap / dropped count), which never carries data.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {
namespace obs {
namespace detail {

struct Store {
  std::mutex mu;

  // Metric definitions + merged totals (all guarded by mu). Bounds live in a
  // deque so registered Histogram handles can keep stable pointers.
  std::unordered_map<std::string, std::uint32_t> counter_ids;
  std::vector<std::string> counter_names;
  std::vector<std::uint64_t> counter_totals;
  std::unordered_map<std::string, std::uint32_t> hist_ids;
  std::vector<std::string> hist_names;
  std::deque<std::vector<std::uint64_t>> hist_bounds;
  std::vector<HistAccum> hist_totals;

  // Flushed trace events (guarded by mu).
  std::vector<TraceEvent> events;

  TelemetryConfig config;  // guarded by mu; flags mirrored in the atomic

  // Fast-path trace bookkeeping (relaxed atomics, data-free).
  std::atomic<std::uint64_t> event_count{0};  // buffered anywhere
  std::atomic<std::uint64_t> events_dropped{0};
  std::atomic<std::uint64_t> max_trace_events{1u << 20};
  std::atomic<std::uint32_t> next_tid{1};

  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

// Leaked singleton: must outlive thread_local Shard destructors that flush
// into it during program teardown.
Store& store();

struct Shard {
  std::vector<std::uint64_t> counters;  // by counter id
  std::vector<HistAccum> hists;         // by histogram id, sized lazily
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;  // assigned from Store::next_tid on first event
  bool dirty = false;

  ~Shard() { flush(); }
  // Merges everything into the Store under its mutex, then clears.
  void flush();
};

Shard& shard();

}  // namespace detail
}  // namespace obs
}  // namespace sqs
