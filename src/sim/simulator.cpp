#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/telemetry.h"

namespace sqs {

namespace {

// Event-loop telemetry: queue depth at each pop, and how long (in simulated
// microseconds) each event sat between schedule() and execution — the
// scheduled-vs-executed lag that separates immediate callbacks from long
// timeout horizons.
struct SimMetrics {
  obs::Counter scheduled =
      obs::Registry::instance().counter("sim.events_scheduled");
  obs::Counter executed =
      obs::Registry::instance().counter("sim.events_executed");
  obs::Histogram queue_depth = obs::Registry::instance().histogram(
      "sim.queue_depth", obs::pow2_bounds(0, 20));
  obs::Histogram event_wait_us = obs::Registry::instance().histogram(
      "sim.event_wait_us", obs::pow2_bounds(0, 30));

  static const SimMetrics& get() {
    static const SimMetrics metrics;
    return metrics;
  }
};

}  // namespace

void Simulator::schedule(double delay, SimCallback fn) {
  assert(delay >= 0.0);
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(Key{now_ + delay, now_, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  peak_pending_ = std::max(peak_pending_, heap_.size());
  if (obs::metrics_enabled()) SimMetrics::get().scheduled.add();
}

void Simulator::run_next() {
  if (obs::metrics_enabled()) {
    const SimMetrics& metrics = SimMetrics::get();
    metrics.executed.add();
    metrics.queue_depth.record(heap_.size());
    const double wait_us = (heap_.front().time - heap_.front().sched_at) * 1e6;
    metrics.event_wait_us.record(
        wait_us > 0.0 ? static_cast<std::uint64_t>(wait_us) : 0);
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.time;
  ++executed_events_;
  SimCallback fn = std::move(slots_[key.slot]);
  free_.push_back(key.slot);
  fn();
}

void Simulator::run_until(double deadline) {
  while (!heap_.empty() && heap_.front().time <= deadline) run_next();
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  while (!heap_.empty()) run_next();
}

}  // namespace sqs
