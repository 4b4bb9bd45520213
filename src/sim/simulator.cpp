#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

// Seq and slot share one key word; running out of either must stop the run
// rather than wrap into a wrong order. Stays on in Release.
[[noreturn]] void queue_overflow(const char* what) {
  std::fprintf(stderr, "Simulator: %s overflow in the event queue key\n",
               what);
  std::abort();
}

}  // namespace

Simulator::Simulator() {
  heap_.reserve(kInitialCapacity);
  slots_.reserve(kInitialCapacity);
  sched_at_.reserve(kInitialCapacity);
  free_.reserve(kInitialCapacity);
  recent_.fill(~0ull);  // a NaN pattern no non-negative delay has
}

void Simulator::Lane::push(const Key& key) {
  if (size == ring.size()) {
    // Full: unroll into a ring twice the size, oldest key first.
    std::vector<Key> grown(std::max<std::size_t>(64, 2 * ring.size()));
    for (std::uint32_t i = 0; i < size; ++i)
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = key;
  ++size;
}

Simulator::Lane* Simulator::lane_for(double delay) {
  for (Lane& lane : lanes_)
    if (lane.delay == delay) return &lane;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &delay, sizeof bits);
  std::uint64_t& seen =
      recent_[(bits * 0x9E3779B97F4A7C15ull) >> (64 - kRecentBits)];
  if (seen != bits) {
    seen = bits;
    return nullptr;
  }
  // A repeat: rebind an empty lane. Its keys all share the new delay, so
  // they stay sorted; keys this delay already put in the heap stay there.
  for (Lane& lane : lanes_) {
    if (lane.size == 0) {
      lane.delay = delay;
      return &lane;
    }
  }
  return nullptr;
}

void Simulator::schedule(double delay, SimCallback fn) {
  assert(delay >= 0.0);
  if (next_seq_ > kMaxSeq) queue_overflow("event sequence");
  std::uint32_t slot;
  if (free_.empty()) {
    if (slots_.size() > kSlotMask) queue_overflow("pending-event slot");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
    sched_at_.push_back(now_);
  } else {
    slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(fn);
    sched_at_[slot] = now_;
  }
  const Key key{now_ + delay, next_seq_++ << kSlotBits | slot};
  if (Lane* lane = lane_for(delay)) {
    lane->push(key);
  } else {
    heap_push(key);
  }
  peak_pending_ = std::max(peak_pending_, ++pending_);
  if (obs::metrics_enabled()) SimMetrics::get().scheduled.add();
}

void Simulator::heap_push(const Key& key) {
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

void Simulator::heap_pop() {
  // Floyd: walk the hole from the root down to a leaf, always promoting the
  // earlier child, then sift the last key up from there. The walk makes one
  // compare per level, not two.
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  Key* h = heap_.data();
  std::size_t hole = 0;
  std::size_t child = 1;
  while (child + 1 < n) {
    child += earlier(h[child + 1], h[child]);
    h[hole] = h[child];
    hole = child;
    child = 2 * hole + 1;
  }
  if (child < n) {
    h[hole] = h[child];
    hole = child;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!earlier(last, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
}

int Simulator::earliest() const {
  int best = heap_.empty() ? kNone : kHeap;
  const Key* key = heap_.empty() ? nullptr : &heap_.front();
  for (int i = 0; i < kLanes; ++i) {
    const Lane& lane = lanes_[static_cast<std::size_t>(i)];
    if (lane.size == 0) continue;
    if (key == nullptr || earlier(lane.front(), *key)) {
      best = i;
      key = &lane.front();
    }
  }
  return best;
}

void Simulator::run_next(int queue) {
  const Key key = front(queue);
  const auto slot = static_cast<std::uint32_t>(key.order & kSlotMask);
  if (obs::metrics_enabled()) {
    const SimMetrics& metrics = SimMetrics::get();
    metrics.executed.add();
    metrics.queue_depth.record(pending_);
    const double wait_us = (key.time - sched_at_[slot]) * 1e6;
    metrics.event_wait_us.record(
        wait_us > 0.0 ? static_cast<std::uint64_t>(wait_us) : 0);
  }
  if (queue == kHeap) {
    heap_pop();
  } else {
    lanes_[static_cast<std::size_t>(queue)].pop();
  }
  --pending_;
  now_ = key.time;
  ++executed_events_;
  SimCallback fn = std::move(slots_[slot]);
  free_.push_back(slot);
  fn();
}

void Simulator::run_until(double deadline) {
  for (int queue = earliest(); queue != kNone && front(queue).time <= deadline;
       queue = earliest())
    run_next(queue);
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run() {
  for (int queue = earliest(); queue != kNone; queue = earliest())
    run_next(queue);
}

}  // namespace sqs
