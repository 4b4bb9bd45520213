// A minimal discrete-event simulator.
//
// Time is a double (seconds). Events are closures ordered by (time, seq);
// the seq tiebreak makes execution deterministic for equal timestamps. The
// wide-area harness (network, servers, clients) runs entirely on top of
// this loop, so every simulated experiment is reproducible from its seed.
//
// The loop allocates nothing per event once it has reached its peak queue
// depth: the heap orders trivially copyable keys, and each key names a slot
// in a pool of inline closures (sim/inline_function.h) recycled through a
// free list. Slot numbers never affect order — (time, seq) alone does — so
// reuse in any order keeps equal-time events FIFO.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_function.h"

namespace sqs {

// An event's action; captures must fit InlineFunction::kCapacity.
using SimCallback = InlineFunction<void()>;

class Simulator {
 public:
  Simulator() {
    heap_.reserve(kInitialCapacity);
    slots_.reserve(kInitialCapacity);
    free_.reserve(kInitialCapacity);
  }

  double now() const { return now_; }

  // Schedules fn to run `delay` seconds from now (delay >= 0).
  void schedule(double delay, SimCallback fn);

  // Runs events until the queue drains or `deadline` passes (events at
  // exactly `deadline` still run).
  void run_until(double deadline);

  // Runs until the queue drains.
  void run();

  std::size_t pending_events() const { return heap_.size(); }

  // Event-loop statistics, so harnesses can report queue behaviour without
  // reaching into the internals: totals over the simulator's lifetime.
  std::uint64_t scheduled_events() const { return next_seq_; }
  std::uint64_t executed_events() const { return executed_events_; }
  std::size_t peak_pending_events() const { return peak_pending_; }

 private:
  // A heap entry: what orders the event, and the pool slot holding its
  // closure. Sift steps copy these 32 bytes, never the closure.
  struct Key {
    double time;
    double sched_at;  // clock value when schedule() was called
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Orders the heap so the earliest (time, seq) event is at the front.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr std::size_t kInitialCapacity = 1024;

  // Removes the earliest event, advances the clock, frees its slot and
  // runs its closure (moved out first, so the closure may schedule into the
  // slot it vacated).
  void run_next();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_events_ = 0;
  std::size_t peak_pending_ = 0;
  std::vector<Key> heap_;
  std::vector<SimCallback> slots_;
  std::vector<std::uint32_t> free_;  // vacant indices into slots_
};

}  // namespace sqs
