// A minimal discrete-event simulator.
//
// Time is a double (seconds). Events are closures ordered by (time, seq);
// the seq tiebreak makes execution deterministic for equal timestamps. The
// wide-area harness (network, servers, clients) runs entirely on top of
// this loop, so every simulated experiment is reproducible from its seed.
//
// The loop allocates nothing per event once it has reached its peak queue
// depth. A queued event is a 16-byte key {time, seq << 24 | slot}; the slot
// names an entry in a pool of inline closures (sim/inline_function.h)
// recycled through a free list. Slot numbers never affect order: seqs are
// unique, so comparing the packed word compares seq alone, and reuse in any
// order keeps equal-time events FIFO.
//
// Keys wait in one of two places. Events whose delay repeats exactly (a
// fixed probe timeout, a fixed service time) go to a FIFO lane bound to
// that delay: now() never decreases and IEEE addition is monotone, so
// now() + delay never decreases either, and with seq rising a lane fills
// already sorted by (time, seq). Every other event goes to a binary heap.
// The next event is the earliest of the heap top and the lane heads under
// the same (time, seq) compare, so events run in exactly the order one
// heap over all of them would give.

#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/inline_function.h"

namespace sqs {

// An event's action; captures must fit InlineFunction::kCapacity.
using SimCallback = InlineFunction<void()>;

class Simulator {
 public:
  Simulator();

  double now() const { return now_; }

  // Schedules fn to run `delay` seconds from now (delay >= 0).
  void schedule(double delay, SimCallback fn);

  // Runs events until the queue drains or `deadline` passes (events at
  // exactly `deadline` still run).
  void run_until(double deadline);

  // Runs until the queue drains.
  void run();

  std::size_t pending_events() const { return pending_; }

  // Event-loop statistics, so harnesses can report queue behaviour without
  // reaching into the internals: totals over the simulator's lifetime.
  std::uint64_t scheduled_events() const { return next_seq_; }
  std::uint64_t executed_events() const { return executed_events_; }
  std::size_t peak_pending_events() const { return peak_pending_; }

 private:
  // What orders an event: its time, then `order` = seq << kSlotBits | slot.
  // Sift steps copy these 16 bytes, never the closure.
  struct Key {
    double time;
    std::uint64_t order;
  };
  // (time, seq) order, evaluated without short-circuit branches.
  static bool earlier(const Key& a, const Key& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.order < b.order));
  }

  // A FIFO of keys scheduled with one exact delay: a power-of-two ring
  // buffer that wraps, so a lane that never empties reuses its storage.
  struct Lane {
    double delay = std::numeric_limits<double>::quiet_NaN();  // matches none
    std::vector<Key> ring;
    std::uint32_t head = 0;
    std::uint32_t size = 0;

    const Key& front() const { return ring[head]; }
    void push(const Key& key);
    void pop() {
      head = (head + 1) & static_cast<std::uint32_t>(ring.size() - 1);
      --size;
    }
  };

  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (1ull << (64 - kSlotBits)) - 1;
  static constexpr int kLanes = 4;
  // Recently seen heap delays, by hash: a delay earns a lane on a repeat.
  static constexpr int kRecentBits = 4;
  static constexpr std::size_t kInitialCapacity = 1024;
  // Where the earliest event waits: a lane index, kHeap, or kNone (empty).
  static constexpr int kHeap = kLanes;
  static constexpr int kNone = kLanes + 1;

  // The lane bound to `delay`, binding a vacant lane if the delay repeats;
  // nullptr sends the event to the heap.
  Lane* lane_for(double delay);
  void heap_push(const Key& key);
  void heap_pop();
  // The queue whose front is the earliest event (kNone if all are empty).
  int earliest() const;
  const Key& front(int queue) const {
    return queue == kHeap ? heap_.front()
                          : lanes_[static_cast<std::size_t>(queue)].front();
  }
  // Removes the front of `queue`, advances the clock, frees its slot and
  // runs its closure (moved out first, so the closure may schedule into the
  // slot it vacated).
  void run_next(int queue);

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_events_ = 0;
  std::size_t pending_ = 0;  // heap plus lanes
  std::size_t peak_pending_ = 0;
  std::vector<Key> heap_;
  std::array<Lane, kLanes> lanes_;
  std::array<std::uint64_t, 1u << kRecentBits> recent_;
  std::vector<SimCallback> slots_;
  std::vector<double> sched_at_;     // per slot: clock value at schedule()
  std::vector<std::uint32_t> free_;  // vacant indices into slots_
};

}  // namespace sqs
