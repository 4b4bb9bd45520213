// Allocation regression test for the simulator's event loop and client.
//
// Replaces the global operator new/delete with counting versions, so it is
// its own executable and is not built under sanitizers (which interpose the
// allocator themselves). After a warm-up run, one single-threaded register
// experiment over each builtin OPT_d(12,2) chaos scenario must average at
// most kMaxAllocsPerOp heap allocations per simulated op: the event queue,
// the closures and the per-client operation slots reach their peak sizes
// early and are reused from then on. A bare event loop whose fixed-delay
// lane never empties must allocate nothing at all once warm: the lane is a
// ring that wraps, not a buffer that only grows.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/constructions.h"
#include "faults/chaos.h"
#include "faults/fault_plan.h"
#include "sim/harness.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sqs {
namespace {

constexpr double kMaxAllocsPerOp = 4.0;

TEST(SimAllocations, ChaosScenarioAveragesAtMostFourPerOp) {
  const OptDFamily family(12, 2);
  for (const ChaosScenario& scenario : builtin_chaos_scenarios(family)) {
    // The scenarios over the family passed in; the ones that bring their
    // own family or a membership timeline need run_chaos to expand them.
    if (!scenario.family.empty() || !scenario.churn.empty()) continue;
    run_register_experiment(family, scenario.config);  // warm-up

    const long before = g_allocations.load(std::memory_order_relaxed);
    const RegisterExperimentResult r =
        run_register_experiment(family, scenario.config);
    const long allocations =
        g_allocations.load(std::memory_order_relaxed) - before;

    const long ops = r.reads_attempted + r.writes_attempted;
    ASSERT_GT(ops, 1000) << scenario.name;
    const double per_op =
        static_cast<double>(allocations) / static_cast<double>(ops);
    std::printf("  %-16s %7ld ops  %8ld allocations  %.3f per op\n",
                scenario.name.c_str(), ops, allocations, per_op);
    EXPECT_LE(per_op, kMaxAllocsPerOp) << scenario.name;
  }
}

TEST(SimAllocations, NeverEmptyFixedDelayLaneAllocatesNothingOnceWarm) {
  // 100 tickers, each rescheduling itself 0.25 s ahead, so the lane bound to
  // 0.25 always holds ~100 keys; a counter stops them after 10^6 events
  // past the warm-up. Every tenth tick also queues a random-delay event in
  // the heap, so both queues cycle.
  constexpr long kWarmUp = 10'000;
  constexpr long kEvents = 1'000'000;
  Simulator sim;
  Rng rng(7);
  long remaining = kWarmUp + kEvents;
  struct Tick {
    Simulator* sim;
    Rng* rng;
    long* remaining;
    void operator()() const {
      if (--*remaining <= 0) return;
      sim->schedule(0.25, *this);
      if (*remaining % 10 == 0) sim->schedule(rng->next_double() * 0.25, [] {});
    }
  };
  for (int i = 0; i < 100; ++i)
    sim.schedule(0.25, Tick{&sim, &rng, &remaining});
  while (remaining > kEvents) sim.run_until(sim.now() + 0.25);

  const long before = g_allocations.load(std::memory_order_relaxed);
  const std::uint64_t executed_before = sim.executed_events();
  sim.run();
  const long allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GE(sim.executed_events() - executed_before,
            static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(allocations, 0);
}

}  // namespace
}  // namespace sqs
