// Allocation regression test for the served path's reply stream.
//
// Replaces the global operator new with a version that records the
// largest single allocation, so it is its own executable and is not built
// under sanitizers (which interpose the allocator themselves). serve()
// without a reply stream encodes each batch into its ring slot and folds
// it into the fingerprint there: no allocation inside the call may reach
// the size of the whole stream (requests x kReplyWireSize), at 1 and at 4
// threads. A call that asks for the stream is the positive control.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/constructions.h"
#include "service/load_gen.h"
#include "service/message.h"
#include "service/runner.h"

namespace {

std::atomic<bool> g_watching{false};
std::atomic<std::size_t> g_largest{0};

void* watched_alloc(std::size_t size) {
  if (g_watching.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = watched_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = watched_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return watched_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return watched_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sqs {
namespace {

// The largest single allocation made during serve(requests, replies_out).
std::size_t largest_allocation_in_serve(ServiceRunner& runner,
                                        const std::vector<std::uint8_t>& requests,
                                        std::vector<std::uint8_t>* replies_out) {
  g_largest.store(0);
  g_watching.store(true);
  runner.serve(requests, replies_out);
  g_watching.store(false);
  return g_largest.load();
}

TEST(ServiceAllocations, NoAllocationReachesTheReplyStreamSize) {
  const OptDFamily family(12, 2);
  LoadGenConfig load;
  load.rate = 750.0;
  load.duration = 40.0;  // 30000 ops
  load.read_fraction = 0.2;
  load.num_clients = 64;
  const std::vector<std::uint8_t> requests = generate_load(load);
  const std::size_t stream_bytes =
      requests.size() / kRequestWireSize * kReplyWireSize;
  for (const int threads : {1, 4}) {
    ServiceConfig config;
    config.threads = threads;
    config.plan.server_partition(10.0, 0, 20.0);
    ServiceRunner runner(family, config);
    const std::size_t largest =
        largest_allocation_in_serve(runner, requests, nullptr);
    std::printf("  threads %d: largest allocation %zu bytes, stream %zu\n",
                threads, largest, stream_bytes);
    EXPECT_LT(largest, stream_bytes) << "threads " << threads;

    ServiceRunner control(family, config);
    std::vector<std::uint8_t> replies;
    EXPECT_GE(largest_allocation_in_serve(control, requests, &replies),
              stream_bytes)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace sqs
