#include "runtime/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

namespace {

// Scheduling telemetry: how long a thread waits between finishing one chunk
// and claiming the next (steal latency), how deep the unclaimed pile is at
// each claim (queue occupancy), and which CPU made each claim (placement:
// one bucket per CPU id below kClaimCpuBuckets; higher ids and a failed
// sched_getcpu() land in the overflow bucket). Chunk wall time itself is
// recorded by run_trials, which knows the trial ranges.
constexpr std::uint64_t kClaimCpuBuckets = 256;

struct PoolMetrics {
  obs::Counter batches = obs::Registry::instance().counter("runtime.batches");
  obs::Histogram steal_ns = obs::Registry::instance().histogram(
      "runtime.steal_ns", obs::pow2_bounds(6, 30));
  obs::Histogram queue_depth = obs::Registry::instance().histogram(
      "runtime.queue_depth", obs::pow2_bounds(0, 16));
  obs::Histogram claim_cpu = obs::Registry::instance().histogram(
      "runtime.claim_cpu", obs::linear_bounds(0, kClaimCpuBuckets - 1, 1));

  static const PoolMetrics& get() {
    static const PoolMetrics metrics;
    return metrics;
  }
};

std::atomic<int> g_default_threads{0};

thread_local bool tl_inside_worker = false;

int env_threads() { return parse_thread_count(std::getenv("SQS_THREADS")); }

}  // namespace

int parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  // strtol would skip leading whitespace; a full-string integer must not.
  if (std::isspace(static_cast<unsigned char>(*text))) return 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0 || v > 4096) return 0;
  return static_cast<int>(v);
}

int default_threads() {
  const int pinned = g_default_threads.load(std::memory_order_relaxed);
  if (pinned > 0) return pinned;
  const int env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_default_threads(int n) {
  g_default_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

int init_threads_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      value = argv[i + 1];
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      value = argv[i] + 10;
    } else {
      continue;
    }
    const int v = parse_thread_count(value);
    if (v > 0) {
      set_default_threads(v);
      return v;
    }
    std::fprintf(stderr,
                 "[sqs] ignoring invalid --threads value '%s' "
                 "(expected an integer in 1..4096)\n",
                 value);
  }
  return 0;
}

ThreadPool& ThreadPool::global(int min_workers) {
  // Leaked deliberately: workers must outlive any static whose destructor
  // might still submit work during program teardown.
  static ThreadPool* pool = new ThreadPool(0);
  pool->ensure_workers(min_workers);
  return *pool;
}

ThreadPool::ThreadPool(int workers) { ensure_workers(workers); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::ensure_workers(int workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < workers)
    threads_.emplace_back([this] { worker_loop(); });
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

bool ThreadPool::inside_worker() { return tl_inside_worker; }

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (generation_ != seen_generation && slots_ > 0);
    });
    if (stop_) return;
    seen_generation = generation_;
    --slots_;
    ++running_;
    lock.unlock();
    tl_inside_worker = true;
    run_chunks();
    tl_inside_worker = false;
    lock.lock();
    if (--running_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks() {
  // Captured once so the steal/queue metrics of a batch are all-or-nothing;
  // chunk callbacks re-check the flag per chunk, which is why the final
  // flush below must NOT be gated on this capture.
  const bool telemetry = obs::telemetry_enabled();
  std::uint64_t last_done_ns = telemetry ? obs::trace_now_ns() : 0;
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) break;
    const std::uint64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (c >= num_chunks_) break;
    if (telemetry) {
      const PoolMetrics& metrics = PoolMetrics::get();
      const std::uint64_t now = obs::trace_now_ns();
      metrics.steal_ns.record(now - last_done_ns);
      metrics.queue_depth.record(num_chunks_ - c - 1);
      const int cpu = sched_getcpu();
      metrics.claim_cpu.record(cpu < 0 ? kClaimCpuBuckets
                                       : static_cast<std::uint64_t>(cpu));
    }
    try {
      (*fn_)(c);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (c < error_chunk_) {
        error_chunk_ = c;
        error_ = std::current_exception();
      }
      abort_.store(true, std::memory_order_relaxed);
    }
    if (telemetry) last_done_ns = obs::trace_now_ns();
  }
  // Scope-exit merge of this thread's telemetry shard: by the time the
  // caller observes the batch as finished, every worker's metrics and trace
  // events are in the global registry (the determinism contract of
  // obs::Registry — integer merges, order-independent). Unconditional: a
  // configure() that enabled telemetry mid-batch dirtied shards even though
  // the captured flag above is false, and flush_thread() is a no-op on a
  // clean shard anyway.
  obs::Registry::flush_thread();
}

void ThreadPool::for_each_chunk(std::uint64_t num_chunks, int max_threads,
                                const std::function<void(std::uint64_t)>& fn) {
  if (num_chunks == 0) return;
  PoolMetrics::get().batches.add();
  obs::Span batch_span("runtime", "batch");
  batch_span.arg("chunks", num_chunks);
  batch_span.arg("max_threads", static_cast<std::uint64_t>(max_threads));
  std::lock_guard<std::mutex> batch_lock(batch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    num_chunks_ = num_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    abort_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    error_chunk_ = ~0ull;
    int worker_cap = std::max(max_threads - 1, 0);
    if (static_cast<std::uint64_t>(worker_cap) > num_chunks)
      worker_cap = static_cast<int>(num_chunks);
    slots_ = std::min(worker_cap, static_cast<int>(threads_.size()));
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller is a full participant; it also shields nested run_trials
  // calls from re-entering the pool (they run inline).
  const bool was_inside = tl_inside_worker;
  tl_inside_worker = true;
  run_chunks();
  tl_inside_worker = was_inside;

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Close the batch: workers that have not joined yet never will, so
    // waiting for running_ == 0 cannot miss a late joiner.
    slots_ = 0;
    done_cv_.wait(lock, [&] { return running_ == 0; });
    error = error_;
    fn_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sqs
