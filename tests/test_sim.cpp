#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <queue>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/composition.h"
#include "core/constructions.h"
#include "sim/client.h"
#include "sim/harness.h"
#include "sim/network.h"
#include "sim/register_core.h"
#include "sim/replica.h"
#include "sim/simulator.h"
#include "uqs/majority.h"
#include "util/rng.h"

namespace sqs {
namespace {

// ---- event loop ----

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EventLoopObservabilityCounters) {
  Simulator sim;
  EXPECT_EQ(sim.scheduled_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.peak_pending_events(), 0u);
  for (int i = 0; i < 4; ++i) sim.schedule(1.0 + i, [] {});
  EXPECT_EQ(sim.scheduled_events(), 4u);
  EXPECT_EQ(sim.peak_pending_events(), 4u);  // all queued before any ran
  sim.run_until(2.5);
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 4u);
  EXPECT_EQ(sim.peak_pending_events(), 4u);  // peak is sticky
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedSchedulingAndDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });       // t=2, within deadline
    sim.schedule(10.0, [&] { fired += 100; }); // t=11, beyond deadline
  });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EqualTimestampsRunFifoWhenSlotsAreRecycledOutOfOrder) {
  Simulator sim;
  std::vector<int> order;
  // Occupy slots 0..3, then free 1 and 3 (t=1, t=2) while 0 and 2 stay
  // queued: the next events reuse slot 3, then slot 1, then fresh ones.
  sim.schedule(9.0, [&] { order.push_back(-1); });
  sim.schedule(1.0, [] {});
  sim.schedule(9.0, [&] { order.push_back(-2); });
  sim.schedule(2.0, [] {});
  sim.run_until(2.5);
  ASSERT_EQ(sim.pending_events(), 2u);
  for (int i = 0; i < 6; ++i)
    sim.schedule(1.0, [&order, i] { order.push_back(i); });
  // Events scheduled from inside an equal-time event queue behind it.
  sim.schedule(1.0, [&] {
    order.push_back(6);
    sim.schedule(0.0, [&] { order.push_back(8); });
  });
  sim.schedule(1.0, [&] { order.push_back(7); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, -1, -2}));
}

TEST(Simulator, ClosuresWithOwningCapturesAreMovedAndDestroyed) {
  auto token = std::make_shared<int>(7);
  int seen = 0;
  {
    Simulator sim;
    sim.schedule(1.0, [token, &seen] { seen = *token; });
    sim.schedule(5.0, [token, &seen] { seen = -*token; });
    // Grow the pool past its reserve so the queued closures are relocated.
    for (int i = 0; i < 2000; ++i) sim.schedule(2.0, [] {});
    EXPECT_EQ(token.use_count(), 3);
    sim.run_until(3.0);
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(token.use_count(), 2);  // the run closure was destroyed
  }
  EXPECT_EQ(token.use_count(), 1);  // so was the never-run one
}

// ---- differential queue test ----

// The order the simulator must reproduce: one std::priority_queue over
// every pending event, earliest (time, seq) first.
class ReferenceQueue {
 public:
  double now() const { return now_; }
  template <typename F>
  void schedule(double delay, F&& fn) {
    queue_.push(Entry{now_ + delay, next_seq_++, fns_.size()});
    fns_.emplace_back(std::forward<F>(fn));
    peak_ = std::max(peak_, queue_.size());
  }
  void run_until(double deadline) {
    while (!queue_.empty() && queue_.top().time <= deadline) run_next();
    if (now_ < deadline) now_ = deadline;
  }
  void run() {
    while (!queue_.empty()) run_next();
  }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t scheduled_events() const { return next_seq_; }
  std::uint64_t executed_events() const { return executed_; }
  std::size_t peak_pending_events() const { return peak_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    std::size_t fn;
    bool operator<(const Entry& other) const {  // "runs later than"
      return std::tie(time, seq) > std::tie(other.time, other.seq);
    }
  };
  void run_next() {
    const Entry e = queue_.top();
    queue_.pop();
    now_ = e.time;
    ++executed_;
    std::function<void()> fn = std::move(fns_[e.fn]);
    fn();
  }
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_ = 0;
  std::priority_queue<Entry> queue_;
  std::vector<std::function<void()>> fns_;
};

// What a queue observably did: each event's id, clock and queue depth as it
// ran, and the loop's counters after each run_until.
struct QueueTrace {
  std::vector<std::tuple<int, double, std::size_t>> events;
  std::vector<std::tuple<double, std::size_t, std::size_t, std::uint64_t,
                         std::uint64_t>>
      checkpoints;  // now, pending, peak, scheduled, executed
};

// A seeded random program: events that schedule children from inside, with
// delays drawn from six repeated values (more than there are lanes, so
// lanes are rebound), zero, a 1/64 grid (equal times across delays and
// against the repeated values on the same grid) and a continuous range.
// The outer loop adds top-level events between run_until calls, and half of
// its deadlines land exactly on a queued event's time.
template <typename Queue>
QueueTrace run_queue_program(std::uint64_t seed, std::size_t target) {
  static constexpr double kRepeated[] = {0.25, 0.001, 0.5, 0.1, 0.0625, 0.75};
  struct Program {
    Queue queue;
    Rng rng;
    std::size_t target = 0;
    bool draining = false;
    int next_id = 0;
    QueueTrace trace;

    double pick_delay() {
      switch (rng.next_below(6)) {
        case 0:
        case 1:
        case 2:
          return kRepeated[rng.next_below(std::size(kRepeated))];
        case 3:
          return 0.0;
        case 4:
          return static_cast<double>(rng.next_below(64)) / 64.0;
        default:
          return rng.next_double() * 0.5;
      }
    }
    void spawn(double delay) {
      const int id = next_id++;
      queue.schedule(delay, [this, id] { fire(id); });
    }
    void fire(int id) {
      trace.events.emplace_back(id, queue.now(), queue.pending_events());
      if (draining) return;
      const std::uint64_t children =
          rng.next_below(queue.pending_events() < target ? 4 : 2);
      for (std::uint64_t c = 0; c < children; ++c) spawn(pick_delay());
    }
    void checkpoint() {
      trace.checkpoints.emplace_back(
          queue.now(), queue.pending_events(), queue.peak_pending_events(),
          queue.scheduled_events(), queue.executed_events());
    }
  };
  Program p;
  p.rng = Rng(seed);
  p.target = target;
  for (int round = 0; round < 60; ++round) {
    const std::uint64_t top_level = 1 + p.rng.next_below(8);
    for (std::uint64_t i = 0; i < top_level; ++i) p.spawn(p.pick_delay());
    double deadline;
    if (p.rng.bernoulli(0.5)) {
      // A marker event on the grid; the deadline is exactly its time.
      const double delay = static_cast<double>(1 + p.rng.next_below(32)) / 64.0;
      p.spawn(delay);
      deadline = p.queue.now() + delay;
    } else {
      deadline = p.queue.now() + p.rng.next_double() * 0.4;
    }
    p.queue.run_until(deadline);
    p.checkpoint();
  }
  p.draining = true;
  p.queue.run();
  p.checkpoint();
  return std::move(p.trace);
}

TEST(Simulator, MatchesAReferencePriorityQueueOnRandomPrograms) {
  for (const std::size_t target : {4u, 64u, 700u}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const QueueTrace want = run_queue_program<ReferenceQueue>(seed, target);
      const QueueTrace got = run_queue_program<Simulator>(seed, target);
      ASSERT_GT(want.events.size(), 100u);
      const std::size_t common = std::min(want.events.size(), got.events.size());
      std::size_t first_diff = common;
      for (std::size_t i = 0; i < common; ++i) {
        if (want.events[i] != got.events[i]) {
          first_diff = i;
          break;
        }
      }
      ASSERT_EQ(first_diff, common)
          << "seed " << seed << " target " << target << ": event "
          << first_diff << " is id " << std::get<0>(got.events[first_diff])
          << ", want id " << std::get<0>(want.events[first_diff]);
      EXPECT_EQ(got.events.size(), want.events.size()) << seed;
      EXPECT_EQ(got.checkpoints, want.checkpoints)
          << "seed " << seed << " target " << target;
    }
  }
}

// ---- client operation slots ----

// A network with no link failures and (almost) no jitter, so message
// timings below are exact to well under a millisecond: 20 ms per hop, 1 ms
// of service.
NetworkConfig steady_network() {
  NetworkConfig config;
  config.link_mean_up = 1e9;
  config.link_mean_down = 1e-9;
  config.base_latency = 0.02;
  config.jitter_mean = 1e-9;
  return config;
}

std::vector<Replica> steady_servers(int n) {
  ServerConfig config;
  config.mean_up = 1e9;
  config.mean_down = 1e-9;
  std::vector<Replica> servers;
  for (int i = 0; i < n; ++i)
    servers.emplace_back(i, config, Rng(100 + static_cast<std::uint64_t>(i)));
  return servers;
}

TEST(SimClient, StaleProbeReplyIsDroppedAfterItsSlotIsReused) {
  // OPT_a(4, 2) probes servers 0..3 in order and gives up after three
  // misses. Servers 0..2 are slow until t = 0.6, so op 1 misses all three
  // (timeouts at 0.25, 0.5, 0.75) and fails; op 2 starts at 0.75 in the
  // freed slot. Server 0 crashes at 0.6, so op 2's own probe of it times
  // out at 1.0 — but op 1's replies from servers 1 and 0, served before the
  // crash, land at 0.79 and 0.85 while that probe is pending. Both must be
  // dropped.
  Simulator sim;
  Network net(&sim, 1, 4, steady_network(), Rng(1));
  std::vector<Replica> servers = steady_servers(4);
  servers[0].set_gray(810.0, sim.now(), 0.6);
  servers[1].set_gray(500.0, sim.now(), 0.6);
  servers[2].set_gray(500.0, sim.now(), 0.6);
  sim.schedule(0.6, [&] { servers[0].force_crash(sim.now(), 100.0); });
  const OptAFamily family(4, 2);
  SimClient client(&sim, &net, &servers, 0, &family, ClientConfig{}, Rng(2));

  std::vector<OpResult> results;
  client.acquire([&](OpResult&& first) {
    results.push_back(std::move(first));
    sim.schedule(0.0, [&] {
      client.acquire(
          [&](OpResult&& second) { results.push_back(std::move(second)); });
    });
  });
  sim.run();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].acquired);
  EXPECT_EQ(results[0].probed.negative_count(), 3u);
  const OpResult& second = results[1];
  EXPECT_TRUE(second.acquired);
  EXPECT_EQ(second.num_probes, 4);
  EXPECT_FALSE(second.probed.has_positive(0));  // the stale reply
  EXPECT_TRUE(second.probed.has_negative(0));   // its own timeout
  for (int s = 1; s < 4; ++s) EXPECT_TRUE(second.probed.has_positive(s));
  EXPECT_NEAR(second.latency, 0.25 + 3 * 0.041, 1e-3);
}

TEST(SimClient, LateWriteAckIsIgnoredAfterPushTimeout) {
  // Write 1 acquires servers 0..3 by t = 0.164 and pushes to all four.
  // Server 3 turns slow at 0.17, so its ack (service 0.5 s) lands at 0.704,
  // after the push timeout (0.414) completed write 1 with three acks.
  // Write 2 starts at 0.414 in the freed slot, acquires all four again
  // (server 3 is fast from 0.52) and pushes at 0.578; server 3 crashes at
  // 0.58, so write 2's own push to it must time out. Write 1's late ack
  // arrives mid-push and must not count for write 2.
  Simulator sim;
  Network net(&sim, 1, 4, steady_network(), Rng(3));
  std::vector<Replica> servers = steady_servers(4);
  sim.schedule(0.17, [&] { servers[3].set_gray(500.0, sim.now(), 0.35); });
  sim.schedule(0.58, [&] { servers[3].force_crash(sim.now(), 100.0); });
  const OptAFamily family(4, 2);
  SimClient client(&sim, &net, &servers, 0, &family, ClientConfig{}, Rng(4));

  std::vector<OpResult> results;
  client.write(11, [&](OpResult&& first) {
    results.push_back(std::move(first));
    sim.schedule(0.0, [&] {
      client.write(
          22, [&](OpResult&& second) { results.push_back(std::move(second)); });
    });
  });
  sim.run();

  ASSERT_EQ(results.size(), 2u);  // each write completed exactly once
  for (const OpResult& w : results) {
    EXPECT_TRUE(w.ok);
    EXPECT_EQ(w.num_probes, 4);
    EXPECT_EQ(w.acks, 3);
  }
  EXPECT_EQ(results[0].value, 11u);
  EXPECT_EQ(results[1].value, 22u);
  // Write 1 resolved at its push timeout, 0.25 s after the push.
  EXPECT_NEAR(results[0].latency, 4 * 0.041 + 0.25, 1e-3);
  // Server 3 applied write 1 (only its ack was late) but not write 2.
  EXPECT_EQ(servers[3].timestamp(0).counter, results[0].timestamp.counter);
  EXPECT_EQ(servers[0].timestamp(0).counter, results[1].timestamp.counter);
}

// ---- network ----

TEST(Network, StationaryLinkDownRate) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_up = 9.0;
  config.link_mean_down = 1.0;  // stationary down = 0.1
  Network net(&sim, 1, 200, config, Rng(3));
  // Sample link states across time.
  int down = 0, samples = 0;
  for (int step = 0; step < 50; ++step) {
    sim.run_until(sim.now() + 5.0);
    for (int s = 0; s < 200; ++s) {
      if (!net.link_up(0, s)) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.1, 0.02);
}

TEST(Network, DeliversWithLatencyWhenUp) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_down = 1e-9;  // effectively never down
  config.link_mean_up = 1e9;
  config.base_latency = 0.05;
  Network net(&sim, 1, 1, config, Rng(5));
  bool delivered = false;
  double at = 0.0;
  net.send(0, 0, Network::Direction::kToServer, [&] {
    delivered = true;
    at = sim.now();
  });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_GE(at, 0.05);
}

TEST(Network, PartitionedClientLosesAllLinks) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Network net(&sim, 2, 4, config, Rng(7));
  net.transport().partition_client(0, sim.now(), 10.0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_FALSE(net.link_up(0, s));
    EXPECT_TRUE(net.link_up(1, s));
  }
  bool delivered = false;
  net.send(0, 1, Network::Direction::kToServer, [&] { delivered = true; });
  sim.run();
  EXPECT_FALSE(delivered);
}

TEST(Network, BlockLinkIsPerPairAndExpires) {
  Simulator sim;
  NetworkConfig config;
  config.link_mean_down = 1e-9;
  config.link_mean_up = 1e9;
  Network net(&sim, 2, 3, config, Rng(9));
  net.transport().block_link(0, 1, sim.now(), 5.0);
  EXPECT_TRUE(net.link_up(0, 0));
  EXPECT_FALSE(net.link_up(0, 1));
  EXPECT_TRUE(net.link_up(0, 2));
  EXPECT_TRUE(net.link_up(1, 1));  // other client unaffected
  sim.run_until(6.0);
  EXPECT_TRUE(net.link_up(0, 1));
}

// ---- servers ----

TEST(Replica, StationaryFailureRate) {
  Simulator sim;
  ServerConfig config;
  config.mean_up = 8.0;
  config.mean_down = 2.0;  // stationary p = 0.2
  int down = 0, samples = 0;
  std::vector<Replica> servers;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) servers.emplace_back(i, config, rng.split(i));
  for (int step = 0; step < 40; ++step) {
    sim.run_until(sim.now() + 3.0);
    for (auto& s : servers) {
      if (!s.up(sim.now())) ++down;
      ++samples;
    }
  }
  EXPECT_NEAR(static_cast<double>(down) / samples, 0.2, 0.03);
}

TEST(Timestamp, LexicographicOrdering) {
  // (counter, writer) pairs compare counter-first, writer as tie-break —
  // the standard ABD tag order every monotonicity invariant relies on.
  EXPECT_LT((Timestamp{1, 5}), (Timestamp{2, 0}));
  EXPECT_LT((Timestamp{3, 1}), (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{3, 2}) < (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{4, 0}) < (Timestamp{3, 9}));
  EXPECT_EQ((Timestamp{3, 2}), (Timestamp{3, 2}));
  EXPECT_FALSE((Timestamp{3, 2}) == (Timestamp{3, 1}));
  // The default tag is below every real write's tag.
  EXPECT_LT(Timestamp{}, (Timestamp{0, 0}));
  EXPECT_LT(Timestamp{}, (Timestamp{1, -1}));
}

TEST(Replica, WriteAdvancesTimestampMonotonically) {
  Simulator sim;
  ServerConfig config;
  config.mean_down = 1e-9;
  config.mean_up = 1e9;
  Replica server(0, config, Rng(13));
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{3, 1}, 30));
  EXPECT_EQ(server.value(), 30u);
  // Older write is acked but not applied.
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{2, 9}, 20));
  EXPECT_EQ(server.value(), 30u);
  // Equal counter, higher writer id wins the lexicographic order.
  EXPECT_TRUE(server.handle_write(sim.now(), Timestamp{3, 2}, 32));
  EXPECT_EQ(server.value(), 32u);
  const auto read = server.handle_read(sim.now());
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->second, 32u);
}

ServerConfig never_failing_server() {
  ServerConfig config;
  config.mean_down = 1e-9;
  config.mean_up = 1e9;
  return config;
}

TEST(Replica, FencedRequestIsNotADropButADownReplicaDrops) {
  Replica r(0, never_failing_server(), Rng(5));
  r.set_member(false);
  ASSERT_TRUE(r.fences_requests());
  EXPECT_FALSE(r.handle_read(1.0).has_value());
  EXPECT_FALSE(r.handle_write(1.0, Timestamp{1, 0}, 10));
  EXPECT_FALSE(r.serve_read(0, 1.0, 1.0).has_value());
  EXPECT_FALSE(r.serve_write(Timestamp{1, 0}, 10, 0, 1.0, 1.0).has_value());
  EXPECT_TRUE(r.serve_fence(1.0, 1.0).has_value());  // a fence is an answer
  EXPECT_EQ(r.dropped_requests(), 0u);
  EXPECT_TRUE(r.timestamp() == Timestamp{});  // no fenced write applied
  r.force_crash(2.0, 5.0);
  EXPECT_FALSE(r.handle_read(3.0).has_value());
  EXPECT_FALSE(r.serve_fence(3.0, 3.0).has_value());
  EXPECT_EQ(r.dropped_requests(), 2u);
}

TEST(Replica, MaxTimestampSurvivesAmnesiaAndCountsRegressions) {
  ServerConfig config;
  config.mean_up = 1.0;
  config.mean_down = 1.0;
  config.amnesia_on_recovery = true;
  Replica r(0, config, Rng(21));
  double t = 0.0;
  while (!r.up(t)) t += 0.01;
  ASSERT_TRUE(r.handle_write(t, Timestamp{7, 1}, 70));
  EXPECT_EQ(r.ts_regressions(), 0u);
  while (r.up(t)) t += 0.01;   // crash...
  while (!r.up(t)) t += 0.01;  // ...and recover with the state wiped
  EXPECT_TRUE(r.timestamp() == Timestamp{});
  EXPECT_TRUE(r.max_timestamp_seen() == (Timestamp{7, 1}));
  const auto read = r.handle_read(t);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->first == Timestamp{});
  EXPECT_EQ(r.ts_regressions(), 1u);
  ASSERT_TRUE(r.serve_read(0, t, t).has_value());  // served reads count too
  EXPECT_EQ(r.ts_regressions(), 2u);
  // State transfer back to the high-water mark ends the regression.
  r.adopt_state(Timestamp{7, 1}, 70);
  ASSERT_TRUE(r.handle_read(t).has_value());
  EXPECT_EQ(r.ts_regressions(), 2u);
}

TEST(Replica, KeepsOneCellPerObject) {
  // run_store_experiment addresses objects 0..k-1 in any order.
  const int k = 6;
  const auto ts_of = [](int object) {
    return Timestamp{static_cast<std::uint64_t>(object) + 1, 2};
  };
  const auto value_of = [](int object) {
    return 100 + static_cast<std::uint64_t>(object);
  };
  Replica r(0, never_failing_server(), Rng(9));
  for (int object = k - 1; object >= 0; --object)
    ASSERT_TRUE(r.handle_write(0.0, ts_of(object), value_of(object), object));
  for (int object = 0; object < k; ++object) {
    EXPECT_TRUE(r.timestamp(object) == ts_of(object));
    EXPECT_TRUE(r.max_timestamp_seen(object) == ts_of(object));
    const auto read = r.handle_read(0.0, object);
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->second, value_of(object));
    const auto served = r.serve_read(object, 0.0, 0.0);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->cert, replica_cert(0, ts_of(object), value_of(object)));
  }
  EXPECT_TRUE(r.timestamp(k) == Timestamp{});  // never written
  EXPECT_EQ(r.value(k), 0u);
}

TEST(ReplyFold, EqualTimestampsAdoptTheFirstReplyInOrder) {
  std::vector<ReplySlot> replies(4);
  replies[1] = std::make_pair(Timestamp{3, 1}, std::uint64_t{10});
  replies[2] = std::make_pair(Timestamp{3, 1}, std::uint64_t{20});
  replies[3] = std::make_pair(Timestamp{2, 0}, std::uint64_t{30});
  const FoldResult forward =
      fold_replies(replies, std::vector<int>{1, 2, 3}, /*lie_tolerance=*/0);
  EXPECT_TRUE(forward.ok);
  EXPECT_TRUE(forward.ts == (Timestamp{3, 1}));
  EXPECT_EQ(forward.value, 10u);
  EXPECT_EQ(forward.index, 1);
  const FoldResult backward =
      fold_replies(replies, std::vector<int>{3, 2, 1}, 0);
  EXPECT_EQ(backward.value, 20u);
  EXPECT_EQ(backward.index, 2);
  // No written reply reached: the unwritten register, adopted from nobody.
  std::vector<ReplySlot> unwritten(2);
  unwritten[0] = std::make_pair(Timestamp{}, std::uint64_t{0});
  const FoldResult none = fold_replies(unwritten, std::vector<int>{0, 1}, 0);
  EXPECT_TRUE(none.ok);
  EXPECT_TRUE(none.ts == Timestamp{});
  EXPECT_EQ(none.index, -1);
}

TEST(ReplyFold, VoteNeedsBPlusOneIdenticalPairs) {
  std::vector<ReplySlot> replies(6);
  replies[0] = std::make_pair(Timestamp{9, 0}, std::uint64_t{99});  // a liar
  replies[1] = std::make_pair(Timestamp{3, 1}, std::uint64_t{10});
  replies[2] = std::make_pair(Timestamp{3, 1}, std::uint64_t{20});
  replies[3] = std::make_pair(Timestamp{3, 1}, std::uint64_t{10});
  replies[4] = std::make_pair(Timestamp{3, 1}, std::uint64_t{20});
  replies[5] = std::make_pair(Timestamp{2, 0}, std::uint64_t{7});
  const std::vector<int> order{0, 1, 2, 3, 4, 5};
  // b = 0 is the plain max fold: the lone liar wins.
  EXPECT_EQ(fold_replies(replies, order, 0).index, 0);
  // b = 1: two distinct pairs clear the vote at one timestamp; the first
  // voted reply in order wins.
  const FoldResult voted = fold_replies(replies, order, 1);
  EXPECT_TRUE(voted.ok);
  EXPECT_EQ(voted.value, 10u);
  EXPECT_EQ(voted.index, 1);
  EXPECT_EQ(fold_replies(replies, std::vector<int>{5, 4, 3, 2, 1, 0}, 1).value,
            20u);
  // b = 2 needs three identical pairs: none, so the op fails.
  EXPECT_FALSE(fold_replies(replies, order, 2).ok);
}

TEST(WriteSet, HoldsExactlyTheInsertedBindingsAcrossGrowth) {
  WriteSet set;
  EXPECT_FALSE(set.contains(Timestamp{1, 0}, 1));
  for (std::uint64_t i = 1; i <= 1000; ++i)
    set.insert(Timestamp{i, static_cast<int>(i % 7)}, i * 3);
  set.insert(Timestamp{5, 5}, 15);  // a duplicate is a no-op
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(set.contains(Timestamp{i, static_cast<int>(i % 7)}, i * 3));
    const int writer = static_cast<int>(i % 7);
    EXPECT_FALSE(set.contains(Timestamp{i, writer}, i * 3 + 1));
    EXPECT_FALSE(set.contains(Timestamp{i, writer + 7}, i * 3));
  }
}

TEST(WriteSet, MatchesAStdSetReferenceAcrossGrowthAndReserve) {
  // Differential check against std::set over seeded inserts: fresh
  // bindings, duplicates, the same timestamp with another value, and
  // lookups of bindings never inserted, across many index growths and
  // reserve calls (larger and smaller than the current size).
  using Binding = std::tuple<std::uint64_t, int, std::uint64_t>;
  const auto contains = [](const WriteSet& set, const Binding& b) {
    return set.contains(Timestamp{std::get<0>(b), std::get<1>(b)},
                        std::get<2>(b));
  };
  Rng rng(4242);
  for (int round = 0; round < 4; ++round) {
    WriteSet set;
    std::set<Binding> reference;
    std::vector<Binding> inserted;
    for (int step = 0; step < 20000; ++step) {
      if (step % 4000 == round) set.reserve(rng.next_below(6000));
      Binding b{rng.next_below(5000), static_cast<int>(rng.next_below(9)) - 1,
                rng.next_below(4)};
      if (!inserted.empty()) {
        const Binding& old = inserted[rng.next_below(inserted.size())];
        switch (rng.next_below(4)) {
          case 0:  // duplicate
            b = old;
            break;
          case 1:  // same timestamp, another value
            b = Binding{std::get<0>(old), std::get<1>(old),
                        std::get<2>(old) + 1 + rng.next_below(3)};
            break;
          default:
            break;
        }
      }
      set.insert(Timestamp{std::get<0>(b), std::get<1>(b)}, std::get<2>(b));
      reference.insert(b);
      inserted.push_back(b);
      const Binding probe{rng.next_below(6000),
                          static_cast<int>(rng.next_below(10)) - 1,
                          rng.next_below(6)};
      ASSERT_EQ(contains(set, probe), reference.count(probe) == 1)
          << "round " << round << " step " << step;
      ASSERT_EQ(set.size(), reference.size());
    }
    for (const Binding& b : reference) ASSERT_TRUE(contains(set, b));
  }
}

// ---- end-to-end register experiments ----

RegisterExperimentConfig reliable_world() {
  RegisterExperimentConfig config;
  config.num_clients = 4;
  config.duration = 300.0;
  config.think_time = 0.5;
  config.network.link_mean_down = 1e-9;
  config.network.link_mean_up = 1e9;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  return config;
}

TEST(RegisterExperiment, PerfectWorldIsFullyAvailableAndConsistent) {
  const OptDFamily fam(12, 2);
  const auto result = run_register_experiment(fam, reliable_world());
  EXPECT_GT(result.reads_attempted + result.writes_attempted, 500);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // OPT_d with everything up: exactly 2 alpha probes per acquisition.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.01);
}

TEST(RegisterExperiment, MajorityBaselinePerfectWorld) {
  const MajorityFamily fam(12);
  const auto result = run_register_experiment(fam, reliable_world());
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  EXPECT_NEAR(result.probes_per_op.mean(), 7.0, 0.01);
}

TEST(RegisterExperiment, SqsSurvivesMassServerFailure) {
  // 60% of servers down on average: majority is mostly dead, OPT_d hums.
  RegisterExperimentConfig config = reliable_world();
  config.duration = 400.0;
  config.server.mean_up = 4.0;
  config.server.mean_down = 6.0;  // p = 0.6

  const OptDFamily sqs_family(12, 2);
  const auto sqs_result = run_register_experiment(sqs_family, config);
  const MajorityFamily maj(12);
  const auto maj_result = run_register_experiment(maj, config);

  EXPECT_GT(sqs_result.availability(), 0.95);
  EXPECT_LT(maj_result.availability(), 0.35);
}

TEST(RegisterExperiment, FlakyLinksCauseFewStaleReadsAtHigherAlpha) {
  RegisterExperimentConfig config;
  config.num_clients = 6;
  config.duration = 1500.0;
  config.think_time = 0.3;
  config.server.mean_down = 1e-9;
  config.server.mean_up = 1e9;
  // Aggressively flaky links: ~9% of the time a link is down.
  config.network.link_mean_up = 10.0;
  config.network.link_mean_down = 1.0;

  const auto a1 = run_register_experiment(OptDFamily(12, 1), config);
  const auto a3 = run_register_experiment(OptDFamily(12, 3), config);
  EXPECT_GT(a1.reads_ok, 1000);
  EXPECT_GT(a3.reads_ok, 1000);
  // Higher alpha => quadratically fewer non-intersections => fewer stale
  // reads. (alpha=1 may still be small; require ordering with slack.)
  EXPECT_LE(a3.stale_read_fraction(), a1.stale_read_fraction() + 1e-9);
}

TEST(RegisterExperiment, CompositionFamilyWorksEndToEnd) {
  auto uq = std::make_shared<MajorityFamily>(7);
  const CompositionFamily comp(uq, 16, 2);
  RegisterExperimentConfig config = reliable_world();
  const auto result = run_register_experiment(comp, config);
  EXPECT_DOUBLE_EQ(result.availability(), 1.0);
  EXPECT_EQ(result.stale_reads, 0);
  // Fast path: majority of 7 = 4 probes.
  EXPECT_NEAR(result.probes_per_op.mean(), 4.0, 0.05);
}

TEST(RegisterExperiment, AmnesiaRecoveryBreaksConsistency) {
  // The guarantees assume crash (state-preserving) failures. With amnesia
  // recovery, rare writes + high churn + alpha=1 produce massive staleness.
  RegisterExperimentConfig config = reliable_world();
  config.duration = 800.0;
  config.read_fraction = 0.97;
  config.server.mean_down = 20.0;
  config.server.mean_up = 20.0 * 0.7 / 0.3;  // p = 0.3

  const OptDFamily fam(15, 1);
  config.server.amnesia_on_recovery = false;
  const auto crash_only = run_register_experiment(fam, config);
  config.server.amnesia_on_recovery = true;
  const auto amnesia = run_register_experiment(fam, config);

  EXPECT_GT(crash_only.reads_ok, 3000);
  // Crash churn alone already causes some staleness at alpha=1 (a reader
  // can land on servers that were down during the write); amnesia multiplies
  // it severalfold.
  EXPECT_GT(amnesia.stale_reads, 5 * crash_only.stale_reads)
      << "crash=" << crash_only.stale_reads
      << " amnesia=" << amnesia.stale_reads;
}

TEST(RegisterExperiment, LatencyPercentilesAreOrdered) {
  const OptDFamily fam(12, 2);
  RegisterExperimentConfig config = reliable_world();
  const auto r = run_register_experiment(fam, config);
  EXPECT_GT(r.reads_ok + r.writes_ok, 100);
  EXPECT_EQ(r.latency_us.count,
            static_cast<std::uint64_t>(r.reads_ok + r.writes_ok));
  const obs::HistogramSnapshot latency = r.latency_snapshot();
  EXPECT_GT(latency.p50(), 0.0);
  EXPECT_LE(latency.p50(), latency.p99());
}

TEST(RegisterExperiment, LatencyQuantilesWithinOneBucketOfExactPercentile) {
  // Known samples from 1 ms to 4.5 s, so both the 10 ms steps and the first
  // power-of-two tail bucket hold some. Each quantile must lie within the
  // width of the bucket that holds the exact (nearest-rank) percentile.
  const std::vector<std::uint64_t>& bounds = register_latency_bounds();
  ASSERT_EQ(bounds.size(), 405u);
  obs::HistAccum hist;
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t us = 1000 + (i * i * 7919) % 4'500'000;
    samples.push_back(us);
    hist.record(bounds, us);
  }
  std::sort(samples.begin(), samples.end());
  const obs::HistogramSnapshot snap = hist.snapshot("latency_us", bounds);
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::size_t rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * samples.size())));
    const std::uint64_t exact = samples[rank - 1];
    const std::size_t b = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), exact) -
        bounds.begin());
    const std::uint64_t lo = b == 0 ? 0 : bounds[b - 1];
    const std::uint64_t hi = b < bounds.size() ? bounds[b] : samples.back();
    EXPECT_NEAR(snap.quantile(q), static_cast<double>(exact),
                static_cast<double>(hi - lo))
        << "q=" << q;
  }
}

TEST(RegisterExperiment, DeterministicAcrossRuns) {
  const OptDFamily fam(10, 2);
  RegisterExperimentConfig config = reliable_world();
  config.duration = 100.0;
  const auto r1 = run_register_experiment(fam, config);
  const auto r2 = run_register_experiment(fam, config);
  EXPECT_EQ(r1.reads_attempted, r2.reads_attempted);
  EXPECT_EQ(r1.writes_ok, r2.writes_ok);
  EXPECT_DOUBLE_EQ(r1.probes_per_op.mean(), r2.probes_per_op.mean());
}

}  // namespace
}  // namespace sqs
