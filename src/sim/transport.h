// The in-process message transport: one shared link-state machine for the
// discrete-event simulator AND the staged replicated-register service.
//
// Extracted from Network (src/sim/network.*), which now adapts it to the
// event loop. Transport owns everything that decides a message's fate —
// flapping per-(client, server) links, partitions, link blocks, latency and
// loss bursts — but holds no clock of its own: every query passes the
// caller's notion of "now" explicitly. The simulator passes Simulator::now();
// the service runner (src/service) passes the virtual timeline of its
// open-loop load schedule. Because the state machine and its rng draw order
// are exactly the ones Network used, extracting it changed no simulated
// result bit, and a FaultPlan timeline drives served traffic through the
// same hooks it drives a simulation through.
//
// Time must not flow backwards between calls that touch the same link: the
// flap processes advance lazily and only forward (the same contract the
// Network always had via the monotone simulator clock). The service runner
// satisfies it by evaluating operations in arrival order.

#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sqs {

struct NetworkConfig {
  double base_latency = 0.020;      // one-way, seconds
  double jitter_mean = 0.010;       // exponential jitter added per hop
  double link_mean_up = 100.0;      // mean link up-period (seconds)
  double link_mean_down = 1.0;      // mean link down-period (seconds)
  // Stationary P[link down] = mean_down / (mean_up + mean_down).
  double stationary_link_down() const {
    return link_mean_down / (link_mean_up + link_mean_down);
  }
  // True iff every duration is usable (positive means, non-negative
  // latency); complaints go to stderr, one line per bad field.
  bool validate() const;
};

class Transport {
 public:
  Transport(int num_clients, int num_servers, const NetworkConfig& config,
            Rng rng);

  // Outcome of one message hop attempted at time `now`.
  struct Delivery {
    bool delivered = false;
    double latency = 0.0;  // one-way, valid only when delivered
  };

  // Decides the fate of a message on the (client, server) link at `now`:
  // lost if the link is down (or a loss burst fires), otherwise delivered
  // after base latency plus exponential jitter (times any active latency
  // burst). Draw order matches the historical Network::send exactly.
  Delivery attempt(int client, int server, double now);

  // True if the (client, server) link is up at `now`.
  bool link_up(int client, int server, double now);

  // --- fault hooks (windows measured from the supplied `now`) -------------
  // All of `client`'s links down (a client partition / lost connection).
  void partition_client(int client, double now, double duration);
  // A uniformly random `fraction` of `client`'s links down together: the
  // correlated-mismatch case the paper's filtering step ([17]) guards
  // against, since the client could still acquire a quorum built mostly
  // from (wrong) negative evidence.
  void partition_client_partial(int client, double fraction, double now,
                                double duration);
  // The single (client, server) link down — the asynchronous-scheduler
  // adversary of Sect. 2.2 (indefinite delay on one link is loss to a
  // timeout-based client).
  void block_link(int client, int server, double now, double duration);
  // Every client's link to `server` down: the server stays up but is cut
  // off. Extends, never shortens, an active window, and composes with
  // natural down-periods (the link resumes its flap process's state once
  // both have passed).
  void force_partition(int server, double now, double duration);
  // Every delivered message's latency x `factor` (>= 1); a new burst
  // replaces the current one.
  void inject_latency_burst(double factor, double now, double duration);
  // Every send that would be delivered is dropped with probability
  // `drop_prob` instead.
  void inject_loss_burst(double drop_prob, double now, double duration);

  bool client_partition_active(int client, double now) const;
  double client_partition_fraction(int client, double now) const;

  const NetworkConfig& config() const { return config_; }
  int num_clients() const { return num_clients_; }
  int num_servers() const { return num_servers_; }

  // Lifetime totals of the attempt path (mirrors the sim.net.{delivered,
  // dropped} counters, but always on so harness invariants need no
  // telemetry).
  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  struct Link {
    bool up = true;
    double next_toggle = 0.0;
  };

  Link& link(int client, int server) {
    return links_[static_cast<std::size_t>(client * num_servers_ + server)];
  }
  void advance_link(Link& l, double now);

  int num_clients_;
  int num_servers_;
  NetworkConfig config_;
  // The exponential rates of the jitter and of the link up/down periods,
  // 1 / mean, divided once here instead of on every hop.
  double jitter_rate_;
  double up_rate_;
  double down_rate_;
  Rng rng_;
  std::vector<Link> links_;
  std::vector<double> client_partition_until_;
  struct PartialPartition {
    double until = 0.0;
    double fraction = 0.0;
    std::vector<char> blocked;  // per-server
  };
  std::vector<PartialPartition> partial_partitions_;
  std::vector<double> link_block_until_;
  std::vector<double> server_partition_until_;
  double latency_factor_ = 1.0;
  double latency_burst_until_ = 0.0;
  double loss_prob_ = 0.0;
  double loss_burst_until_ = 0.0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace sqs
