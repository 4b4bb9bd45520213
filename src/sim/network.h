// The simulated wide-area network: the shared Transport link-state machine
// (see sim/transport.h) adapted to the discrete-event loop.
//
// Links between each (client, server) pair flap independently: alternating
// exponentially-distributed up and down periods, evaluated lazily. A message
// sent while the link is down is lost; otherwise it is delivered after
// base latency plus exponential jitter. Because down periods persist in
// time, two clients probing the same server around the same moment can see
// different outcomes — exactly the paper's *mismatch* mechanism — while
// mismatches on different servers stay independent (each pair has its own
// process), matching the Sect. 4 assumption. A partition switch makes a
// whole client's links fail together for testing the correlated case.
//
// All of that state lives in the Transport; Network's own job is just to
// stamp Simulator::now() onto every query and turn a delivered attempt into
// a scheduled event. Fault injection (partitions, link blocks, latency and
// loss bursts) goes to the Transport directly, with an explicit `now`.
// Every send outcome is counted (`sim.net.delivered` / `sim.net.dropped`)
// so injected trouble is visible in metric snapshots.

#pragma once

#include "sim/simulator.h"
#include "sim/transport.h"
#include "util/rng.h"

namespace sqs {

class Network {
 public:
  Network(Simulator* sim, int num_clients, int num_servers,
          const NetworkConfig& config, Rng rng);

  // Sends a one-way message from client `client` to server `server`
  // (direction kToServer) or back (kToClient); `on_delivery` runs at the
  // destination if the link is up at send time, and never runs otherwise.
  enum class Direction { kToServer, kToClient };
  void send(int client, int server, Direction direction,
            SimCallback on_delivery);

  // True if the (client, server) link is currently up.
  bool link_up(int client, int server);

  // True while any (full or partial) partition of `client` is active.
  bool client_partition_active(int client) const;
  // The active partition's fraction (1.0 for a full partition, 0.0 if none).
  double client_partition_fraction(int client) const;

  const NetworkConfig& config() const { return transport_.config(); }
  // The link-state machine itself, for fault injection at an explicit
  // `now` (faults/fault_plan.h apply_fault, tests).
  Transport& transport() { return transport_; }

  // Lifetime totals of the send path (mirrors the sim.net.{delivered,
  // dropped} counters, but always on so harness invariants need no
  // telemetry).
  std::uint64_t messages_delivered() const {
    return transport_.messages_delivered();
  }
  std::uint64_t messages_dropped() const {
    return transport_.messages_dropped();
  }

 private:
  Simulator* sim_;
  Transport transport_;
};

}  // namespace sqs
