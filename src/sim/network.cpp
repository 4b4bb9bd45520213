#include "sim/network.h"

#include <utility>

#include "obs/telemetry.h"

namespace sqs {

namespace {

struct NetMetrics {
  obs::Counter delivered = obs::Registry::instance().counter("sim.net.delivered");
  obs::Counter dropped = obs::Registry::instance().counter("sim.net.dropped");
  static const NetMetrics& get() {
    static const NetMetrics m;
    return m;
  }
};

}  // namespace

Network::Network(Simulator* sim, int num_clients, int num_servers,
                 const NetworkConfig& config, Rng rng)
    : sim_(sim),
      transport_(num_clients, num_servers, config, std::move(rng)) {}

bool Network::link_up(int client, int server) {
  return transport_.link_up(client, server, sim_->now());
}

void Network::send(int client, int server, Direction /*direction*/,
                   SimCallback on_delivery) {
  const Transport::Delivery d = transport_.attempt(client, server, sim_->now());
  if (!d.delivered) {
    NetMetrics::get().dropped.add(1);
    return;
  }
  NetMetrics::get().delivered.add(1);
  sim_->schedule(d.latency, std::move(on_delivery));
}

bool Network::client_partition_active(int client) const {
  return transport_.client_partition_active(client, sim_->now());
}

double Network::client_partition_fraction(int client) const {
  return transport_.client_partition_fraction(client, sim_->now());
}

}  // namespace sqs
