#include "sim/transport.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sqs {

bool NetworkConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "NetworkConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (!(base_latency >= 0.0)) reject("base_latency", base_latency);
  if (!(jitter_mean > 0.0)) reject("jitter_mean", jitter_mean);
  if (!(link_mean_up > 0.0)) reject("link_mean_up", link_mean_up);
  if (!(link_mean_down > 0.0)) reject("link_mean_down", link_mean_down);
  return ok;
}

Transport::Transport(int num_clients, int num_servers,
                     const NetworkConfig& config, Rng rng)
    : num_clients_(num_clients),
      num_servers_(num_servers),
      config_(config),
      jitter_rate_(1.0 / config.jitter_mean),
      up_rate_(1.0 / config.link_mean_up),
      down_rate_(1.0 / config.link_mean_down),
      rng_(std::move(rng)) {
  links_.resize(static_cast<std::size_t>(num_clients * num_servers));
  client_partition_until_.assign(static_cast<std::size_t>(num_clients), 0.0);
  partial_partitions_.resize(static_cast<std::size_t>(num_clients));
  link_block_until_.assign(static_cast<std::size_t>(num_clients * num_servers),
                           0.0);
  server_partition_until_.assign(static_cast<std::size_t>(num_servers), 0.0);
  // Start each link in its stationary distribution so short experiments are
  // unbiased.
  const double p_down = config_.stationary_link_down();
  for (auto& l : links_) {
    l.up = !rng_.bernoulli(p_down);
    l.next_toggle = rng_.exponential(l.up ? up_rate_ : down_rate_);
  }
}

void Transport::advance_link(Link& l, double now) {
  while (l.next_toggle <= now) {
    l.up = !l.up;
    l.next_toggle += rng_.exponential(l.up ? up_rate_ : down_rate_);
  }
}

bool Transport::link_up(int client, int server, double now) {
  if (now < client_partition_until_[static_cast<std::size_t>(client)])
    return false;
  if (now < server_partition_until_[static_cast<std::size_t>(server)])
    return false;
  if (now <
      link_block_until_[static_cast<std::size_t>(client * num_servers_ + server)])
    return false;
  const PartialPartition& pp =
      partial_partitions_[static_cast<std::size_t>(client)];
  if (now < pp.until && pp.blocked[static_cast<std::size_t>(server)])
    return false;
  Link& l = link(client, server);
  advance_link(l, now);
  return l.up;
}

Transport::Delivery Transport::attempt(int client, int server, double now) {
  Delivery out;
  if (!link_up(client, server, now)) {  // lost
    ++dropped_;
    return out;
  }
  // An active loss burst drops deliverable messages too. The extra
  // bernoulli draw happens only while a burst is live, so runs without
  // injected loss consume the exact same rng stream as before.
  if (now < loss_burst_until_ && rng_.bernoulli(loss_prob_)) {
    ++dropped_;
    return out;
  }
  double latency =
      config_.base_latency + rng_.exponential(jitter_rate_);
  if (now < latency_burst_until_) latency *= latency_factor_;
  ++delivered_;
  out.delivered = true;
  out.latency = latency;
  return out;
}

void Transport::partition_client(int client, double now, double duration) {
  client_partition_until_[static_cast<std::size_t>(client)] = now + duration;
}

void Transport::partition_client_partial(int client, double fraction,
                                         double now, double duration) {
  PartialPartition& pp = partial_partitions_[static_cast<std::size_t>(client)];
  pp.until = now + duration;
  pp.fraction = fraction;
  pp.blocked.assign(static_cast<std::size_t>(num_servers_), 0);
  for (int s = 0; s < num_servers_; ++s)
    if (rng_.bernoulli(fraction)) pp.blocked[static_cast<std::size_t>(s)] = 1;
}

void Transport::block_link(int client, int server, double now,
                           double duration) {
  link_block_until_[static_cast<std::size_t>(client * num_servers_ + server)] =
      now + duration;
}

void Transport::force_partition(int server, double now, double duration) {
  double& until = server_partition_until_[static_cast<std::size_t>(server)];
  until = std::max(until, now + duration);
}

void Transport::inject_latency_burst(double factor, double now,
                                     double duration) {
  latency_factor_ = factor;
  latency_burst_until_ = now + duration;
}

void Transport::inject_loss_burst(double drop_prob, double now,
                                  double duration) {
  loss_prob_ = drop_prob;
  loss_burst_until_ = now + duration;
}

bool Transport::client_partition_active(int client, double now) const {
  return now < client_partition_until_[static_cast<std::size_t>(client)] ||
         now < partial_partitions_[static_cast<std::size_t>(client)].until;
}

double Transport::client_partition_fraction(int client, double now) const {
  if (now < client_partition_until_[static_cast<std::size_t>(client)])
    return 1.0;
  const PartialPartition& pp =
      partial_partitions_[static_cast<std::size_t>(client)];
  return now < pp.until ? pp.fraction : 0.0;
}

}  // namespace sqs
