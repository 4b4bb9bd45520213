#include "sim/store.h"

#include <algorithm>
#include <cstdio>
#include <optional>

namespace sqs {

double StoreExperimentResult::max_server_load() const {
  double hi = 0.0;
  for (double f : server_probe_fraction) hi = std::max(hi, f);
  return hi;
}

double StoreExperimentResult::min_server_load() const {
  // An empty fleet has no load anywhere: 0.0, matching max_server_load,
  // not the old sentinel 1.0 (which read as "some server saw every probe").
  if (server_probe_fraction.empty()) return 0.0;
  double lo = 1.0;
  for (double f : server_probe_fraction) lo = std::min(lo, f);
  return lo;
}

bool StoreExperimentConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "StoreExperimentConfig: invalid %s %g\n", what,
                 value);
    ok = false;
  };
  if (alpha < 1) reject("alpha", alpha);
  if (num_servers < 1 || num_servers < 3L * alpha - 1)
    reject("num_servers", num_servers);
  if (num_objects < 1) reject("num_objects", num_objects);
  if (num_clients < 1) reject("num_clients", num_clients);
  if (!(duration > 0.0)) reject("duration", duration);
  if (!(think_time > 0.0)) reject("think_time", think_time);
  if (!(read_fraction >= 0.0 && read_fraction <= 1.0))
    reject("read_fraction", read_fraction);
  if (!network.validate()) ok = false;
  if (!server.validate()) ok = false;
  if (!client.validate()) ok = false;
  return ok;
}

namespace {

struct StoreExperiment {
  StoreExperimentConfig config;
  Simulator sim;
  std::optional<Transport> transport;
  std::vector<Replica> servers;
  std::vector<SimClient> clients;
  std::vector<OptDFamily> families;  // one per object
  Rng rng;
  StoreExperimentResult result;
  std::vector<long> probe_counts;
  std::vector<Timestamp> frontier;  // per object: max completed write ts
  std::uint64_t next_value = 1;

  // The accounting every completed op shares, after its own.
  void finish_op(int client_idx, const OpResult& r) {
    result.probes_per_op.add(r.num_probes);
    r.probed.positive().for_each([&](std::size_t i) { ++probe_counts[i]; });
    r.probed.negative().for_each([&](std::size_t i) { ++probe_counts[i]; });
    if (r.ok) ++result.ops_ok;
    schedule_next_op(client_idx);
  }

  void schedule_next_op(int client_idx) {
    if (sim.now() >= config.duration) return;
    const double delay = rng.exponential(1.0 / config.think_time);
    sim.schedule(delay, [this, client_idx] { start_op(client_idx); });
  }

  void start_op(int client_idx) {
    if (sim.now() >= config.duration) return;
    ++result.ops_attempted;
    const int object =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(config.num_objects)));
    const OptDFamily& family = families[static_cast<std::size_t>(object)];
    SimClient& client = clients[static_cast<std::size_t>(client_idx)];
    if (rng.bernoulli(config.read_fraction)) {
      const Timestamp snapshot = frontier[static_cast<std::size_t>(object)];
      client.read(family, object,
                  [this, client_idx, snapshot](const OpResult& r) {
                    if (r.ok) {
                      ++result.reads_ok;
                      if (r.timestamp < snapshot) ++result.stale_reads;
                    }
                    finish_op(client_idx, r);
                  });
    } else {
      client.write(family, object, next_value++,
                   [this, client_idx, object](const OpResult& w) {
                     Timestamp& f = frontier[static_cast<std::size_t>(object)];
                     if (w.ok && f < w.timestamp) f = w.timestamp;
                     finish_op(client_idx, w);
                   });
    }
  }
};

}  // namespace

StoreExperimentResult run_store_experiment(const StoreExperimentConfig& config) {
  if (!config.validate()) return {};  // rejected; details already on stderr
  StoreExperiment e;
  e.config = config;
  e.rng = Rng(config.seed);
  const int n = config.num_servers;

  e.families.reserve(static_cast<std::size_t>(config.num_objects));
  for (int object = 0; object < config.num_objects; ++object) {
    OptDFamily family(n, config.alpha);
    if (config.rotate_orders) {
      std::vector<int> order(static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j)
        order[static_cast<std::size_t>(j)] = (object + j) % n;
      family.set_probe_order(order);
    }
    e.families.push_back(std::move(family));
  }

  e.transport.emplace(config.num_clients, n, config.network,
                      e.rng.split("network"));
  e.servers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    e.servers.emplace_back(i, config.server,
                           e.rng.split(1000 + static_cast<std::uint64_t>(i)));
  e.clients.reserve(static_cast<std::size_t>(config.num_clients));
  for (int c = 0; c < config.num_clients; ++c)
    e.clients.emplace_back(&e.sim, &*e.transport, &e.servers, c,
                           &e.families.front(), config.client,
                           e.rng.split(2000 + static_cast<std::uint64_t>(c)));

  e.probe_counts.assign(static_cast<std::size_t>(n), 0);
  e.frontier.assign(static_cast<std::size_t>(config.num_objects), Timestamp{});

  for (int c = 0; c < config.num_clients; ++c) e.schedule_next_op(c);
  e.sim.run_until(config.duration + 60.0);

  e.result.server_probe_fraction.assign(static_cast<std::size_t>(n), 0.0);
  if (e.result.ops_attempted > 0) {
    for (int i = 0; i < n; ++i)
      e.result.server_probe_fraction[static_cast<std::size_t>(i)] =
          static_cast<double>(e.probe_counts[static_cast<std::size_t>(i)]) /
          static_cast<double>(e.result.ops_attempted);
  }
  return e.result;
}

}  // namespace sqs
