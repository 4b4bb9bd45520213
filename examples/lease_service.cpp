// A wide-area lease (coarse mutual exclusion) service on SQS quorums —
// the "mutual exclusion" use case from the paper's first sentence.
//
// Protocol: the lease is a replicated register holding (owner, expiry).
// To acquire, a client reads the register through a quorum; if the lease is
// free or expired it writes (me, now + duration), re-reads to confirm its
// value survived the write race, and then considers itself the holder until
// expiry. A *stale conflict* — acquiring while a previously-granted lease
// is still live — requires the acquirer's quorums to have missed the
// holder's write entirely, so its rate tracks the epsilon^(2a)
// non-intersection bound while availability tracks OPT_a.
//
// Build and run:  ./build/examples/lease_service

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/constructions.h"
#include "sim/client.h"
#include "sim/harness.h"
#include "uqs/majority.h"
#include "util/table.h"

namespace sqs {
namespace {

struct LeaseStats {
  long attempts = 0;
  long grants = 0;
  long conflicts = 0;  // overlapping belief intervals
  RunningStat probes;
};

// Packs (expiry in ms, owner) into the register value.
std::uint64_t pack(double expiry_s, int owner) {
  return (static_cast<std::uint64_t>(expiry_s * 1000.0) << 8) |
         static_cast<std::uint64_t>(owner & 0xFF);
}
double unpack_expiry(std::uint64_t value) {
  return static_cast<double>(value >> 8) / 1000.0;
}

LeaseStats run_lease_experiment(const QuorumFamily& family, double duration,
                                std::uint64_t seed) {
  struct Holder {
    double until = -1.0;
    double granted_at = -1.0;
  };
  LeaseStats stats;
  Simulator sim;
  Rng rng(seed);
  const int n = family.universe_size();
  const int num_clients = 6;
  const double lease_duration = 5.0;

  NetworkConfig net_config;
  net_config.link_mean_up = 20.0;  // fairly flaky: ~5% link downtime
  net_config.link_mean_down = 1.0;
  Network net(&sim, num_clients, n, net_config, rng.split("net"));

  ServerConfig server_config;
  server_config.mean_up = 30.0;
  server_config.mean_down = 3.0;
  std::vector<Replica> servers;
  servers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    servers.emplace_back(i, server_config, rng.split(100 + i));

  std::vector<SimClient> clients;
  std::vector<Holder> holders(static_cast<std::size_t>(num_clients));
  ClientConfig client_config;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c)
    clients.emplace_back(&sim, &net, &servers, c, &family, client_config,
                         rng.split(200 + c));

  // Conflict detection. Two grants whose acquisitions overlapped in time
  // can both succeed under ANY register-based lease protocol (the register
  // orders the writes but cannot serialize the holders' beliefs), so those
  // races are excluded. A *stale* conflict — my acquisition STARTED after
  // another holder's grant completed, yet I still read the lease as free —
  // requires my quorum to have missed the holder's write: that is exactly
  // quorum non-intersection, the event the epsilon^(2a) bound prices.
  auto record_grant = [&](int me, double until, double started_at) {
    for (int other = 0; other < num_clients; ++other) {
      if (other == me) continue;
      const Holder& h = holders[static_cast<std::size_t>(other)];
      if (h.until > sim.now() && h.granted_at < started_at) ++stats.conflicts;
    }
    holders[static_cast<std::size_t>(me)] = Holder{until, sim.now()};
    ++stats.grants;
  };

  // Each client loops: wait, try to acquire if not holding.
  std::function<void(int)> schedule_attempt = [&](int c) {
    if (sim.now() >= duration) return;
    sim.schedule(rng.exponential(1.0 / 2.0), [&, c] {
      if (sim.now() >= duration) return;
      ++stats.attempts;
      const double started_at = sim.now();
      clients[static_cast<std::size_t>(c)].read([&, c, started_at](ReadResult r) {
        stats.probes.add(r.num_probes);
        const bool free = !r.ok || unpack_expiry(r.value) <= sim.now();
        if (!r.ok || !free) {
          schedule_attempt(c);
          return;
        }
        const double until = sim.now() + lease_duration;
        const std::uint64_t my_value = pack(until, c);
        clients[static_cast<std::size_t>(c)].write(
            my_value, [&, c, until, my_value, started_at](WriteResult w) {
              stats.probes.add(w.num_probes);
              if (!w.ok) {
                schedule_attempt(c);
                return;
              }
              // Confirmation read: two contenders can race past the "free"
              // check, but the register orders their writes; only the one
              // whose value survived may take the lease. A false confirm
              // now requires quorum non-intersection — the event the SQS
              // epsilon bound prices.
              clients[static_cast<std::size_t>(c)].read(
                  [&, c, until, my_value, started_at](ReadResult confirm) {
                    stats.probes.add(confirm.num_probes);
                    if (confirm.ok && confirm.value == my_value)
                      record_grant(c, until, started_at);
                    schedule_attempt(c);
                  });
            });
      });
    });
  };
  for (int c = 0; c < num_clients; ++c) schedule_attempt(c);
  sim.run_until(duration + 30.0);
  return stats;
}

}  // namespace
}  // namespace sqs

int main() {
  using namespace sqs;
  std::printf("Wide-area lease service: conflicts vs alpha.\n");
  const double duration = 4000.0;
  Table table({"family", "attempts", "grants", "conflicts",
               "conflict rate", "probes/step"});
  const MajorityFamily maj(12);
  const OptDFamily d1(12, 1), d2(12, 2), d3(12, 3);
  for (const QuorumFamily* family :
       std::initializer_list<const QuorumFamily*>{&maj, &d1, &d2, &d3}) {
    const LeaseStats stats = run_lease_experiment(*family, duration, 99);
    table.add_row({family->name(), std::to_string(stats.attempts),
                   std::to_string(stats.grants), std::to_string(stats.conflicts),
                   stats.grants > 0
                       ? Table::fmt_sci(static_cast<double>(stats.conflicts) /
                                        static_cast<double>(stats.grants))
                       : "-",
                   Table::fmt(stats.probes.mean(), 2)});
  }
  table.print("Lease service over 12 servers, 6 contending clients");
  std::printf(
      "\nWhat to look for: stale conflicts (a lease acquired while a\n"
      "previously-granted lease is still live) are impossible for majority\n"
      "(strict intersection) and for SQS require 2 alpha simultaneous\n"
      "mismatches: nonzero at alpha=1, vanishing by alpha=2-3 — while OPT_d\n"
      "keeps probing costs at a fraction of majority's.\n");
  return 0;
}
