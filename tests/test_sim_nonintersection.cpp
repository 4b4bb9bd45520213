// The mechanistic counterpart of Sect. 4: mismatches in the simulator are
// *emergent* (flapping links + timeouts), not injected. Two clients acquire
// concurrently over the same fleet; the per-server mismatch rate implied by
// the link model must match the abstract epsilon, and the measured
// non-intersection rate must respect epsilon^(2 alpha) — tying the
// discrete-event stack back to Theorem 9's model.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/constructions.h"
#include "sim/client.h"
#include "util/stats.h"

namespace sqs {
namespace {

struct TwoClientSimResult {
  Proportion both_acquired;
  Proportion nonintersection;
  Proportion per_server_mismatch;  // over probes both clients issued
};

TwoClientSimResult run_two_client_sim(int n, int alpha, double link_down,
                                      int rounds, std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  NetworkConfig net_config;
  // Mean link downtime 1s; mean uptime chosen for the target stationary
  // down probability. Long periods relative to the probe timeout make a
  // down link look like a crisp mismatch.
  net_config.link_mean_down = 1.0;
  net_config.link_mean_up = (1.0 - link_down) / link_down;
  Transport transport(2, n, net_config, rng.split("net"));
  ServerConfig server_config;
  server_config.mean_down = 1e-9;  // isolate link-induced mismatches
  server_config.mean_up = 1e9;
  std::vector<Replica> servers;
  servers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    servers.emplace_back(i, server_config, rng.split(100 + i));

  const OptDFamily family(n, alpha);
  ClientConfig client_config;
  SimClient a(&sim, &transport, &servers, 0, &family, client_config,
              rng.split("a"));
  SimClient b(&sim, &transport, &servers, 1, &family, client_config,
              rng.split("b"));

  TwoClientSimResult result;
  for (int round = 0; round < rounds; ++round) {
    // Space rounds out so link states decorrelate between rounds (but stay
    // correlated *within* a round, which is the mismatch mechanism).
    sim.run_until(sim.now() + 25.0);
    auto ra = std::make_shared<AcquisitionResult>();
    auto rb = std::make_shared<AcquisitionResult>();
    auto done = std::make_shared<int>(0);
    auto finish = [&result, ra, rb, done] {
      if (++*done < 2) return;
      const bool both = ra->acquired && rb->acquired;
      result.both_acquired.add(both);
      result.nonintersection.add(
          both && !ra->probed.positive().intersects(rb->probed.positive()));
      // Per-server mismatch rate over commonly probed servers.
      for (int i = 0; i < ra->probed.universe_size(); ++i) {
        if (!ra->probed.mentions(i) || !rb->probed.mentions(i)) continue;
        const bool r1 = ra->probed.has_positive(i);
        const bool r2 = rb->probed.has_positive(i);
        if (r1 || r2) result.per_server_mismatch.add(r1 != r2);
      }
    };
    a.acquire([ra, &finish](AcquisitionResult r) {
      *ra = r;
      finish();
    });
    b.acquire([rb, &finish](AcquisitionResult r) {
      *rb = r;
      finish();
    });
    sim.run_until(sim.now() + 20.0);
  }
  return result;
}

TEST(SimNonintersection, EmergentMismatchRateMatchesLinkModel) {
  // With long link periods the probability that exactly one client's link
  // is down at probe time, given not both down, is 2d(1-d)/(1-d^2) =
  // 2d/(1+d) — the same epsilon formula as the abstract model.
  const double d = 0.10;
  const auto result = run_two_client_sim(12, 2, d, 4000, 11);
  const double epsilon = 2 * d / (1 + d);
  EXPECT_GT(result.per_server_mismatch.trials, 10000u);
  EXPECT_NEAR(result.per_server_mismatch.estimate(), epsilon, 0.04);
}

TEST(SimNonintersection, EmergentNonintersectionRespectsTheorem9) {
  for (const int alpha : {1, 2}) {
    const double d = 0.15;
    const auto result = run_two_client_sim(14, alpha, d, 6000, 23 + alpha);
    const double epsilon = 2 * d / (1 + d);
    const double bound = std::pow(epsilon, 2.0 * alpha);
    EXPECT_GT(result.both_acquired.estimate(), 0.95) << alpha;
    EXPECT_LE(result.nonintersection.wilson_low(), bound)
        << "alpha=" << alpha
        << " measured=" << result.nonintersection.estimate()
        << " bound=" << bound;
  }
}

TEST(SimNonintersection, RateFallsWithAlpha) {
  const double d = 0.2;
  const auto a1 = run_two_client_sim(14, 1, d, 6000, 31);
  const auto a2 = run_two_client_sim(14, 2, d, 6000, 32);
  EXPECT_GT(a1.nonintersection.estimate(), 0.0)
      << "alpha=1 should show events at this link flakiness";
  EXPECT_LT(a2.nonintersection.estimate(), a1.nonintersection.estimate());
}

}  // namespace
}  // namespace sqs
