#include "mismatch/exact.h"

#include <array>
#include <cassert>
#include <cmath>
#include <vector>

#include "util/binomial.h"

namespace sqs {

namespace {

struct Sink {
  double acq_acq = 0.0;   // both acquired (within the tracked event class)
  double other = 0.0;     // at least one failed
};

using Plane = std::vector<std::vector<double>>;

// Index of solo[]: only client `c` (0 or 1) still probing; the other ended
// acquired or not; `cross` as for joint[].
std::size_t solo_index(int cross, int c, bool other_acquired) {
  return static_cast<std::size_t>(4 * cross + 2 * c + (other_acquired ? 0 : 1));
}

}  // namespace

ExactNonintersection exact_nonintersection(int n, int alpha, double p,
                                           double link_miss,
                                           const StopRule& rule) {
  const double m = link_miss;
  // Joint per-server probabilities while both clients are probing.
  const double p_pp = (1 - p) * (1 - m) * (1 - m);
  const double p_pm = (1 - p) * m * (1 - m);  // (+,-) — and (-,+) symmetric
  const double p_dd = p + (1 - p) * m * m;
  // Marginal success once only one client is probing.
  const double q = (1 - p) * (1 - m);

  // Every state class is split by `cross`: 0 while the clients have seen
  // no (+,+), 1 once they have (tracked only to compute both_acquire
  // exactly).
  //   joint[cross][p1][p2]: both probing, with p1 and p2 successes.
  //   solo[solo_index(cross, c, other_acquired)][pos]: only client c
  //   probing, with `pos` successes.
  // Sizes: pos counts never exceed n.
  const std::size_t dim = static_cast<std::size_t>(n) + 2;
  const Plane zero_plane(dim, std::vector<double>(dim, 0.0));
  const std::vector<double> zero_row(dim, 0.0);
  std::array<Plane, 2> joint{zero_plane, zero_plane};
  std::array<std::vector<double>, 8> solo;
  solo.fill(zero_row);
  joint[0][0][0] = 1.0;
  std::array<Sink, 2> sink;  // by cross

  for (int i = 1; i <= n; ++i) {
    std::array<Plane, 2> next_joint{zero_plane, zero_plane};
    std::array<std::vector<double>, 8> next_solo;
    next_solo.fill(zero_row);

    // Both-probing transitions.
    for (int from = 0; from < 2; ++from) {
      for (std::size_t p1 = 0; p1 < dim; ++p1) {
        for (std::size_t p2 = 0; p2 < dim; ++p2) {
          const double mass = joint[static_cast<std::size_t>(from)][p1][p2];
          if (mass == 0.0) continue;
          struct Case {
            double prob;
            int d1, d2;
            bool makes_cross;
          };
          const Case cases[] = {{p_pp, 1, 1, true},
                                {p_pm, 1, 0, false},
                                {p_pm, 0, 1, false},
                                {p_dd, 0, 0, false}};
          for (const Case& c : cases) {
            if (c.prob == 0.0) continue;
            const double w = mass * c.prob;
            const int q1 = static_cast<int>(p1) + c.d1;
            const int q2 = static_cast<int>(p2) + c.d2;
            const int cross = from == 1 || c.makes_cross ? 1 : 0;
            const StepDecision d1 = rule(i, q1);
            const StepDecision d2 = rule(i, q2);
            const bool stop1 = d1 != StepDecision::kContinue;
            const bool stop2 = d2 != StepDecision::kContinue;
            if (stop1 && stop2) {
              Sink& to = sink[static_cast<std::size_t>(cross)];
              if (d1 == StepDecision::kAcquire && d2 == StepDecision::kAcquire) {
                to.acq_acq += w;
              } else {
                to.other += w;
              }
            } else if (stop1) {
              next_solo[solo_index(cross, 1, d1 == StepDecision::kAcquire)]
                       [static_cast<std::size_t>(q2)] += w;
            } else if (stop2) {
              next_solo[solo_index(cross, 0, d2 == StepDecision::kAcquire)]
                       [static_cast<std::size_t>(q1)] += w;
            } else {
              next_joint[static_cast<std::size_t>(cross)]
                        [static_cast<std::size_t>(q1)]
                        [static_cast<std::size_t>(q2)] += w;
            }
          }
        }
      }
    }

    // Solo transitions (the other client already ended).
    for (std::size_t k = 0; k < solo.size(); ++k) {
      const bool other_acquired = k % 2 == 0;
      Sink& to = sink[k / 4];
      for (std::size_t pos = 0; pos < dim; ++pos) {
        const double mass = solo[k][pos];
        if (mass == 0.0) continue;
        for (int success = 0; success <= 1; ++success) {
          const double w = mass * (success ? q : 1 - q);
          const int np = static_cast<int>(pos) + success;
          const StepDecision d = rule(i, np);
          if (d == StepDecision::kContinue) {
            next_solo[k][static_cast<std::size_t>(np)] += w;
          } else if (d == StepDecision::kAcquire && other_acquired) {
            to.acq_acq += w;
          } else {
            to.other += w;
          }
        }
      }
    }

    joint = std::move(next_joint);
    solo = std::move(next_solo);
  }

  ExactNonintersection out;
  out.nonintersection = sink[0].acq_acq;
  out.both_acquire = sink[0].acq_acq + sink[1].acq_acq;
  out.epsilon = 2.0 * m / (1.0 + m);
  out.bound = std::pow(out.epsilon, 2.0 * alpha);
  return out;
}

double exact_byzantine_availability(int n, int accept, int b, double miss) {
  assert(0 <= b && b < accept && accept <= n);
  assert(miss >= 0.0 && miss <= 1.0);
  return binom_tail_geq(n - b, accept - b, 1.0 - miss);
}

}  // namespace sqs
