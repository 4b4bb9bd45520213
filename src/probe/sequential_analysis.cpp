#include "probe/sequential_analysis.h"

#include <cassert>

namespace sqs {

SequentialAnalysis analyze_sequential(int n, double up_prob,
                                      const StopRule& rule) {
  SequentialAnalysis out;
  out.position_probe_probability.assign(static_cast<std::size_t>(n), 0.0);
  out.probes_pmf.assign(static_cast<std::size_t>(n) + 1, 0.0);

  // state[pos] = P[still probing after i probes with pos successes].
  std::vector<double> state(static_cast<std::size_t>(n) + 1, 0.0);
  state[0] = 1.0;
  double sum_acquired_probes = 0.0;
  double sum_failed_probes = 0.0;
  double fail_probability = 0.0;

  for (int i = 1; i <= n; ++i) {
    double continuing = 0.0;
    for (int pos = 0; pos < i; ++pos) continuing += state[static_cast<std::size_t>(pos)];
    out.position_probe_probability[static_cast<std::size_t>(i - 1)] = continuing;
    if (continuing == 0.0) break;

    std::vector<double> next(static_cast<std::size_t>(n) + 1, 0.0);
    for (int pos = 0; pos < i; ++pos) {
      const double mass = state[static_cast<std::size_t>(pos)];
      if (mass == 0.0) continue;
      next[static_cast<std::size_t>(pos + 1)] += mass * up_prob;
      next[static_cast<std::size_t>(pos)] += mass * (1.0 - up_prob);
    }

    for (int pos = 0; pos <= i; ++pos) {
      double& mass = next[static_cast<std::size_t>(pos)];
      if (mass == 0.0) continue;
      switch (rule(i, pos)) {
        case StepDecision::kContinue:
          // At i == n everything must have stopped; guard against
          // ill-formed rules.
          assert(i < n && "stop rule failed to terminate after n probes");
          break;
        case StepDecision::kAcquire:
          out.acquire_probability += mass;
          sum_acquired_probes += mass * static_cast<double>(i);
          out.probes_pmf[static_cast<std::size_t>(i)] += mass;
          mass = 0.0;
          break;
        case StepDecision::kFail:
          fail_probability += mass;
          sum_failed_probes += mass * static_cast<double>(i);
          out.probes_pmf[static_cast<std::size_t>(i)] += mass;
          mass = 0.0;
          break;
      }
    }
    state = std::move(next);
  }

  for (int i = 0; i <= n; ++i)
    out.expected_probes +=
        static_cast<double>(i) * out.probes_pmf[static_cast<std::size_t>(i)];
  out.expected_probes_acquired =
      out.acquire_probability > 0.0 ? sum_acquired_probes / out.acquire_probability : 0.0;
  out.expected_probes_failed =
      fail_probability > 0.0 ? sum_failed_probes / fail_probability : 0.0;
  return out;
}

CountingRule opt_d_stop_rule(int n, int alpha) {
  return {n, alpha, CountingRule::Acquire::kServerProbe};
}

CountingRule opt_a_stop_rule(int n, int alpha) {
  return {n, alpha, CountingRule::Acquire::kAfterAll};
}

}  // namespace sqs
