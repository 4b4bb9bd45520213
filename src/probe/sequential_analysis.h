// Exact analysis of sequential (fixed-order, count-based) probe strategies.
//
// OPT_a's and OPT_d's strategies — and the ServerProbe stop rules generally —
// terminate based only on (probes done, successes seen). Over i.i.d. server
// failures this makes the probe process a Markov chain on (i, pos) states,
// so expected probe complexity, acquisition probability, the full probe-count
// distribution, and per-position probe probabilities (the paper's pessimistic
// per-server load, Sect. 3.4) are all computable exactly by DP. These exact
// values back the probe-complexity and load benches and cross-check the
// Monte Carlo machinery.

#pragma once

#include <functional>
#include <vector>

#include "core/probe_strategy.h"

namespace sqs {

// Evaluated after each probe with (probes_done, successes); decides whether
// the strategy stops. Must be consistent: once it stops it is never asked
// again. Every unit-vote CountingRule is one; a rule that is not a
// counting rule is written as a lambda.
using StopRule = std::function<StepDecision(int probes_done, int successes)>;

struct SequentialAnalysis {
  // E[number of probes] over configurations (PC_e* of the strategy).
  double expected_probes = 0.0;
  // P[strategy terminates with an acquired quorum] — equals availability for
  // strategies that stop exactly when acceptance is decided.
  double acquire_probability = 0.0;
  // position_probe_probability[j] = P[the (j+1)-th probe is issued]; this is
  // the load of the server in position j of the fixed order, and
  // position_probe_probability[0] == 1 for any deterministic strategy.
  std::vector<double> position_probe_probability;
  // probes_pmf[i] = P[total probes == i], i in [0, n].
  std::vector<double> probes_pmf;
  // E[probes | acquired] and E[probes | failed] (0 when the branch has
  // probability 0); used by the conditional load/probe bounds in Sect. 7.1.
  double expected_probes_acquired = 0.0;
  double expected_probes_failed = 0.0;
};

// Analyzes a sequential strategy over n servers that are each up
// independently with probability `up_prob`.
SequentialAnalysis analyze_sequential(int n, double up_prob, const StopRule& rule);

// The counting rules of the paper's strategies over n servers: OPT_d's
// ServerProbe rules and OPT_a's probe-everything rule, both at need alpha.
CountingRule opt_d_stop_rule(int n, int alpha);
CountingRule opt_a_stop_rule(int n, int alpha);

}  // namespace sqs
