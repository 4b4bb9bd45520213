// The ServerProbe problem (Definition 26) and its complexity g(n).
//
// g(n) lower-bounds the expected probe complexity of every SQS with optimal
// availability (Lemma 28), and OPT_d's sequential strategy matches it
// (Theorem 35). The paper gives closed-form expressions for
// f(i) = P[total probes <= i]; we implement those exactly, plus the
// dynamic-programming evaluation of the stop rules that the tests use as a
// cross-check.

#pragma once

namespace sqs {

// P[total probes <= i] for the ServerProbe problem with parameters
// (n, alpha) and success probability 1-p per probe, per Sect. 6.1:
//   0 <= i <= 2a-1        : 0
//   2a <= i <= n-a        : sum_{j=2a}^{i} a(i,j)
//   n-a+1 <= i <= n       : sum_{j=0}^{i+a-(n+1)} a(i,j) + sum_{j=n+a-i}^{i} a(i,j)
// where a(x,y) = C(x,y) p^(x-y) (1-p)^y.
double serverprobe_cdf(int n, int alpha, double p, int i);

// g(n) = sum_i i (f(i) - f(i-1)): the expected number of probes. Requires
// n >= 3 alpha - 1 (as in the paper's derivation).
double serverprobe_complexity(int n, int alpha, double p);

// The same expectation by the exact DP over (probes, successes) states
// (probe/sequential_analysis.h) with OPT_d's CountingRule, the three stop
// rules of Definition 26 — no closed forms.
double serverprobe_complexity_dp(int n, int alpha, double p);

// The paper's O(1) upper bound: g(n) < 2 alpha / (1 - p) for every n.
double serverprobe_upper_bound(int alpha, double p);

}  // namespace sqs
