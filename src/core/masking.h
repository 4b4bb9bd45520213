// Masking-quorum variants (Malkhi–Reiter–Wool, "The Load and Availability
// of Byzantine Quorum Systems") of the repo's three workhorse families.
//
// A masking quorum system tolerates b *lying* replicas: any two quorums
// must intersect in >= 2b+1 servers, so the correct servers in the
// intersection (at least b+1 of them) outvote the at most b liars and a
// reader can always identify a genuinely written value by taking the
// highest-timestamped (ts, value) pair vouched for by b+1 replies.
//
// The paper's signed machinery trades deterministic intersection for
// availability under silent faults; lies break that trade, so the masking
// variants here buy the 2b+1 overlap back by raising the acceptance
// threshold:
//
//   threshold:    q >= ceil((n + 2b + 1) / 2)      (2q - n >= 2b + 1)
//   OPT_a:        alpha_m = max(alpha, that q)     (2 alpha_m - n >= 2b+1)
//   composition:  masking UQ over {0..k-1} with threshold q_in, plus an
//                 OPT_a tail with alpha_m >= n + 2b + 1 - q_in so the
//                 cross pair (inner quorum, full configuration) still
//                 overlaps in 2b+1; the LADC cushion is dropped because a
//                 deep cushion quorum can miss the inner universe entirely.
//
// Availability floors stay exact: every variant keeps a closed-form
// binomial availability (the composition's is a small DP over the inner
// universe), which is what the chaos harness checks measured availability
// against under a Byzantine fault plan (see mismatch/exact.h for the
// b-liars-discounted floor).

#pragma once

#include <memory>
#include <string>

#include "core/quorum_family.h"

namespace sqs {

// Smallest threshold q with 2q - n >= 2b + 1, i.e. any two q-subsets of n
// servers share at least 2b+1 elements. Requires n >= 2b + 1 (else no
// subset can outvote the liars).
int masking_threshold(int n, int b);

// Threshold family sized for b liars: all subsets of masking_threshold(n,b)
// servers are quorums. Not derived from uqs/ThresholdFamily, so the masking
// layer stays inside sqs_core (uqs links against core); its probe strategy
// is the same CountingStrategy threshold walk. Behaviorally it is a
// threshold system whose strict-majority special case is b = 0.
class MaskingThresholdFamily : public QuorumFamily {
 public:
  MaskingThresholdFamily(int n, int b);

  int threshold() const { return threshold_; }

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return 0; }
  // masking_threshold(n, b) > n/2, so any two quorums intersect: strict.
  bool is_strict() const override { return true; }
  bool accepts(const Configuration& config) const override;
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override;
  int min_quorum_size() const override { return threshold_; }
  // Closed form: P[Bin(n, 1-p) >= threshold].
  double availability(double p) const override;
  // Randomized non-adaptive: probes a uniformly shuffled order, acquiring
  // at `threshold` successes (the reached servers form the quorum).
  std::optional<CountingWalk> counting_walk() const override;
  int masking_b() const override { return b_; }

 private:
  int n_;
  int threshold_;
  int b_;
};

// OPT_a with the acceptance threshold raised to alpha_m =
// max(alpha, masking_threshold(n, b)). Quorums are full configurations
// (OPT_a's walk at need alpha_m probes all n servers), so two accepted
// configurations share >= 2 alpha_m - n >= 2b+1 positives. alpha() reports
// the effective alpha_m.
class MaskingOptAFamily : public QuorumFamily {
 public:
  MaskingOptAFamily(int n, int alpha, int b);

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return alpha_m_; }
  bool is_strict() const override { return false; }
  bool accepts(const Configuration& config) const override;
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override;
  int min_quorum_size() const override { return n_; }
  // Closed form: P[Bin(n, 1-p) >= alpha_m].
  double availability(double p) const override;
  std::optional<CountingWalk> counting_walk() const override;
  int masking_b() const override { return b_; }

 private:
  int n_;
  int requested_alpha_;
  int alpha_m_;
  int b_;
};

// Masking composition: a masking threshold UQ over {0..k-1} (quorum size
// q_in = masking_threshold(k, b)) unioned with an OPT_a tail over all n at
// alpha_m = max(alpha, masking_threshold(n, b), n + 2b + 1 - q_in). The
// three pair cases all intersect in >= 2b+1:
//   inner x inner:  2 q_in - k   >= 2b+1  (masking inner)
//   tail  x tail :  2 alpha_m - n >= 2b+1
//   inner x tail :  q_in + alpha_m - n >= 2b+1
// The probe strategy is two-phase: run the inner strategy over {0..k-1};
// on failure keep sweeping k..n-1 (reusing phase-1 observations) until
// alpha_m positives accumulate or too many servers are down.
class MaskingCompositionFamily : public QuorumFamily {
 public:
  // Requires 2b+1 <= k <= n.
  MaskingCompositionFamily(int k, int n, int alpha, int b);

  int inner_universe_size() const { return k_; }
  int inner_threshold() const { return q_in_; }

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return alpha_m_; }
  bool is_strict() const override { return false; }
  // Accepts iff >= q_in of the first k servers are up, or >= alpha_m of
  // all n are (either branch yields an acquirable quorum).
  bool accepts(const Configuration& config) const override;
  int min_quorum_size() const override { return q_in_; }
  // Exact DP over the inner universe: condition on j = up servers among
  // the first k, then the binomial tail over the remaining n-k.
  double availability(double p) const override;
  std::unique_ptr<ProbeStrategy> make_probe_strategy() const override;
  int masking_b() const override { return b_; }

 private:
  int k_;
  int n_;
  int q_in_;
  int alpha_m_;
  int b_;
  MaskingThresholdFamily inner_;
};

}  // namespace sqs
