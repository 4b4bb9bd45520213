// The paper's SQS constructions.
//
// Explicit builders (exponential; for small n, tests, and optimality audits):
//   * opt_a_explicit  — Fig. 2: all configurations with >= alpha positives.
//   * opt_b_explicit  — Theorem 22: {1..2alpha} added to OPT_a.
//   * hole_explicit   — the HOLE family: |S+| = alpha+1, |S| = n-1, one
//                       server entirely absent.
//   * opt_c_explicit  — Theorem 23: HOLE ∪ OPT_a.
//   * lad_explicit / lada_explicit / ladb_explicit / opt_d_explicit —
//     Fig. 4's prefix layers and their union.
//
// Implicit families (scale to large n):
//   * OptAFamily — optimal availability (Theorem 16); closed-form
//     availability; probes everything (quorums have size n).
//   * OptDFamily — same availability, expected probes < 2alpha/(1-p)
//     (Theorem 35) via the sequential strategy with the ServerProbe stop
//     rules of Definition 26.

#pragma once

#include <memory>
#include <vector>

#include "core/explicit_sqs.h"
#include "core/quorum_family.h"

namespace sqs {

ExplicitSqs opt_a_explicit(int n, int alpha);
ExplicitSqs opt_b_explicit(int n, int alpha);
ExplicitSqs hole_explicit(int n, int alpha);
ExplicitSqs opt_c_explicit(int n, int alpha);

// LAD_i: all full sign assignments over the prefix {1..i} (Fig. 4).
std::vector<SignedSet> lad_explicit(int n, int i);
// LADA_i: members of LAD_i with at least 2 alpha positives (2a <= i <= n-a).
std::vector<SignedSet> lada_explicit(int n, int i, int alpha);
// LADB_i: members of LAD_i with at least n + alpha - i positives
// (n-a+1 <= i <= n).
std::vector<SignedSet> ladb_explicit(int n, int i, int alpha);
ExplicitSqs opt_d_explicit(int n, int alpha);

// OPT_a as a scalable family: accepts C iff |C+| >= alpha.
class OptAFamily : public QuorumFamily {
 public:
  OptAFamily(int n, int alpha);

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return alpha_; }
  bool is_strict() const override { return false; }
  bool accepts(const Configuration& config) const override;
  // Popcount ladder: |C+| >= alpha across 64 trials per word pass.
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override;
  int min_quorum_size() const override { return n_; }
  // Closed form: P[Bin(n, 1-p) >= alpha].
  double availability(double p) const override;
  std::optional<CountingWalk> counting_walk() const override;

 private:
  int n_;
  int alpha_;
};

// OPT_d as a scalable family. Acceptance (and hence availability) is
// identical to OPT_a (Theorem 34); the probe strategy stops as early as the
// ServerProbe rules allow:
//   acquired when  pos >= 2 alpha                (LADA layer)
//   acquired when  pos >= n + alpha - i          (LADB layer, i probes done)
//   failed   when  neg >= n + 1 - alpha          (no alpha live servers left)
class OptDFamily : public QuorumFamily {
 public:
  OptDFamily(int n, int alpha);

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return alpha_; }
  bool is_strict() const override { return false; }
  bool accepts(const Configuration& config) const override;
  // Same acceptance set as OPT_a (Theorem 34), same popcount ladder.
  void accepts_batch(const WorldBatch& worlds, Bitset& out) const override;
  int min_quorum_size() const override { return 2 * alpha_; }
  double availability(double p) const override;
  std::optional<CountingWalk> counting_walk() const override;

  // The probe order is a parameter (Sect. 6.3's rotation trick for
  // per-object load balancing): order[j] is the j-th server probed. All
  // clients of one object must share the order for Theorem 9 to apply.
  void set_probe_order(std::vector<int> order);

 private:
  int n_;
  int alpha_;
  std::vector<int> order_;
};

}  // namespace sqs
