// The witness model (Yu, DISC 2003 — reference [17] of the paper).
//
// The paper describes its predecessor as "an implicit (non-optimal) SQS
// construction": a fixed set of w designated *witnesses* is probed, and a
// client acquires by recording a full signed observation of the witness set
// with at least alpha positive replies. Formally the quorums are
//
//   { S : S is a full sign assignment over the w witnesses, |S+| >= alpha }.
//
// Any two such quorums either intersect positively or, being full
// assignments over the same w servers with disjoint positive parts, have
// dual overlap |S+| + |T+| >= 2 alpha — so this is an SQS (it is exactly
// OPT_a over the witness subuniverse, embedded in n servers). It is
// *non-optimal*: only the w witnesses contribute to availability
// (P[Bin(w, 1-p) >= alpha] < P[Bin(n, 1-p) >= alpha] for w < n), which is
// the gap the paper's OPT_a/OPT_d constructions close. Probe complexity is
// always exactly w (every witness is probed), already O(1) for constant w —
// the property [17] exploited and this paper strengthens to optimality.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/quorum_family.h"

namespace sqs {

class WitnessFamily : public QuorumFamily {
 public:
  // `witnesses` are the designated server indices (distinct, within n).
  WitnessFamily(int n, std::vector<int> witnesses, int alpha);
  // Convenience: witnesses = the first w servers.
  WitnessFamily(int n, int w, int alpha);

  int num_witnesses() const { return static_cast<int>(witnesses_.size()); }

  std::string name() const override;
  int universe_size() const override { return n_; }
  int alpha() const override { return alpha_; }
  bool is_strict() const override { return false; }
  // Accepts iff >= alpha witnesses are up (non-witness servers are inert).
  bool accepts(const Configuration& config) const override;
  int min_quorum_size() const override { return num_witnesses(); }
  // P[Bin(w, 1-p) >= alpha].
  double availability(double p) const override;
  // Probes every witness (deterministic, non-adaptive — Theorem 9 applies),
  // failing early once alpha positives are impossible.
  std::optional<CountingWalk> counting_walk() const override;

 private:
  int n_;
  std::vector<int> witnesses_;
  int alpha_;
};

}  // namespace sqs
