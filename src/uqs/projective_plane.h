// Finite-projective-plane quorums (Maekawa 1985).
//
// For a prime q, the projective plane PG(2, q) has n = q^2 + q + 1 points
// and equally many lines; every line holds q + 1 points and any two lines
// meet in exactly one point — so the lines form a strict quorum system with
// quorum size ~sqrt(n) and, under a uniform choice of line, load
// (q+1)/n ~ 1/sqrt(n): the optimal load of Naor–Wool. This is the sharpest
// strict baseline for the load study and the natural composition input when
// load matters most (Corollary 46's regime x = Theta(sqrt n)).
//
// Construction: points are the 1-dimensional subspaces of GF(q)^3 in
// normalized form; the line with coefficient vector u contains exactly the
// points p with <u, p> = 0 (mod q). Same normalized representatives index
// both points and lines (the plane is self-dual).

#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/quorum_family.h"

namespace sqs {

// The orders this construction accepts: PG(2, q) is built for prime q only.
bool is_prime(int q);

class ProjectivePlaneFamily : public QuorumFamily {
 public:
  // q must be a prime (asserted); the universe has q^2 + q + 1 servers.
  explicit ProjectivePlaneFamily(int q);

  int q() const { return q_; }
  int num_lines() const { return universe_size(); }
  // The point ids on line `line` (q + 1 of them).
  const std::vector<int>& line_points(int line) const {
    return lines_[static_cast<std::size_t>(line)];
  }

  std::string name() const override;
  int universe_size() const override { return q_ * q_ + q_ + 1; }
  int alpha() const override { return 0; }
  bool is_strict() const override { return true; }
  // Accepts iff some line is fully live.
  bool accepts(const Configuration& config) const override;
  int min_quorum_size() const override { return q_ + 1; }
  // Randomized adaptive strategy: scans lines in a uniformly random order,
  // abandoning a line at its first dead point and reusing all results.
  std::unique_ptr<ProbeStrategy> make_probe_strategy() const override;

 private:
  int q_;
  std::vector<std::vector<int>> lines_;
};

}  // namespace sqs
