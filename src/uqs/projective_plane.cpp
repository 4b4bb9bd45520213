#include "uqs/projective_plane.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

namespace sqs {

bool is_prime(int q) {
  if (q < 2) return false;
  for (int d = 2; d * d <= q; ++d)
    if (q % d == 0) return false;
  return true;
}

namespace {

// Normalized homogeneous coordinates over GF(q): the canonical
// representative of each 1-dim subspace has its first nonzero entry == 1.
std::vector<std::array<int, 3>> normalized_points(int q) {
  std::vector<std::array<int, 3>> points;
  for (int a = 0; a < q; ++a)
    for (int b = 0; b < q; ++b) points.push_back({1, a, b});
  for (int b = 0; b < q; ++b) points.push_back({0, 1, b});
  points.push_back({0, 0, 1});
  return points;
}

}  // namespace

ProjectivePlaneFamily::ProjectivePlaneFamily(int q) : q_(q) {
  assert(is_prime(q) && "PG(2, q) is constructed here for prime q only");
  const auto points = normalized_points(q);
  const int n = universe_size();
  assert(static_cast<int>(points.size()) == n);

  lines_.resize(static_cast<std::size_t>(n));
  for (int line = 0; line < n; ++line) {
    const auto& u = points[static_cast<std::size_t>(line)];
    for (int p = 0; p < n; ++p) {
      const auto& x = points[static_cast<std::size_t>(p)];
      const int dot = (u[0] * x[0] + u[1] * x[1] + u[2] * x[2]) % q;
      if (dot == 0) lines_[static_cast<std::size_t>(line)].push_back(p);
    }
    assert(static_cast<int>(lines_[static_cast<std::size_t>(line)].size()) ==
           q + 1);
  }
}

std::string ProjectivePlaneFamily::name() const {
  return "PG2(q=" + std::to_string(q_) + ",n=" + std::to_string(universe_size()) +
         ")";
}

bool ProjectivePlaneFamily::accepts(const Configuration& config) const {
  for (const auto& line : lines_) {
    bool all = true;
    for (int p : line) all = all && config.is_up(p);
    if (all) return true;
  }
  return false;
}

namespace {

class PlaneStrategy : public ProbeStrategy {
 public:
  explicit PlaneStrategy(const ProjectivePlaneFamily* family) : family_(family) {
    line_order_.resize(static_cast<std::size_t>(family_->num_lines()));
    reset(nullptr);
  }

  void reset(Rng* rng) override {
    // From the identity order every time, so a reused strategy draws the
    // same order from `rng` as a fresh one.
    std::iota(line_order_.begin(), line_order_.end(), 0);
    if (rng != nullptr) std::shuffle(line_order_.begin(), line_order_.end(), *rng);
    known_.assign(static_cast<std::size_t>(family_->universe_size()), std::nullopt);
    line_idx_ = 0;
    point_idx_ = 0;
    quorum_ = SignedSet(family_->universe_size());
    status_ = ProbeStatus::kInProgress;
    pending_ = -1;
    advance();
  }

  int universe_size() const override { return family_->universe_size(); }
  ProbeStatus status() const override { return status_; }
  int next_server() const override { return pending_; }

  void observe(int server, bool reached) override {
    assert(server == pending_);
    known_[static_cast<std::size_t>(server)] = reached;
    advance();
  }

  SignedSet acquired_quorum() const override { return quorum_; }
  bool is_adaptive() const override { return true; }
  bool is_randomized() const override { return true; }

 private:
  void advance() {
    pending_ = -1;
    while (status_ == ProbeStatus::kInProgress) {
      if (line_idx_ >= static_cast<int>(line_order_.size())) {
        status_ = ProbeStatus::kNoQuorum;  // every line has a dead point
        return;
      }
      const auto& line = family_->line_points(
          line_order_[static_cast<std::size_t>(line_idx_)]);
      if (point_idx_ >= static_cast<int>(line.size())) {
        // Whole line live: it is the quorum.
        for (int p : line) quorum_.add_positive(p);
        status_ = ProbeStatus::kAcquired;
        return;
      }
      const int server = line[static_cast<std::size_t>(point_idx_)];
      const auto& k = known_[static_cast<std::size_t>(server)];
      if (!k.has_value()) {
        pending_ = server;
        return;
      }
      if (*k) {
        ++point_idx_;
      } else {
        ++line_idx_;
        point_idx_ = 0;
      }
    }
  }

  const ProjectivePlaneFamily* family_;
  std::vector<int> line_order_;
  std::vector<std::optional<bool>> known_;
  SignedSet quorum_{0};
  int line_idx_ = 0;
  int point_idx_ = 0;
  int pending_ = -1;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace

std::unique_ptr<ProbeStrategy> ProjectivePlaneFamily::make_probe_strategy() const {
  return std::make_unique<PlaneStrategy>(this);
}

}  // namespace sqs
