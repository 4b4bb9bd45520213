#include "core/explicit_sqs.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/batch.h"

namespace sqs {

ExplicitSqs::ExplicitSqs(int n, int alpha, std::vector<SignedSet> quorums)
    : n_(n), alpha_(alpha), quorums_(std::move(quorums)) {}

void ExplicitSqs::add_quorum(SignedSet quorum) {
  assert(quorum.universe_size() == n_);
  quorums_.push_back(std::move(quorum));
}

std::optional<SqsViolation> ExplicitSqs::verify() const {
  for (std::size_t i = 0; i < quorums_.size(); ++i) {
    // A quorum with no positive element fails Definition 3 against itself.
    if (quorums_[i].positive_count() == 0) return SqsViolation{i, i};
    for (std::size_t j = i + 1; j < quorums_.size(); ++j) {
      if (!SignedSet::compatible(quorums_[i], quorums_[j], alpha_))
        return SqsViolation{i, j};
    }
  }
  return std::nullopt;
}

bool ExplicitSqs::can_add(const SignedSet& candidate) const {
  if (candidate.positive_count() == 0) return false;
  for (const auto& q : quorums_)
    if (!SignedSet::compatible(q, candidate, alpha_)) return false;
  return true;
}

ExplicitSqs ExplicitSqs::acceptance_set() const {
  assert(n_ <= 24 && "acceptance_set enumerates all 2^n configurations");
  ExplicitSqs out(n_, alpha_);
  for (std::uint64_t mask = 0; mask < (1ull << n_); ++mask) {
    Configuration config(n_, mask);
    if (accepts(config)) out.add_quorum(config.as_signed_set());
  }
  return out;
}

bool ExplicitSqs::dominates(const ExplicitSqs& other) const {
  for (const auto& big : other.quorums_) {
    bool covered = false;
    for (const auto& small : quorums_) {
      if (small.is_subset_of(big)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

ExplicitSqs ExplicitSqs::permuted(const std::vector<int>& perm) const {
  ExplicitSqs out(n_, alpha_);
  for (const auto& q : quorums_) out.add_quorum(q.permuted(perm));
  return out;
}

std::optional<std::vector<int>> ExplicitSqs::dominating_permutation(
    const ExplicitSqs& other) const {
  assert(n_ == other.n_);
  assert(n_ <= 8 && "dominating_permutation enumerates all n! permutations");
  std::vector<int> perm = identity_order(n_);
  do {
    if (dominates(other.permuted(perm))) return perm;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return std::nullopt;
}

bool ExplicitSqs::contains_quorum(const SignedSet& quorum) const {
  for (const auto& q : quorums_)
    if (q == quorum) return true;
  return false;
}

bool ExplicitSqs::is_strict() const {
  for (const auto& q : quorums_)
    if (q.negative_count() > 0) return false;
  return true;
}

bool ExplicitSqs::accepts(const Configuration& config) const {
  for (const auto& q : quorums_)
    if (config.accepts(q)) return true;
  return false;
}

void ExplicitSqs::accepts_batch(const WorldBatch& worlds, Bitset& out) const {
  out.reshape(static_cast<std::size_t>(worlds.num_trials()));
  for (std::size_t w = 0; w < worlds.num_lane_words(); ++w) {
    const std::uint64_t mask = worlds.lane_mask(w);
    const std::uint64_t* col = worlds.lanes(w);
    std::uint64_t accept = 0;
    for (const SignedSet& q : quorums_) {
      // Lanes where Q ⊆ C: every +i up, every -i down.
      std::uint64_t lanes = mask & ~accept;
      q.positive().for_each([&](std::size_t s) { lanes &= col[s]; });
      q.negative().for_each([&](std::size_t s) { lanes &= ~col[s]; });
      accept |= lanes;
      if (accept == mask) break;
    }
    out.set_word(w, accept);
  }
}

int ExplicitSqs::min_quorum_size() const {
  int best = n_;
  for (const auto& q : quorums_)
    best = std::min(best, static_cast<int>(q.size()));
  return quorums_.empty() ? 0 : best;
}

double ExplicitSqs::availability(double p) const {
  if (n_ <= 24) return availability_exact_enumeration(p);
  return QuorumFamily::availability(p);
}

namespace {

// Sequential probing with per-step early termination against the explicit
// quorum list. Deterministic and non-adaptive (fixed index order), so
// Theorem 9 applies to it.
class ExplicitSequentialStrategy : public ProbeStrategy {
 public:
  explicit ExplicitSequentialStrategy(const ExplicitSqs* system)
      : system_(system) {
    reset(nullptr);
  }

  void reset(Rng* /*rng*/) override {
    observed_ = SignedSet(system_->universe_size());
    next_ = 0;
    status_ = ProbeStatus::kInProgress;
    quorum_ = SignedSet(system_->universe_size());
    refresh();
  }

  int universe_size() const override { return system_->universe_size(); }
  ProbeStatus status() const override { return status_; }
  int next_server() const override { return next_; }

  void observe(int server, bool reached) override {
    assert(server == next_);
    if (reached) {
      observed_.add_positive(server);
    } else {
      observed_.add_negative(server);
    }
    ++next_;
    refresh();
  }

  SignedSet acquired_quorum() const override { return quorum_; }
  bool is_adaptive() const override { return false; }
  bool is_randomized() const override { return false; }

 private:
  void refresh() {
    // Acquired as soon as the observed signed prefix contains a quorum.
    for (const auto& q : system_->quorums()) {
      if (q.is_subset_of(observed_)) {
        quorum_ = q;
        status_ = ProbeStatus::kAcquired;
        return;
      }
    }
    // Fail as soon as every quorum is contradicted by some observation.
    bool some_quorum_possible = false;
    for (const auto& q : system_->quorums()) {
      if (!q.positive().intersects(observed_.negative()) &&
          !q.negative().intersects(observed_.positive())) {
        some_quorum_possible = true;
        break;
      }
    }
    if (!some_quorum_possible || next_ >= system_->universe_size()) {
      status_ = ProbeStatus::kNoQuorum;
    }
  }

  const ExplicitSqs* system_;
  SignedSet observed_;
  SignedSet quorum_;
  int next_ = 0;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace

std::unique_ptr<ProbeStrategy> ExplicitSqs::make_probe_strategy() const {
  return std::make_unique<ExplicitSequentialStrategy>(this);
}

}  // namespace sqs
