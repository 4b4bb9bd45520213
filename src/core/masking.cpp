#include "core/masking.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "core/batch.h"

#include "util/binomial.h"

namespace sqs {

int masking_threshold(int n, int b) {
  assert(b >= 0 && n >= 2 * b + 1);
  // Smallest q with 2q - n >= 2b + 1: q = ceil((n + 2b + 1) / 2).
  return (n + 2 * b + 2) / 2;
}

// --- MaskingThresholdFamily ---

MaskingThresholdFamily::MaskingThresholdFamily(int n, int b)
    : n_(n), threshold_(masking_threshold(n, b)), b_(b) {
  assert(threshold_ <= n_);
}

std::string MaskingThresholdFamily::name() const {
  return "MaskingThreshold(n=" + std::to_string(n_) +
         ",b=" + std::to_string(b_) + ")";
}

bool MaskingThresholdFamily::accepts(const Configuration& config) const {
  return config.num_up() >= static_cast<std::size_t>(threshold_);
}

void MaskingThresholdFamily::accepts_batch(const WorldBatch& worlds,
                                           Bitset& out) const {
  batch_count_at_least(worlds, threshold_, out);
}

double MaskingThresholdFamily::availability(double p) const {
  return binom_tail_geq(n_, threshold_, 1.0 - p);
}

// The threshold walk at the masking vote count: the reached servers form
// the quorum.
std::optional<CountingWalk> MaskingThresholdFamily::counting_walk() const {
  return CountingWalk(identity_order(n_), threshold_,
                      CountingRule::Acquire::kAtNeed, /*shuffled=*/true);
}

// --- MaskingOptAFamily ---

MaskingOptAFamily::MaskingOptAFamily(int n, int alpha, int b)
    : n_(n),
      requested_alpha_(alpha),
      alpha_m_(std::max(alpha, masking_threshold(n, b))),
      b_(b) {
  assert(alpha >= 1 && b >= 0 && n >= 2 * b + 1);
  assert(alpha_m_ <= n_);
}

std::string MaskingOptAFamily::name() const {
  return "MaskingOPT_a(n=" + std::to_string(n_) +
         ",a=" + std::to_string(requested_alpha_) +
         ",b=" + std::to_string(b_) + ")";
}

bool MaskingOptAFamily::accepts(const Configuration& config) const {
  return config.num_up() >= static_cast<std::size_t>(alpha_m_);
}

void MaskingOptAFamily::accepts_batch(const WorldBatch& worlds,
                                      Bitset& out) const {
  batch_count_at_least(worlds, alpha_m_, out);
}

double MaskingOptAFamily::availability(double p) const {
  return binom_tail_geq(n_, alpha_m_, 1.0 - p);
}

// The OPT_a walk at alpha_m: probe all n servers in index order and
// acquire the full observed configuration.
std::optional<CountingWalk> MaskingOptAFamily::counting_walk() const {
  return CountingWalk(identity_order(n_), alpha_m_,
                      CountingRule::Acquire::kAfterAll);
}

// --- MaskingCompositionFamily ---

namespace {

int masking_comp_alpha(int k, int n, int alpha, int b) {
  const int q_in = masking_threshold(k, b);
  int a = std::max(alpha, masking_threshold(n, b));
  a = std::max(a, n + 2 * b + 1 - q_in);
  return a;
}

}  // namespace

MaskingCompositionFamily::MaskingCompositionFamily(int k, int n, int alpha,
                                                   int b)
    : k_(k),
      n_(n),
      q_in_(masking_threshold(k, b)),
      alpha_m_(masking_comp_alpha(k, n, alpha, b)),
      b_(b),
      inner_(k, b) {
  assert(alpha >= 1 && b >= 0);
  assert(2 * b + 1 <= k_ && k_ <= n_);
  assert(alpha_m_ <= n_ && "inner quorum too small to mask b liars at n");
}

std::string MaskingCompositionFamily::name() const {
  return "MaskingComp(k=" + std::to_string(k_) + ",n=" + std::to_string(n_) +
         ",a=" + std::to_string(alpha_m_) + ",b=" + std::to_string(b_) + ")";
}

bool MaskingCompositionFamily::accepts(const Configuration& config) const {
  if (config.num_up() >= static_cast<std::size_t>(alpha_m_)) return true;
  int up_inner = 0;
  for (int i = 0; i < k_; ++i) up_inner += config.is_up(i) ? 1 : 0;
  return up_inner >= q_in_;
}

double MaskingCompositionFamily::availability(double p) const {
  // Condition on j = up servers among the inner k: the inner branch accepts
  // outright at j >= q_in; otherwise the tail needs alpha_m - j of the
  // remaining n-k servers.
  const double u = 1.0 - p;
  const std::vector<double> pmf = binom_pmf_vector(k_, u);
  double total = 0.0;
  for (int j = 0; j <= k_; ++j) {
    const double tail =
        j >= q_in_ ? 1.0 : binom_tail_geq(n_ - k_, alpha_m_ - j, u);
    total += pmf[static_cast<std::size_t>(j)] * tail;
  }
  return total;
}

namespace {

// Two-phase masking composition acquisition. Phase 1 delegates to the
// inner masking threshold strategy over {0..k-1}; if it acquires, its
// reached set (widened to n) is the quorum. On inner failure, phase 2
// sweeps every not-yet-probed server in index order (the inner strategy
// may have stopped early, so the sweep starts at 0 and skips probed
// slots), counting every positive observed so far, acquiring the full
// observed configuration at alpha_m positives.
class MaskingCompositionStrategy : public ProbeStrategy {
 public:
  MaskingCompositionStrategy(const QuorumFamily* inner, int k, int n,
                             int alpha_m)
      : k_(k), n_(n), alpha_m_(alpha_m), inner_(inner->make_probe_strategy()) {
    reset(nullptr);
  }

  void reset(Rng* rng) override {
    inner_->reset(rng);
    observed_.reshape(n_);
    quorum_.reshape(n_);
    probed_.assign(static_cast<std::size_t>(n_), false);
    phase_ = 1;
    next_tail_ = 0;
    total_pos_ = 0;
    num_probed_ = 0;
    status_ = ProbeStatus::kInProgress;
    sync_with_inner();
  }

  int universe_size() const override { return n_; }
  ProbeStatus status() const override { return status_; }

  int next_server() const override {
    assert(status_ == ProbeStatus::kInProgress);
    return phase_ == 1 ? inner_->next_server() : next_tail_;
  }

  void observe(int server, bool reached) override {
    assert(status_ == ProbeStatus::kInProgress);
    assert(!probed_[static_cast<std::size_t>(server)]);
    probed_[static_cast<std::size_t>(server)] = true;
    ++num_probed_;
    if (reached) {
      observed_.add_positive(server);
      ++total_pos_;
    } else {
      observed_.add_negative(server);
    }
    if (phase_ == 1) {
      assert(server < k_);
      inner_->observe(server, reached);
      sync_with_inner();
    } else {
      assert(server == next_tail_);
      settle_tail();
    }
  }

  SignedSet acquired_quorum() const override { return quorum_; }
  void acquired_quorum_into(SignedSet& out) const override { out = quorum_; }
  bool is_adaptive() const override { return true; }
  bool is_randomized() const override { return inner_->is_randomized(); }

 private:
  void sync_with_inner() {
    switch (inner_->status()) {
      case ProbeStatus::kInProgress:
        break;
      case ProbeStatus::kAcquired: {
        const SignedSet inner_q = inner_->acquired_quorum();
        quorum_.reshape(n_);
        inner_q.positive().for_each([&](std::size_t i) {
          quorum_.add_positive(static_cast<int>(i));
        });
        inner_q.negative().for_each([&](std::size_t i) {
          quorum_.add_negative(static_cast<int>(i));
        });
        status_ = ProbeStatus::kAcquired;
        break;
      }
      case ProbeStatus::kNoQuorum:
        phase_ = 2;
        settle_tail();
        break;
    }
  }

  void settle_tail() {
    if (total_pos_ >= alpha_m_) {
      quorum_ = observed_;
      status_ = ProbeStatus::kAcquired;
      return;
    }
    const int remaining = n_ - num_probed_;
    if (total_pos_ + remaining < alpha_m_) {
      status_ = ProbeStatus::kNoQuorum;
      return;
    }
    while (next_tail_ < n_ && probed_[static_cast<std::size_t>(next_tail_)])
      ++next_tail_;
    assert(next_tail_ < n_ && "remaining > 0 implies an unprobed server");
  }

  int k_;
  int n_;
  int alpha_m_;
  std::unique_ptr<ProbeStrategy> inner_;
  SignedSet observed_{0};
  SignedSet quorum_{0};
  std::vector<bool> probed_;
  int phase_ = 1;
  int next_tail_ = 0;
  int total_pos_ = 0;
  int num_probed_ = 0;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

}  // namespace

std::unique_ptr<ProbeStrategy> MaskingCompositionFamily::make_probe_strategy()
    const {
  return std::make_unique<MaskingCompositionStrategy>(&inner_, k_, n_,
                                                      alpha_m_);
}

}  // namespace sqs
