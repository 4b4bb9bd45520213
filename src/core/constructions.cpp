#include "core/constructions.h"

#include <cassert>

#include "core/batch.h"

#include "util/binomial.h"

namespace sqs {

namespace {

// Calls fn(mask) for every n-bit mask; callers filter by popcount. All
// explicit builders are bounded to n <= 24 by assertion.
template <typename Fn>
void for_each_mask(int n, Fn&& fn) {
  assert(n <= 24 && "explicit constructions enumerate 2^n sets");
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) fn(mask);
}

// The signed set over prefix {0..i-1} whose positive part is `mask`.
SignedSet prefix_signed_set(int n, int i, std::uint64_t mask) {
  SignedSet s(n);
  for (int j = 0; j < i; ++j) {
    if ((mask >> j) & 1u) {
      s.add_positive(j);
    } else {
      s.add_negative(j);
    }
  }
  return s;
}

}  // namespace

ExplicitSqs opt_a_explicit(int n, int alpha) {
  ExplicitSqs out(n, alpha);
  for_each_mask(n, [&](std::uint64_t mask) {
    if (__builtin_popcountll(mask) >= alpha)
      out.add_quorum(Configuration(n, mask).as_signed_set());
  });
  out.set_name("OPT_a(explicit)");
  return out;
}

ExplicitSqs opt_b_explicit(int n, int alpha) {
  ExplicitSqs out = opt_a_explicit(n, alpha);
  SignedSet extra(n);
  for (int i = 0; i < 2 * alpha; ++i) extra.add_positive(i);
  out.add_quorum(extra);
  out.set_name("OPT_b(explicit)");
  return out;
}

ExplicitSqs hole_explicit(int n, int alpha) {
  ExplicitSqs out(n, alpha);
  // One absent server ("the hole"), every other server signed, exactly
  // alpha+1 positives.
  for (int hole = 0; hole < n; ++hole) {
    for_each_mask(n, [&](std::uint64_t mask) {
      if ((mask >> hole) & 1u) return;
      if (__builtin_popcountll(mask) != alpha + 1) return;
      SignedSet s(n);
      for (int j = 0; j < n; ++j) {
        if (j == hole) continue;
        if ((mask >> j) & 1u) {
          s.add_positive(j);
        } else {
          s.add_negative(j);
        }
      }
      out.add_quorum(std::move(s));
    });
  }
  out.set_name("HOLE(explicit)");
  return out;
}

ExplicitSqs opt_c_explicit(int n, int alpha) {
  ExplicitSqs out = hole_explicit(n, alpha);
  const ExplicitSqs opt_a = opt_a_explicit(n, alpha);
  for (const auto& q : opt_a.quorums()) out.add_quorum(q);
  out.set_name("OPT_c(explicit)");
  return out;
}

std::vector<SignedSet> lad_explicit(int n, int i) {
  assert(i <= n && i <= 24);
  std::vector<SignedSet> out;
  for (std::uint64_t mask = 0; mask < (1ull << i); ++mask)
    out.push_back(prefix_signed_set(n, i, mask));
  return out;
}

std::vector<SignedSet> lada_explicit(int n, int i, int alpha) {
  assert(2 * alpha <= i && i <= n - alpha);
  std::vector<SignedSet> out;
  for (std::uint64_t mask = 0; mask < (1ull << i); ++mask)
    if (__builtin_popcountll(mask) >= 2 * alpha)
      out.push_back(prefix_signed_set(n, i, mask));
  return out;
}

std::vector<SignedSet> ladb_explicit(int n, int i, int alpha) {
  assert(n - alpha + 1 <= i && i <= n);
  std::vector<SignedSet> out;
  for (std::uint64_t mask = 0; mask < (1ull << i); ++mask)
    if (__builtin_popcountll(mask) >= n + alpha - i)
      out.push_back(prefix_signed_set(n, i, mask));
  return out;
}

ExplicitSqs opt_d_explicit(int n, int alpha) {
  ExplicitSqs out(n, alpha);
  for (int i = 2 * alpha; i <= n - alpha; ++i)
    for (auto& s : lada_explicit(n, i, alpha)) out.add_quorum(std::move(s));
  for (int i = n - alpha + 1; i <= n; ++i)
    for (auto& s : ladb_explicit(n, i, alpha)) out.add_quorum(std::move(s));
  out.set_name("OPT_d(explicit)");
  return out;
}

// --- OptAFamily ---

OptAFamily::OptAFamily(int n, int alpha) : n_(n), alpha_(alpha) {
  assert(n >= 2 * alpha && alpha >= 1);
}

std::string OptAFamily::name() const {
  return "OPT_a(n=" + std::to_string(n_) + ",a=" + std::to_string(alpha_) + ")";
}

bool OptAFamily::accepts(const Configuration& config) const {
  return config.num_up() >= static_cast<std::size_t>(alpha_);
}

void OptAFamily::accepts_batch(const WorldBatch& worlds, Bitset& out) const {
  batch_count_at_least(worlds, alpha_, out);
}

double OptAFamily::availability(double p) const {
  return binom_tail_geq(n_, alpha_, 1.0 - p);
}

// OPT_a quorums are whole configurations, so acquisition probes all n
// servers; the only early exit is failure once fewer than alpha servers can
// still be live.
std::optional<CountingWalk> OptAFamily::counting_walk() const {
  return CountingWalk(identity_order(n_), alpha_,
                      CountingRule::Acquire::kAfterAll);
}

// --- OptDFamily ---

OptDFamily::OptDFamily(int n, int alpha) : n_(n), alpha_(alpha) {
  assert(n >= 3 * alpha - 1 && alpha >= 1);
  order_ = identity_order(n);
}

std::string OptDFamily::name() const {
  return "OPT_d(n=" + std::to_string(n_) + ",a=" + std::to_string(alpha_) + ")";
}

bool OptDFamily::accepts(const Configuration& config) const {
  // As(OPT_d) = OPT_a (Theorem 34): a quorum exists iff >= alpha servers up.
  return config.num_up() >= static_cast<std::size_t>(alpha_);
}

void OptDFamily::accepts_batch(const WorldBatch& worlds, Bitset& out) const {
  batch_count_at_least(worlds, alpha_, out);
}

double OptDFamily::availability(double p) const {
  return binom_tail_geq(n_, alpha_, 1.0 - p);
}

void OptDFamily::set_probe_order(std::vector<int> order) {
  assert(static_cast<int>(order.size()) == n_);
  order_ = std::move(order);
}

std::optional<CountingWalk> OptDFamily::counting_walk() const {
  return CountingWalk(order_, alpha_, CountingRule::Acquire::kServerProbe);
}

}  // namespace sqs
