// Ablation study of the design choices DESIGN.md calls out:
//
//   A1. OPT_d without the LADB tail rule (acquire only at 2a successes):
//       probe complexity barely moves, but availability drops from OPT_a's
//       optimum to P[>= 2a up] — the tail layer is what preserves
//       optimality.
//   A2. OPT_d without the early-failure rule (probe to exhaustion on
//       hopeless configurations): availability unchanged, but failed
//       acquisitions cost n probes instead of n+1-alpha.
//   A3. OPT_d without the 2a early-acquire rule == OPT_a: probes jump from
//       O(1) to n.
//   A4. Composition without the LADC cushion (fall straight from UQ to
//       OPT_a): availability unchanged, but the UQ-miss path pays ~n probes
//       instead of ~k/(1-p) — the cushion is what keeps E[probes] near the
//       inner system's.
//
// All OPT_d-variant numbers are exact (sequential DP), not sampled.

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/composition.h"
#include "core/constructions.h"
#include "probe/engine.h"
#include "probe/measurements.h"
#include "probe/sequential_analysis.h"
#include "uqs/majority.h"
#include "util/binomial.h"
#include "util/table.h"

#include "obs/telemetry.h"
#include "runtime/thread_pool.h"

namespace sqs {
namespace {

void optd_rule_ablation() {
  const int n = 60, alpha = 2;
  Table table({"p", "variant", "E[probes]", "E[probes | failed]",
               "1 - acquire probability"});
  for (double p : {0.1, 0.45, 0.7, 0.9}) {
    struct Variant {
      const char* name;
      StopRule rule;
    };
    const Variant variants[] = {
        {"full OPT_d", opt_d_stop_rule(n, alpha)},
        // Acquires at 2a successes; still fails early once they are
        // unreachable.
        {"A1: no LADB tail rule",
         CountingRule{n, 2 * alpha, CountingRule::Acquire::kAtNeed}},
        {"A2: no early failure",
         [n, alpha](int i, int pos) {
           if (pos >= 2 * alpha || pos >= n + alpha - i)
             return StepDecision::kAcquire;
           if (i == n) return StepDecision::kFail;
           return StepDecision::kContinue;
         }},
        {"A3: no 2a early acquire (OPT_a)", opt_a_stop_rule(n, alpha)},
    };
    for (const Variant& v : variants) {
      const auto a = analyze_sequential(n, 1 - p, v.rule);
      table.add_row({Table::fmt(p, 2), v.name, Table::fmt(a.expected_probes, 3),
                     Table::fmt(a.expected_probes_failed, 2),
                     Table::fmt_sci(1.0 - a.acquire_probability)});
    }
  }
  table.print("OPT_d stop-rule ablation (n=60, alpha=2; exact DP)");
  std::printf(
      "  read: A1 loses availability (acquire prob = P[Bin >= 2a], not\n"
      "  P[Bin >= a]); A2 keeps availability but failure costs ~n probes;\n"
      "  A3 keeps availability but every acquisition costs n probes.\n");
}

// Composition variant without phase 2: UQ, then straight to OPT_a.
class NoCushionStrategy : public ProbeStrategy {
 public:
  NoCushionStrategy(const QuorumFamily* uq, int n, int alpha)
      : uq_(uq), k_(uq->universe_size()), n_(n), alpha_(alpha),
        inner_(uq->make_probe_strategy()) {
    reset(nullptr);
  }

  void reset(Rng* rng) override {
    inner_->reset(rng);
    observed_ = SignedSet(n_);
    probed_.assign(static_cast<std::size_t>(n_), false);
    phase2_idx_ = 0;
    total_pos_ = 0;
    status_ = ProbeStatus::kInProgress;
    in_phase2_ = false;
    sync();
  }

  int universe_size() const override { return n_; }
  ProbeStatus status() const override { return status_; }

  int next_server() const override {
    return in_phase2_ ? phase2_idx_ : inner_->next_server();
  }

  void observe(int server, bool reached) override {
    probed_[static_cast<std::size_t>(server)] = true;
    if (reached) {
      observed_.add_positive(server);
      ++total_pos_;
    } else {
      observed_.add_negative(server);
    }
    if (!in_phase2_) {
      inner_->observe(server, reached);
      sync();
    } else {
      advance();
    }
  }

  SignedSet acquired_quorum() const override { return quorum_; }
  bool is_adaptive() const override { return true; }
  bool is_randomized() const override { return inner_->is_randomized(); }

 private:
  void sync() {
    switch (inner_->status()) {
      case ProbeStatus::kInProgress:
        break;
      case ProbeStatus::kAcquired: {
        const SignedSet inner_quorum = inner_->acquired_quorum();
        quorum_ = SignedSet(n_);
        inner_quorum.positive().for_each(
            [&](std::size_t i) { quorum_.add_positive(static_cast<int>(i)); });
        status_ = ProbeStatus::kAcquired;
        break;
      }
      case ProbeStatus::kNoQuorum:
        in_phase2_ = true;
        advance();
        break;
    }
  }

  // Probe every remaining server; decide at the end (pure OPT_a).
  void advance() {
    while (phase2_idx_ < n_ && probed_[static_cast<std::size_t>(phase2_idx_)])
      ++phase2_idx_;
    if (phase2_idx_ >= n_) {
      if (total_pos_ >= alpha_) {
        quorum_ = observed_;
        status_ = ProbeStatus::kAcquired;
      } else {
        status_ = ProbeStatus::kNoQuorum;
      }
    }
  }

  const QuorumFamily* uq_;
  int k_;
  int n_;
  int alpha_;
  std::unique_ptr<ProbeStrategy> inner_;
  SignedSet observed_{0};
  SignedSet quorum_{0};
  std::vector<bool> probed_;
  int phase2_idx_ = 0;
  int total_pos_ = 0;
  bool in_phase2_ = false;
  ProbeStatus status_ = ProbeStatus::kInProgress;
};

void cushion_ablation() {
  const int n = 100, alpha = 2;
  Table table({"p", "variant", "E[probes]", "acquire rate", "load"});
  for (double p : {0.1, 0.3, 0.45}) {
    auto maj = std::make_shared<MajorityFamily>(9);
    const CompositionFamily with_cushion(maj, n, alpha);
    const ProbeMeasurement m1 = measure_probes(with_cushion, p, 20000, Rng(1));
    table.add_row({Table::fmt(p, 2), "UQ + LADC cushion + OPT_a",
                   Table::fmt(m1.probes_overall.mean(), 2),
                   Table::fmt(m1.acquired.estimate(), 5),
                   Table::fmt(m1.load(), 3)});

    // Without the cushion: same phases minus LADC.
    NoCushionStrategy strategy(maj.get(), n, alpha);
    Rng rng(2);
    RunningStat probes;
    Proportion acquired;
    std::vector<long> counts(static_cast<std::size_t>(n), 0);
    const int trials = 20000;
    for (int t = 0; t < trials; ++t) {
      Configuration c(Bitset(static_cast<std::size_t>(n)));
      for (int i = 0; i < n; ++i) c.set_up(i, !rng.bernoulli(p));
      ConfigurationOracle oracle(&c);
      Rng srng = rng.split(t);
      const ProbeRecord record = run_probe(strategy, oracle, &srng);
      probes.add(record.num_probes);
      acquired.add(record.acquired);
      record.probed.positive().for_each([&](std::size_t i) { ++counts[i]; });
      record.probed.negative().for_each([&](std::size_t i) { ++counts[i]; });
    }
    double load = 0.0;
    for (long c : counts)
      load = std::max(load, static_cast<double>(c) / trials);
    table.add_row({Table::fmt(p, 2), "A4: UQ + OPT_a (no cushion)",
                   Table::fmt(probes.mean(), 2),
                   Table::fmt(acquired.estimate(), 5), Table::fmt(load, 3)});
  }
  table.print("Composition cushion ablation (Majority(9) inner, n=100, a=2)");
  std::printf(
      "  read: availability identical; without the cushion every UQ miss\n"
      "  pays ~n probes, so E[probes] grows with n instead of staying near\n"
      "  PC(UQ) + (1-Avail(UQ)) * k/(1-p).\n");
}

void cushion_scaling() {
  // The cushion's value grows with n: E[probes] of the no-cushion variant
  // scales linearly in n at fixed UQ-miss rate; with the cushion it is flat.
  const int alpha = 2;
  const double p = 0.3;
  Table table({"n", "with cushion E[probes]", "no cushion E[probes]"});
  for (int n : {50, 100, 200, 400}) {
    auto maj = std::make_shared<MajorityFamily>(9);
    const CompositionFamily with_cushion(maj, n, alpha);
    const ProbeMeasurement m1 = measure_probes(with_cushion, p, 10000, Rng(n));
    NoCushionStrategy strategy(maj.get(), n, alpha);
    Rng rng(n + 1);
    RunningStat probes;
    for (int t = 0; t < 10000; ++t) {
      Configuration c(Bitset(static_cast<std::size_t>(n)));
      for (int i = 0; i < n; ++i) c.set_up(i, !rng.bernoulli(p));
      ConfigurationOracle oracle(&c);
      Rng srng = rng.split(t);
      probes.add(run_probe(strategy, oracle, &srng).num_probes);
    }
    table.add_row({std::to_string(n), Table::fmt(m1.probes_overall.mean(), 2),
                   Table::fmt(probes.mean(), 2)});
  }
  table.print("Cushion ablation vs n (p=0.3): flat vs linear growth");
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  std::printf("Ablation study of OPT_d's stop rules and the composition cushion.\n");
  sqs::optd_rule_ablation();
  sqs::cushion_ablation();
  sqs::cushion_scaling();
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
