// Structural audit of Figs. 2-5 (the constructions) and the Sect. 5
// optimality facts that are diagrams/proofs rather than measurements:
//
//   Fig. 2 / Theorem 14:  OPT_a = all configurations with >= alpha positives;
//   Fig. 3 / Theorem 20:  necessary shape of optimal-availability quorums;
//   Fig. 4 / Theorem 34:  OPT_d's LADA/LADB layering;
//   Fig. 5 / Theorem 41:  the composition's three bands (UQ, LADC, OPT_a);
//   Theorems 22/23/24:    OPT_b, OPT_c/HOLE, and the no-global-minimum pair.

#include <cmath>
#include <cstdio>

#include "core/composition.h"
#include "core/constructions.h"
#include "core/optimality.h"
#include "probe/engine.h"
#include "uqs/majority.h"
#include "util/table.h"

#include "obs/telemetry.h"
#include "runtime/thread_pool.h"

namespace sqs {
namespace {

void fig2_opt_a() {
  Table table({"(n, alpha)", "|OPT_a| quorums", "valid SQS", "Theorem 20",
               "Avail(p=0.3)"});
  for (const auto& [n, alpha] :
       {std::pair<int, int>{5, 1}, {6, 2}, {8, 2}, {9, 3}}) {
    const ExplicitSqs a = opt_a_explicit(n, alpha);
    char label[32];
    std::snprintf(label, sizeof label, "(%d,%d)", n, alpha);
    table.add_row({label,
                   std::to_string(a.num_quorums()),
                   a.is_valid_sqs() ? "yes" : "NO",
                   theorem20_violation(a).has_value() ? "VIOLATED" : "holds",
                   Table::fmt(a.availability(0.3), 6)});
  }
  table.print("Fig. 2 audit: OPT_a (all configurations with >= alpha positives)");
}

void fig3_forms() {
  // Classify the quorums of each optimal construction into Fig. 3's two
  // forms: |Q+| >= 2 alpha (any size >= 2 alpha), or
  // alpha <= |Q+| <= 2a-1 with |Q| >= n + alpha - |Q+|.
  const int n = 8, alpha = 2;
  Table table({"construction", "form A (|Q+|>=2a)", "form B (big, few +)",
               "other (would violate Thm 20)"});
  for (const ExplicitSqs& q : {opt_a_explicit(n, alpha), opt_b_explicit(n, alpha),
                               opt_c_explicit(n, alpha), opt_d_explicit(n, alpha)}) {
    long form_a = 0, form_b = 0, other = 0;
    for (const auto& quorum : q.quorums()) {
      const int pos = static_cast<int>(quorum.positive_count());
      const int size = static_cast<int>(quorum.size());
      if (pos >= 2 * alpha) {
        ++form_a;
      } else if (pos >= alpha && size >= n + alpha - pos) {
        ++form_b;
      } else {
        ++other;
      }
    }
    table.add_row({q.name(), std::to_string(form_a), std::to_string(form_b),
                   std::to_string(other)});
  }
  table.print("Fig. 3 audit (n=8, a=2): every quorum fits one of the two forms");
}

void fig4_opt_d_layers() {
  const int n = 8, alpha = 2;
  Table table({"layer", "i range", "sets", "membership rule"});
  long lada_total = 0, ladb_total = 0;
  for (int i = 2 * alpha; i <= n - alpha; ++i)
    lada_total += static_cast<long>(lada_explicit(n, i, alpha).size());
  for (int i = n - alpha + 1; i <= n; ++i)
    ladb_total += static_cast<long>(ladb_explicit(n, i, alpha).size());
  table.add_row({"LADA", "[2a, n-a] = [4, 6]", std::to_string(lada_total),
                 "prefix signed, |S+| >= 2a"});
  table.add_row({"LADB", "[n-a+1, n] = [7, 8]", std::to_string(ladb_total),
                 "prefix signed, |S+| >= n+a-i"});
  const ExplicitSqs d = opt_d_explicit(n, alpha);
  table.add_row({"OPT_d = union", "", std::to_string(d.num_quorums()),
                 d.is_valid_sqs() ? "valid SQS" : "INVALID"});
  table.print("Fig. 4 audit: OPT_d layer structure (n=8, a=2)");
  std::printf("  acceptance set == OPT_a: %s\n",
              [&] {
                const ExplicitSqs as = d.acceptance_set();
                const ExplicitSqs a = opt_a_explicit(n, alpha);
                if (as.num_quorums() != a.num_quorums()) return "NO";
                for (const auto& q : a.quorums())
                  if (!as.contains_quorum(q)) return "NO";
                return "yes (Theorem 34)";
              }());
}

void fig5_composition_bands() {
  // Run the composed strategy against targeted configurations and report
  // which band (Fig. 5) the acquired quorum came from.
  const int k = 7, n = 16, alpha = 2;
  auto maj = std::make_shared<MajorityFamily>(k);
  const CompositionFamily comp(maj, n, alpha);
  auto strategy = comp.make_probe_strategy();
  Table table({"scenario", "probes", "band", "quorum"});

  auto run_case = [&](const char* name, const Configuration& c) {
    ConfigurationOracle oracle(&c);
    Rng rng(13);
    const ProbeRecord record = run_probe(*strategy, oracle, &rng);
    const char* band = "none (failed)";
    if (record.acquired) {
      if (record.quorum.negative_count() == 0 &&
          record.quorum.size() <= static_cast<std::size_t>(k)) {
        band = "UQ";
      } else if (record.quorum.size() < static_cast<std::size_t>(n)) {
        band = "LADC cushion";
      } else {
        band = "OPT_a";
      }
    }
    table.add_row({name, std::to_string(record.num_probes), band,
                   record.acquired ? record.quorum.to_string() : "-"});
  };

  run_case("all up", Configuration(n, 0xFFFF));
  {
    Bitset up = Bitset::all_set(static_cast<std::size_t>(n));
    for (int i = 0; i < k; ++i) up.reset(static_cast<std::size_t>(i));
    run_case("first k down", Configuration(up));
  }
  {
    Bitset up(static_cast<std::size_t>(n));
    up.set(14);
    up.set(15);
    run_case("only 2 up (tail)", Configuration(up));
  }
  {
    Bitset up(static_cast<std::size_t>(n));
    up.set(15);
    run_case("only 1 up (< alpha)", Configuration(up));
  }
  table.print("Fig. 5 audit: the three bands of Majority(7)+OPT_a (n=16, a=2)");
}

void theorems_22_23_24() {
  const int n = 7, alpha = 2;
  const ExplicitSqs a = opt_a_explicit(n, alpha);
  const ExplicitSqs b = opt_b_explicit(n, alpha);
  const ExplicitSqs c = opt_c_explicit(n, alpha);
  Table table({"fact", "verdict"});
  table.add_row({"OPT_b valid SQS (Thm 22)", b.is_valid_sqs() ? "yes" : "NO"});
  table.add_row({"Avail(OPT_b) == Avail(OPT_a)",
                 std::abs(b.availability(0.3) - a.availability(0.3)) < 1e-12
                     ? "yes"
                     : "NO"});
  table.add_row({"OPT_c valid SQS (Thm 23)", c.is_valid_sqs() ? "yes" : "NO"});
  table.add_row({"Avail(OPT_c) == Avail(OPT_a)",
                 std::abs(c.availability(0.3) - a.availability(0.3)) < 1e-12
                     ? "yes"
                     : "NO"});
  const auto [qb, qc] = theorem24_witnesses(n, alpha);
  table.add_row({"Thm 24 witnesses incompatible (no global minimum)",
                 !SignedSet::compatible(qb, qc, alpha) ? "yes" : "NO"});
  table.add_row({"witness from OPT_b", qb.to_string()});
  table.add_row({"witness from OPT_c", qc.to_string()});
  table.print("Theorems 22/23/24 audit (n=7, a=2)");
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  std::printf("Construction audits for Figs. 2-5 and Theorems 14/20/22/23/24/34/41.\n");
  sqs::fig2_opt_a();
  sqs::fig3_forms();
  sqs::fig4_opt_d_layers();
  sqs::fig5_composition_bands();
  sqs::theorems_22_23_24();
  return sqs::obs::export_telemetry_files() ? 0 : 1;
}
