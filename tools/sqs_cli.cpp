// sqs_cli — command-line explorer for the library.
//
//   sqs_cli avail   --family optd --n 50 --alpha 2 --p 0.3
//   sqs_cli probes  --family paths --l 4 --p 0.2 [--trials 20000]
//   sqs_cli nonintersect --n 24 --alpha 2 --p 0.1 --miss 0.2
//   sqs_cli verify  --n 3 --alpha 1 -1,3 1,-2,-3
//   sqs_cli trace   --servers 30 --obs 200000 --p 0.05 --miss 0.02
//   sqs_cli profile --family optd --n 16 --alpha 2
//   sqs_cli sweep   --kind avail --families optd,opta --ps 0.1,0.2,0.3
//   sqs_cli sweep   --kind nonintersect --n 24 --alphas 1,2,3 --misses 0.1,0.2
//                   [--partition-rate 0.2 --partition-fraction 0.5]
//   sqs_cli search  --target-nonint 1e-3 --target-avail 0.999 --n 24 --p 0.1
//   sqs_cli chaos   --scenario churn --n 12 --alpha 2 --replicates 4
//   sqs_cli serve   --family optd --n 12 --alpha 2 --rate 2000 --duration 5
//
// `serve` runs the staged replicated-register service (src/service): an
// open-loop load generator issues read/write ops at the target rate through
// the family's probe strategy over the extracted Transport, executed by the
// three-stage runner (parallel decode -> ordered solo -> parallel encode).
// `--rate` / `--duration` are validated (malformed values are rejected on
// stderr, never silently defaulted); `--scenario` overlays a fault timeline
// (none|partition|churn|gray|lossy|byzantine). Exit code 1 if an acked write
// was lost or a read returned a never-written value (fabricated read).
//
// `chaos` sweeps fault-injection scenarios (src/faults) through the
// register-experiment harness and checks the paper's invariants per
// scenario: availability above the exact-DP floor, stale reads within the
// epsilon^2alpha envelope, timestamp monotonicity, no lost acked write, and
// — for churn scenarios — the reconfiguration invariants (no lost acked
// write across epochs, no read from a retired server, view-refresh
// convergence, cross-epoch quorum intersection). Exit code 1 if any
// invariant is violated. `--scenario all` runs the whole grid; `--list`
// names the shipped scenarios and `--list-scenarios` tabulates their
// invariant budgets. Scenarios are data: `--dump-scenarios DIR` writes the
// grid as strict JSON (scenarios/ holds the checked-in set, schema in
// scenarios/README.md) and `--scenario-file F` replays one without
// recompiling; `serve --scenario-file F` replays the same file through the
// staged service, churn included. Both exit 2 before running a file whose
// fault plan does not validate against the run's fleet (a server or client
// index out of range, a magnitude outside its domain).
//
// `sweep` flattens the whole grid (every cell × every trial-chunk) into one
// submission on the shared thread pool; results are bit-identical to running
// the cells one by one. Every Monte Carlo command runs the batched (SoA
// bit-sliced) kernels; `sweep --batch scalar|batched|differential` picks the
// chunk-kernel policy (DESIGN.md §3.12): scalar runs the one-trial oracle
// loop (same bits, for bisecting), differential replays it per trial and
// aborts on the first disagreement. `search` finds the minimal alpha meeting the targets
// (exact DP by default, `--mc` for a sweep-backed Monte Carlo ladder) and
// then races the UQ + OPT_a compositions at that alpha by successive halving.
//
// Families: opta, optd, majority, grid (sqrt-n x sqrt-n), paths (--l),
// tree (--depth), pqs (--l as multiplier), plane (--q, prime), witness (--w),
// comp:<inner> (composition of the
// inner family over k servers with OPT_a over --n; e.g. comp:majority
// --k 9 --n 50 --alpha 2), and the masking variants masking-majority /
// masking-opta / masking-comp (--b liars tolerated, default 1; any two
// quorums intersect in >= 2b+1 servers so reads can outvote the liars).
//
// Numeric flags parse whole: a malformed or out-of-range value (`--n abc`,
// `--p 0.1x`, `--p 1.5`: every probability flag lies in [0, 1]) exits 2
// with "bad value '<v>' for --<flag>"; `--seed` is an unsigned 64-bit
// integer. A flag the command never reads (`--alpah`, `--family` where the
// sweep reads `--families`) exits 2 with "unknown flag --<flag>".
//
// Every Monte Carlo subcommand runs on the shared parallel trial runtime.
// `--threads N` (or the SQS_THREADS environment variable) picks the thread
// count; results are bit-identical whatever value is used.
//
// Telemetry: `--metrics FILE` writes a counter/histogram snapshot as JSON,
// `--trace FILE` writes a Chrome trace_event file (open in chrome://tracing
// or https://ui.perfetto.dev), `--trace-jsonl FILE` the same events as
// JSONL. Enabling telemetry never changes any reported number.
//
// Observability (this PR's layer; DESIGN.md section 3.11): `serve` accepts
// `--timeline FILE` (+ `--timeline-window-ms N`) for a windowed time-series
// of the served stream, keyed to virtual time and bit-identical at any
// thread count. `serve` and `chaos` keep an always-on flight recorder
// (per-thread rings, capacity `--flight-recorder-events N`); when a chaos
// invariant fails or serve loses an acked write, the merged causal dump is
// written to `--blackbox FILE` (defaults chaos_blackbox.jsonl /
// serve_blackbox.jsonl). Reconstruct one op with scripts/op_timeline.py.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/constructions.h"
#include "analysis/profile.h"
#include "faults/chaos.h"
#include "faults/scenario_io.h"
#include "core/explicit_sqs.h"
#include "mismatch/exact.h"
#include "mismatch/trace_gen.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "probe/measurements.h"
#include "probe/serverprobe.h"
#include "runtime/thread_pool.h"
#include "service/load_gen.h"
#include "service/runner.h"
#include "sweep/search.h"
#include "sweep/sweep.h"
#include "util/table.h"

namespace sqs {
namespace {

// `text` must parse whole as a T in range: anything else (`abc`, `0.1x`, an
// empty string, a value past the type's range) exits 2 naming the value and
// `what` it was given for, instead of being truncated or aborting.
template <typename T>
T parse_whole(const std::string& text, const std::string& what) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) {
    std::fprintf(stderr, "bad value '%s' for %s\n", text.c_str(),
                 what.c_str());
    std::exit(2);
  }
  return value;
}

// A probability: `text` parses whole and lies in [0, 1], or the command
// exits 2 naming the value and `what` it was given for.
double parse_probability(const std::string& text, const std::string& what) {
  const double value = parse_whole<double>(text, what);
  if (!(value >= 0.0 && value <= 1.0)) {
    std::fprintf(stderr,
                 "bad value '%s' for %s (need a probability in [0, 1])\n",
                 text.c_str(), what.c_str());
    std::exit(2);
  }
  return value;
}

// The command's flags. Every lookup records the key as read, so main()
// can reject a flag that the command never asked for (a misspelling).
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  bool has(const std::string& key) const { return find(key) != flags.end(); }
  int geti(const std::string& key, int fallback) const {
    return number(key, fallback);
  }
  double getd(const std::string& key, double fallback) const {
    return number(key, fallback);
  }
  // Every probability flag reads through here.
  double getp(const std::string& key, double fallback) const {
    auto it = find(key);
    return it == flags.end() ? fallback
                             : parse_probability(it->second, "--" + key);
  }
  std::uint64_t getu(const std::string& key, std::uint64_t fallback) const {
    return number(key, fallback);
  }
  std::string gets(const std::string& key, const std::string& fallback) const {
    auto it = find(key);
    return it == flags.end() ? fallback : it->second;
  }

  // The first flag no lookup asked for, or "" when there is none.
  std::string first_unread() const {
    for (const auto& entry : flags)
      if (read_.count(entry.first) == 0) return entry.first;
    return "";
  }

 private:
  std::map<std::string, std::string>::const_iterator find(
      const std::string& key) const {
    read_.insert(key);
    return flags.find(key);
  }

  template <typename T>
  T number(const std::string& key, T fallback) const {
    auto it = find(key);
    if (it == flags.end()) return fallback;
    return parse_whole<T>(it->second, "--" + key);
  }

  mutable std::set<std::string> read_;
};

Args parse(int argc, char** argv, int start) {
  Args args;
  bool positional_only = false;
  for (int i = start; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--") {
      positional_only = true;  // everything after is positional (e.g. -1,3)
      continue;
    }
    if (positional_only) {
      args.positional.push_back(std::move(token));
      continue;
    }
    if (token.rfind("--threads=", 0) == 0) continue;  // init_threads_from_args
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[key] = argv[++i];
      } else {
        args.flags[key] = "1";
      }
    } else {
      args.positional.push_back(std::move(token));
    }
  }
  return args;
}

// The data form of the --family flags (src/faults/family_spec.h), captured
// by value so chaos scenarios can name their family, re-instantiate it at
// churned sizes, and serialize it. Every command builds through its make().
FamilySpec spec_from_args(const std::string& kind, const Args& args) {
  FamilySpec spec;
  spec.kind = kind;
  spec.n = args.geti("n", 50);
  spec.alpha = args.geti("alpha", 2);
  spec.b = args.geti("b", 1);
  spec.k = args.geti("k", 9);
  // --l is the paths parameter, or the quorum-size multiplier for pqs.
  if (kind == "pqs" || kind == "comp:pqs")
    spec.pqs_l = args.getd("l", 1.0);
  else
    spec.l = args.geti("l", 4);
  spec.depth = args.geti("depth", 5);
  spec.q = args.geti("q", 5);
  spec.w = args.geti("w", 8);
  spec.side = args.geti("side", 0);
  return spec;
}

int cmd_avail(const Args& args) {
  const auto family = spec_from_args(args.gets("family", "optd"), args).make();
  if (family == nullptr) return 2;
  Table table({"p", "availability", "1-availability"});
  std::vector<double> ps;
  if (args.has("p")) {
    ps.push_back(args.getp("p", 0.3));
  } else {
    ps = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  }
  for (double p : ps) {
    const double a = family->availability(p);
    table.add_row({Table::fmt(p, 2), Table::fmt(a, 6),
                   Table::fmt_sci(std::max(0.0, 1.0 - a))});
  }
  table.print("availability of " + family->name());
  return 0;
}

int cmd_probes(const Args& args) {
  const auto family = spec_from_args(args.gets("family", "optd"), args).make();
  if (family == nullptr) return 2;
  const double p = args.getp("p", 0.3);
  const int trials = args.geti("trials", 20000);
  const ProbeMeasurement m =
      measure_probes(*family, p, trials, Rng(args.getu("seed", 1)));
  Table table({"metric", "value"});
  table.add_row({"E[probes] measured", Table::fmt(m.probes_overall.mean(), 3)});
  table.add_row({"E[probes | acquired]", Table::fmt(m.probes_acquired.mean(), 3)});
  table.add_row({"max probes seen", std::to_string(m.max_probes_seen)});
  table.add_row({"acquire rate", Table::fmt(m.acquired.estimate(), 5)});
  table.add_row({"load (max server probe freq)", Table::fmt(m.load(), 4)});
  if (family->alpha() > 0 && family->universe_size() >= 3 * family->alpha() - 1) {
    table.add_row({"g(n) lower bound (optimal-avail SQS)",
                   Table::fmt(serverprobe_complexity(family->universe_size(),
                                                     family->alpha(), p),
                              3)});
    table.add_row({"2a/(1-p) bound",
                   Table::fmt(serverprobe_upper_bound(family->alpha(), p), 3)});
  }
  table.print("probe behaviour of " + family->name() + " at p=" + Table::fmt(p, 2));
  return 0;
}

// OPT_d(n, alpha) through FamilySpec::make, which rejects parameters
// outside the constructor's domain on stderr (nullptr).
std::shared_ptr<const QuorumFamily> make_opt_d(int n, int alpha) {
  FamilySpec spec;
  spec.kind = "optd";
  spec.n = n;
  spec.alpha = alpha;
  return spec.make();
}

int cmd_nonintersect(const Args& args) {
  const int n = args.geti("n", 24);
  const int alpha = args.geti("alpha", 2);
  const auto family = make_opt_d(n, alpha);
  if (family == nullptr) return 2;
  const double p = args.getp("p", 0.1);
  const double miss = args.getp("miss", 0.2);
  const auto exact = exact_nonintersection(n, alpha, p, miss,
                                           family->counting_walk()->rule);
  Table table({"quantity", "value"});
  table.add_row({"epsilon = 2m/(1+m)", Table::fmt(exact.epsilon, 5)});
  table.add_row({"P[non-intersection] (exact, OPT_d)",
                 Table::fmt_sci(exact.nonintersection)});
  table.add_row({"Theorem 9 bound eps^2a", Table::fmt_sci(exact.bound)});
  table.add_row({"P[both clients acquire]", Table::fmt(exact.both_acquire, 6)});
  table.print("two-client non-intersection, n=" + std::to_string(n) +
              ", alpha=" + std::to_string(alpha));
  return 0;
}

int cmd_verify(const Args& args) {
  const int n = args.geti("n", 0);
  const int alpha = args.geti("alpha", 1);
  if (n <= 0 || args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: sqs_cli verify --n N --alpha A <set> <set> ...\n"
                 "       each set is comma-separated signed 1-based ids, "
                 "e.g. -1,3\n");
    return 2;
  }
  ExplicitSqs system(n, alpha);
  for (const std::string& spec : args.positional) {
    std::vector<int> literals;
    std::stringstream stream(spec);
    std::string item;
    while (std::getline(stream, item, ',')) {
      const int literal = parse_whole<int>(item, "quorum '" + spec + "'");
      if (literal == 0 || literal < -n || literal > n) {
        std::fprintf(stderr, "bad value '%s' for quorum '%s': not in +-1..%d\n",
                     item.c_str(), spec.c_str(), n);
        return 2;
      }
      literals.push_back(literal);
    }
    system.add_quorum(SignedSet::from_literals(n, literals));
  }
  const auto violation = system.verify();
  if (!violation.has_value()) {
    std::printf("VALID signed quorum system (n=%d, alpha=%d, %zu quorums)\n", n,
                alpha, system.num_quorums());
    Table table({"p", "availability"});
    for (double p : {0.1, 0.2, 0.3, 0.4}) {
      if (n <= 24)
        table.add_row({Table::fmt(p, 2), Table::fmt(system.availability(p), 6)});
    }
    if (n <= 24) table.print("availability");
    return 0;
  }
  std::printf("INVALID: quorums #%zu %s and #%zu %s satisfy neither "
              "intersection nor dual overlap >= %d\n",
              violation->first,
              system.quorums()[violation->first].to_string().c_str(),
              violation->second,
              system.quorums()[violation->second].to_string().c_str(),
              2 * alpha);
  return 1;
}

int cmd_profile(const Args& args) {
  const auto family = spec_from_args(args.gets("family", "optd"), args).make();
  if (family == nullptr) return 2;
  const int samples = args.geti("samples", 5000);
  const AcceptanceProfile profile =
      acceptance_profile(*family, samples, Rng(args.getu("seed", 1)));
  Table table({"k live servers", "P[quorum exists | k]"});
  for (std::size_t k = 0; k < profile.probability.size(); ++k)
    table.add_row({std::to_string(k), Table::fmt(profile.probability[k], 4)});
  table.print("acceptance profile of " + family->name());
  std::printf("guaranteed-availability threshold: %d; impossible at or below: %d\n",
              profile.guaranteed_threshold(), profile.impossible_below());
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) items.push_back(item);
  return items;
}

// The comma-separated numbers of flag `key` (or of `fallback`), each
// parsed whole.
template <typename T>
std::vector<T> split_numbers(const Args& args, const std::string& key,
                             const std::string& fallback) {
  std::vector<T> values;
  for (const std::string& item : split_list(args.gets(key, fallback)))
    values.push_back(parse_whole<T>(item, "--" + key));
  return values;
}

// The same for a list of probabilities, each in [0, 1].
std::vector<double> split_probabilities(const Args& args,
                                        const std::string& key,
                                        const std::string& fallback) {
  std::vector<double> values;
  for (const std::string& item : split_list(args.gets(key, fallback)))
    values.push_back(parse_probability(item, "--" + key));
  return values;
}

int cmd_sweep(const Args& args) {
  const std::string kind = args.gets("kind", "avail");
  const std::uint64_t seed = args.getu("seed", 1);
  // --batch scalar|batched|differential selects the chunk-kernel policy
  // (see DESIGN.md §3.12), batched by default; all three publish identical
  // bits, scalar runs the oracle loop alone, differential additionally
  // replays it per trial and aborts on any disagreement.
  TrialOptions opts;
  const std::string batch = args.gets("batch", "batched");
  if (!parse_batch_policy(batch, opts.batch)) {
    std::fprintf(stderr,
                 "unknown --batch policy '%s' (scalar|batched|differential)\n",
                 batch.c_str());
    return 2;
  }

  if (kind == "avail") {
    const std::vector<std::string> specs =
        split_list(args.gets("families", "optd,opta"));
    const std::vector<double> ps =
        split_probabilities(args, "ps", "0.1,0.2,0.3,0.4");
    const std::uint64_t samples = args.getu("samples", kAvailabilityMcSamples);
    std::vector<AvailabilityCell> cells;
    for (const std::string& spec : specs) {
      const auto family = spec_from_args(spec, args).make();
      if (family == nullptr) return 2;
      for (double p : ps) cells.push_back({family, p, samples, seed});
    }
    const auto estimates = sweep_availability(cells, opts);
    Table table({"family", "p", "avail (MC)", "avail (closed form)"});
    for (std::size_t i = 0; i < cells.size(); ++i)
      table.add_row({cells[i].family->name(), Table::fmt(cells[i].p, 2),
                     Table::fmt(estimates[i].estimate(), 6),
                     Table::fmt(cells[i].family->availability(cells[i].p), 6)});
    table.print("availability sweep (" + std::to_string(cells.size()) +
                " cells, one pool submission)");
    return 0;
  }

  if (kind == "probes") {
    const std::vector<std::string> specs =
        split_list(args.gets("families", "optd,opta"));
    const std::vector<double> ps =
        split_probabilities(args, "ps", "0.1,0.2,0.3");
    const std::uint64_t trials = args.getu("trials", 20000);
    std::vector<ProbeCell> cells;
    for (const std::string& spec : specs) {
      const auto family = spec_from_args(spec, args).make();
      if (family == nullptr) return 2;
      for (double p : ps) {
        ProbeCell cell;
        cell.family = family;
        cell.p = p;
        cell.trials = trials;
        cell.base = Rng(seed).split(cells.size());
        cells.push_back(std::move(cell));
      }
    }
    const auto measured = sweep_probes(cells, opts);
    Table table({"family", "p", "E[probes]", "acquire rate", "load"});
    for (std::size_t i = 0; i < cells.size(); ++i)
      table.add_row({cells[i].family->name(), Table::fmt(cells[i].p, 2),
                     Table::fmt(measured[i].probes_overall.mean(), 3),
                     Table::fmt(measured[i].acquired.estimate(), 5),
                     Table::fmt(measured[i].load(), 4)});
    table.print("probe sweep (" + std::to_string(cells.size()) +
                " cells, one pool submission)");
    return 0;
  }

  if (kind == "nonintersect") {
    const int n = args.geti("n", 24);
    const std::vector<int> alphas = split_numbers<int>(args, "alphas", "1,2,3");
    const std::vector<double> misses =
        split_probabilities(args, "misses", "0.1,0.2,0.3");
    const double p = args.getp("p", 0.1);
    // The correlated-partition model of `trace`, applied to every cell.
    const double partition_rate = args.getp("partition-rate", 0.0);
    const double partition_fraction = args.getp("partition-fraction", 0.5);
    const std::uint64_t trials = args.getu("trials", 100000);
    std::vector<NonintersectionCell> cells;
    for (int alpha : alphas) {
      const auto family = make_opt_d(n, alpha);
      if (family == nullptr) return 2;
      for (double miss : misses) {
        NonintersectionCell cell;
        cell.family = family;
        cell.model.p = p;
        cell.model.link_miss = miss;
        cell.model.partition_rate = partition_rate;
        cell.model.partition_fraction = partition_fraction;
        cell.trials = trials;
        cell.base = Rng(seed).split(cells.size());
        cells.push_back(std::move(cell));
      }
    }
    const auto stats = sweep_nonintersection(cells, opts);
    Table table({"alpha", "miss", "P[nonint] (MC)", "eps^2a bound"});
    for (std::size_t i = 0; i < cells.size(); ++i)
      table.add_row({std::to_string(cells[i].family->alpha()),
                     Table::fmt(cells[i].model.link_miss, 2),
                     Table::fmt_sci(stats[i].nonintersection.estimate()),
                     Table::fmt_sci(stats[i].bound)});
    table.print("OPT_d non-intersection sweep, n=" + std::to_string(n) + " (" +
                std::to_string(cells.size()) + " cells, one pool submission)");
    return 0;
  }

  std::fprintf(stderr, "unknown sweep kind '%s' (avail|probes|nonintersect)\n",
               kind.c_str());
  return 2;
}

int cmd_search(const Args& args) {
  AlphaSearchSpec spec;
  spec.n = args.geti("n", 24);
  spec.p = args.getp("p", 0.1);
  spec.link_miss = args.getp("miss", 0.2);
  spec.max_alpha = args.geti("max-alpha", 0);
  spec.exact = !args.has("mc");
  spec.trials = args.getu("trials", 100000);
  spec.seed = args.getu("seed", 0x5ea4c4);

  SearchTargets targets;
  targets.max_nonintersection = args.getp("target-nonint", 1e-3);
  targets.min_availability = args.getp("target-avail", 0.0);

  const AlphaSearchResult result = find_min_alpha(spec, targets);
  // The composition race's flags, read before the INFEASIBLE exit.
  CompositionSearchSpec comp;
  comp.alpha = result.alpha;
  comp.n = args.geti("compose-n", std::max(spec.n, 16 * result.alpha));
  comp.p = args.getp("compose-p", spec.p);
  comp.base_trials = args.getu("base-trials", 2000);
  comp.rounds = args.geti("rounds", 3);
  comp.seed = args.getu("seed", 0xc0317);
  Table ladder({"alpha", "P[nonint]", "availability", "meets targets"});
  for (const AlphaCandidate& candidate : result.evaluated)
    ladder.add_row({std::to_string(candidate.alpha),
                    Table::fmt_sci(candidate.nonintersection),
                    Table::fmt(candidate.availability, 6),
                    candidate.meets_targets ? "yes" : "no"});
  ladder.print("alpha ladder (n=" + std::to_string(spec.n) +
               ", p=" + Table::fmt(spec.p, 2) +
               ", miss=" + Table::fmt(spec.link_miss, 2) +
               (spec.exact ? ", exact DP)" : ", Monte Carlo sweep)"));
  if (!result.feasible) {
    std::printf("INFEASIBLE: no alpha <= %d meets nonint <= %s and avail >= %s\n",
                result.evaluated.empty() ? 0 : result.evaluated.back().alpha,
                Table::fmt_sci(targets.max_nonintersection).c_str(),
                Table::fmt(targets.min_availability, 4).c_str());
    return 1;
  }
  std::printf("minimal alpha = %d  (P[nonint] %s, availability %.6f)\n",
              result.alpha, Table::fmt_sci(result.nonintersection).c_str(),
              result.availability);

  // Race the UQ + OPT_a compositions at the winning alpha.
  const CompositionSearchResult race = find_best_composition(comp, targets);
  if (!race.feasible) {
    std::printf("composition race skipped (no candidate pool or availability "
                "%.6f below floor at n=%d)\n",
                race.availability, comp.n);
    return 0;
  }
  Table table({"composition", "E[probes]", "load", "acquire", "trials",
               "eliminated"});
  for (const CompositionCandidateScore& score : race.candidates)
    table.add_row({score.name, Table::fmt(score.expected_probes, 3),
                   Table::fmt(score.load, 4), Table::fmt(score.acquire_rate, 4),
                   std::to_string(score.trials),
                   score.eliminated_round < 0
                       ? "survived"
                       : "round " + std::to_string(score.eliminated_round)});
  table.print("composition race at alpha=" + std::to_string(comp.alpha) +
              ", n=" + std::to_string(comp.n) + " (successive halving)");
  std::printf("best composition: %s  (E[probes] %.3f, load %.4f, "
              "availability %.6f)\n",
              race.best.c_str(), race.expected_probes, race.load,
              race.availability);
  return 0;
}

int cmd_trace(const Args& args) {
  TraceConfig config;
  config.num_servers = args.geti("servers", 30);
  config.num_observations = args.geti("obs", 200000);
  config.model.p = args.getp("p", 0.05);
  config.model.link_miss = args.getp("miss", 0.02);
  config.model.partition_rate = args.getp("partition-rate", 0.0);
  config.model.partition_fraction = args.getp("partition-fraction", 0.5);
  const MismatchHistogram hist = run_trace(config, Rng(args.getu("seed", 1)));
  const auto predicted = independent_prediction(config, 8);
  Table table({"k", "P(k) measured", "P(k) iid prediction"});
  for (std::size_t k = 0; k <= 8; ++k)
    table.add_row({std::to_string(k), Table::fmt_sci(hist.at(k)),
                   Table::fmt_sci(predicted[k])});
  table.print("simultaneous-mismatch histogram");
  std::printf("log10 slope %.3f, max residual %.3f\n", hist.log10_slope(6),
              hist.max_log10_residual(6));
  return 0;
}

int cmd_chaos(const Args& args) {
  std::shared_ptr<const QuorumFamily> family;
  std::vector<ChaosScenario> scenarios;
  const std::string pick = args.gets("scenario", "all");
  const std::string file = args.gets("scenario-file", "");
  const bool list = args.has("list");
  const bool list_scenarios = args.has("list-scenarios");
  const bool dump_scenarios = args.has("dump-scenarios");
  const int replicates = args.geti("replicates", 4);
  const std::string blackbox = args.gets("blackbox", "chaos_blackbox.jsonl");

  if (!file.empty()) {
    // Data-driven replay: the scenario comes from a JSON file written by
    // --dump-scenarios (or by hand against scenarios/README.md); malformed
    // input is rejected with a path:line:col complaint and exit code 2.
    ChaosScenario loaded;
    std::string error;
    if (!load_chaos_scenario(file, &loaded, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    family = (loaded.family.empty()
                  ? spec_from_args(args.gets("family", "optd"), args)
                  : loaded.family)
                 .make();
    if (family == nullptr) return 2;
    // The fault plan must fit the fleet the run will have (the churn
    // schedule's logical ids under churn), as serve requires.
    int world = family->universe_size();
    if (!loaded.churn.empty()) {
      const auto epochs = build_epoch_schedule(
          loaded.churn, family_factory(loaded.family), world);
      if (epochs == nullptr) return 2;
      world = epochs->num_logical;
    }
    if (!loaded.config.plan.validate(loaded.config.num_clients, world))
      return 2;
    scenarios.push_back(std::move(loaded));
  } else {
    const FamilySpec spec = spec_from_args(args.gets("family", "optd"), args);
    family = spec.make();
    if (family == nullptr) return 2;
    scenarios = builtin_chaos_scenarios(spec);

    // Plain families carry no byzantine cell in the builtin grid (no
    // masking vote to survive the liars); naming it explicitly builds one
    // anyway with --b liars (default 1) — the designed-to-fail run that
    // demonstrates the fabricated-write invariant tripping and dumping a
    // black box.
    if (family->masking_b() == 0 &&
        (pick == "byzantine" || list || list_scenarios)) {
      scenarios.push_back(byzantine_chaos_scenario(*family, args.geti("b", 1)));
      scenarios.back().family = spec;
    }
    // The stale-view detector check is explicit-only (it is designed to
    // fail): build it when named or when dumping the scenario set.
    if (spec.resizable() &&
        (pick == "stale_view_forever" || dump_scenarios))
      scenarios.push_back(stale_view_chaos_scenario(spec));
  }

  // --list-scenarios: the machine-facing inventory (name, family,
  // invariant budget, plan sizes) of everything buildable here.
  if (list_scenarios) {
    Table table({"scenario", "family", "floor", "envelope", "faults", "churn",
                 "invariants"});
    for (const ChaosScenario& s : scenarios) {
      std::string inv;
      if (s.invariants.expect_ts_regressions) inv += "expect-regr ";
      if (s.invariants.allow_lost_writes) inv += "allow-lost ";
      if (s.invariants.require_view_convergence) inv += "view-conv ";
      if (s.invariants.check_cross_epoch) inv += "cross-epoch ";
      if (inv.empty()) inv += "-";
      table.add_row({s.name,
                     s.family.empty() ? family->name() : s.family.label(),
                     Table::fmt(s.invariants.availability_floor, 4),
                     Table::fmt_sci(s.invariants.stale_envelope),
                     std::to_string(s.config.plan.events.size()),
                     std::to_string(s.churn.events.size()), inv});
    }
    table.print("chaos scenario grid (" + family->name() + ")");
    return 0;
  }

  // --dump-scenarios DIR: write every buildable scenario as a JSON file
  // (byte-deterministic; reload with --scenario-file). The directory must
  // exist.
  if (dump_scenarios) {
    const std::string dir = args.gets("dump-scenarios", "");
    if (dir.empty() || dir == "1") {
      std::fprintf(stderr, "--dump-scenarios needs a directory operand\n");
      return 2;
    }
    int written = 0;
    for (const ChaosScenario& s : scenarios) {
      if (s.family.empty()) continue;  // nothing to name in the file
      const std::string path = dir + "/" + s.name + ".json";
      if (!write_chaos_scenario(s, path)) return 1;
      std::printf("wrote %s\n", path.c_str());
      ++written;
    }
    return written > 0 ? 0 : 1;
  }

  // CI smoke hook: an impossible availability floor trips every scenario,
  // proving the violation path (exit 1 + black-box dump) end to end.
  if (args.has("force-violation"))
    for (ChaosScenario& s : scenarios) s.invariants.availability_floor = 1.01;
  if (list) {
    for (const ChaosScenario& s : scenarios)
      std::printf("%-16s %s\n", s.name.c_str(), s.description.c_str());
    return 0;
  }
  if (pick != "all" && file.empty()) {
    std::vector<ChaosScenario> chosen;
    for (ChaosScenario& s : scenarios)
      if (s.name == pick) chosen.push_back(std::move(s));
    if (chosen.empty()) {
      std::fprintf(stderr, "unknown scenario '%s' (try --list)\n",
                   pick.c_str());
      return 2;
    }
    scenarios = std::move(chosen);
  }

  // The flight recorder is always on for chaos runs: when an invariant
  // trips, run_chaos writes the merged black box automatically.
  obs::TelemetryConfig tc = obs::current_config();
  tc.recorder = true;
  obs::configure(tc);
  obs::reset_flight_recorder();

  const std::vector<ChaosCellResult> results =
      run_chaos(*family, scenarios, replicates, {}, blackbox);

  Table table({"scenario", "avail", "floor", "stale", "envelope", "retries",
               "deadline", "ts-regr", "lost", "fabricated", "verdict"});
  bool all_passed = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ChaosCellResult& cell = results[i];
    const ChaosInvariants& inv = scenarios[i].invariants;
    all_passed = all_passed && cell.passed();
    table.add_row({cell.scenario, Table::fmt(cell.availability),
                   Table::fmt(inv.availability_floor),
                   Table::fmt_sci(cell.stale_fraction),
                   Table::fmt_sci(inv.stale_envelope),
                   std::to_string(cell.retries),
                   std::to_string(cell.deadline_failures),
                   std::to_string(cell.server_ts_regressions),
                   std::to_string(cell.lost_writes),
                   std::to_string(cell.fabricated_reads),
                   cell.passed() ? "pass" : "FAIL"});
  }
  table.print("chaos invariants (" + std::to_string(replicates) +
              " replicates per scenario)");
  for (const ChaosCellResult& cell : results)
    if (cell.epoch_transitions > 0 || cell.epoch_rejects > 0)
      std::printf("churn %-18s transitions=%ld refreshes=%ld rejects=%ld "
                  "retired_reads=%ld stale_views_at_end=%ld\n",
                  cell.scenario.c_str(), cell.epoch_transitions,
                  cell.view_refreshes, cell.epoch_rejects, cell.retired_reads,
                  cell.stale_views_at_end);
  for (const ChaosCellResult& cell : results)
    for (const ChaosViolation& v : cell.violations)
      std::printf("VIOLATION %s/%s: %s\n", cell.scenario.c_str(),
                  v.invariant.c_str(), v.detail.c_str());
  return all_passed ? 0 : 1;
}

int cmd_serve(const Args& args) {
  // --scenario-file replays a chaos scenario's data (family, fault plan,
  // churn plan, knobs) through the staged service; explicit flags still
  // override the file's values. Mutually exclusive with --scenario.
  const std::string file = args.gets("scenario-file", "");
  ChaosScenario from_file;
  const bool have_file = !file.empty();
  if (have_file) {
    std::string error;
    if (!load_chaos_scenario(file, &from_file, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    if (args.has("scenario")) {
      std::fprintf(stderr, "--scenario and --scenario-file are exclusive\n");
      return 2;
    }
  }
  const std::shared_ptr<const QuorumFamily> family =
      (have_file && !from_file.family.empty()
           ? from_file.family
           : spec_from_args(args.gets("family", "optd"), args))
          .make();
  if (family == nullptr) return 2;

  // --rate / --duration go through the validating parser: a malformed value
  // is rejected on stderr and the command exits, mirroring how --threads and
  // SQS_THREADS share parse_thread_count (which init_threads_from_args
  // already applied; threads = 0 below picks up that default). A scenario
  // file supplies the duration/clients/seed defaults so the replayed fault
  // and churn timelines land where the scenario placed them.
  LoadGenConfig load;
  if (args.has("rate")) {
    load.rate = parse_positive_double("--rate", args.gets("rate", "").c_str());
    if (load.rate == 0.0) return 2;
  } else {
    load.rate = 2000.0;
  }
  if (args.has("duration")) {
    load.duration =
        parse_positive_double("--duration", args.gets("duration", "").c_str());
    if (load.duration == 0.0) return 2;
  } else {
    load.duration = have_file ? from_file.config.duration : 5.0;
  }
  load.read_fraction =
      args.getp("read-fraction",
                have_file ? from_file.config.read_fraction : 0.8);
  load.num_clients =
      args.geti("clients", have_file ? from_file.config.num_clients : 64);
  load.seed = args.getu("seed", have_file ? from_file.config.seed : 1);

  ServiceConfig config;
  if (have_file) {
    config.network = from_file.config.network;
    config.server = from_file.config.server;
    config.policy = from_file.config.client.policy;
    config.plan = from_file.config.plan;
    if (!from_file.churn.empty()) {
      config.epochs =
          build_epoch_schedule(from_file.churn, family_factory(from_file.family),
                               family->universe_size());
      if (config.epochs == nullptr) return 2;
    }
  }
  config.num_clients = load.num_clients;
  config.probe_timeout = args.getd(
      "timeout", have_file ? from_file.config.client.probe_timeout : 0.25);
  config.batch = args.geti("batch", 256);
  config.seed = load.seed;
  config.server.mean_up = args.getd("mean-up", config.server.mean_up);
  config.server.mean_down = args.getd("mean-down", config.server.mean_down);
  config.server.service_time =
      args.getd("service-time", config.server.service_time);

  const int n = family->universe_size();
  const double d = load.duration;
  const std::string scenario =
      have_file ? from_file.name : args.gets("scenario", "none");
  if (have_file) {
    // plan/churn already installed above
  } else if (scenario == "partition") {
    config.plan.server_partition(0.3 * d, 0, 0.3 * d);
  } else if (scenario == "churn") {
    config.plan = make_churn_plan(n, 0.1 * d, 0.2 * d, std::max(1, n / 6),
                                  0.1 * d, d);
  } else if (scenario == "gray") {
    config.plan = make_gray_plan(n, std::max(1, n / 4), 8.0, 0.2 * d, 0.6 * d);
  } else if (scenario == "lossy") {
    config.plan = make_lossy_plan(0.1 * d, d, 0.25 * d, 0.1 * d, 0.3, 4.0);
  } else if (scenario == "byzantine") {
    // --b liars (default: the family's tolerance, else 1) cycle through the
    // lie modes for 80% of the run. A masking family survives with zero
    // fabricated reads (vote + replica certs); a plain family demonstrates
    // the invariant tripping. --no-verify-certs drops the signature check.
    const int b = args.geti("b", std::max(1, family->masking_b()));
    config.plan = make_byzantine_plan(n, b, 0.1 * d, 0.8 * d);
    config.policy.lie_tolerance = family->masking_b();
  } else if (scenario != "none") {
    std::fprintf(
        stderr,
        "unknown scenario '%s' (none|partition|churn|gray|lossy|byzantine)\n",
        scenario.c_str());
    return 2;
  }
  if (args.has("no-verify-certs")) config.verify_replica_certs = false;

  const int world =
      config.epochs != nullptr ? config.epochs->num_logical : n;
  if (!load.validate() || !config.validate(world)) return 2;

  // Windowed time-series (--timeline FILE [--timeline-window-ms N]) and the
  // always-on flight recorder: serve runs record the black box so a lost
  // acked write leaves a causal dump behind.
  const obs::TelemetryArgs& targs = obs::telemetry_args();
  if (!targs.timeline_path.empty())
    config.timeline_window_us = targs.timeline_window_us;
  obs::TelemetryConfig tc = obs::current_config();
  tc.recorder = true;
  obs::configure(tc);
  obs::reset_flight_recorder();
  // Read before the run, so a clean run does not reject --blackbox unread.
  const std::string blackbox = args.gets("blackbox", "serve_blackbox.jsonl");

  const std::vector<std::uint8_t> requests = generate_load(load);
  ServiceRunner runner(*family, config);
  const ServiceResult r = runner.serve(requests);

  Table table({"metric", "value"});
  table.add_row({"ops served", std::to_string(r.requests)});
  table.add_row({"availability", Table::fmt(r.availability(), 6)});
  table.add_row({"stale reads", std::to_string(r.stale_reads)});
  table.add_row({"probes/op", Table::fmt(static_cast<double>(r.probes) /
                                             std::max<std::uint64_t>(1, r.reads + r.writes),
                                         3)});
  table.add_row({"p50 latency (ms)", Table::fmt(r.latency_us.p50() / 1e3, 3)});
  table.add_row({"p99 latency (ms)", Table::fmt(r.latency_us.p99() / 1e3, 3)});
  table.add_row({"p999 latency (ms)", Table::fmt(r.latency_us.p999() / 1e3, 3)});
  table.add_row({"net delivered / dropped",
                 std::to_string(r.net_delivered) + " / " +
                     std::to_string(r.net_dropped)});
  table.add_row({"replica drops", std::to_string(r.replica_dropped)});
  table.add_row({"ts regressions", std::to_string(r.ts_regressions)});
  table.add_row({"cert rejects", std::to_string(r.cert_rejects)});
  table.add_row({"fabricated reads", std::to_string(r.fabricated_reads)});
  table.add_row({"lost acked writes", std::to_string(r.lost_acked_writes)});
  if (config.epochs != nullptr) {
    table.add_row({"epoch transitions", std::to_string(r.epoch_transitions)});
    table.add_row({"view refreshes", std::to_string(r.view_refreshes)});
    table.add_row({"epoch rejects", std::to_string(r.epoch_rejects)});
    table.add_row({"retired reads", std::to_string(r.retired_reads)});
    table.add_row({"view epoch / current", std::to_string(r.view_epoch) +
                                               " / " +
                                               std::to_string(r.current_epoch)});
  }
  table.add_row({"wall ms", Table::fmt(r.wall_ms, 1)});
  table.add_row({"wall ops/s", Table::fmt(r.wall_ops_per_sec(), 0)});
  table.print("served " + family->name() + " at " + Table::fmt(load.rate, 0) +
              " ops/s for " + Table::fmt(load.duration, 1) +
              "s (scenario: " + scenario + ")");
  std::printf("reply fingerprint %016llx (bit-identical for any --threads)\n",
              static_cast<unsigned long long>(r.reply_fingerprint));

  if (!targs.timeline_path.empty()) {
    if (!runner.timeline().write_jsonl(targs.timeline_path)) return 1;
    std::printf("[obs] timeline JSONL -> %s\n", targs.timeline_path.c_str());
  }
  if (r.lost_acked_writes > 0 || r.fabricated_reads > 0 ||
      r.retired_reads > 0) {
    const char* why = r.lost_acked_writes > 0 ? "serve: lost acked write"
                     : r.fabricated_reads > 0 ? "serve: fabricated read"
                                              : "serve: read from retired replica";
    if (obs::write_flight_recorder(blackbox, why))
      std::printf("[serve] flight recorder dump -> %s\n", blackbox.c_str());
  }
  return r.lost_acked_writes > 0 || r.fabricated_reads > 0 ||
                 r.retired_reads > 0
             ? 1
             : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: sqs_cli <avail|probes|nonintersect|verify|trace|profile|"
               "sweep|search|chaos|serve> "
               "[--flags]\n  global: --threads N (or SQS_THREADS) for the "
               "parallel trial runtime;\n          --metrics FILE / --trace FILE "
               "/ --trace-jsonl FILE for telemetry;\n          "
               "--flight-recorder-events N for the black-box ring capacity\n"
               "  sweep: --batch batched|scalar|differential picks the chunk "
               "kernel\n         (default batched; same bits; scalar is the "
               "oracle loop,\n         differential cross-checks every trial "
               "against it)\n"
               "  chaos: --scenario NAME|all "
               "--replicates R --family F --n N --alpha A (--list)\n"
               "         --scenario-file F.json --list-scenarios "
               "--dump-scenarios DIR\n"
               "         --blackbox FILE --force-violation (byzantine: --b "
               "liars on plain families)\n  serve: "
               "--rate R --duration S --clients C --scenario "
               "none|partition|churn|gray|lossy|byzantine\n         "
               "--scenario-file F.json (replays family+faults+churn) "
               "--timeline FILE\n         "
               "--timeline-window-ms N --blackbox FILE --no-verify-certs\n"
               "  families incl. masking-majority|masking-opta|masking-comp "
               "(--b liars, default 1)\n  see the "
               "header of tools/sqs_cli.cpp\n");
  return 2;
}

}  // namespace
}  // namespace sqs

int main(int argc, char** argv) {
  if (argc < 2) return sqs::usage();
  sqs::init_threads_from_args(argc, argv);
  if (!sqs::obs::init_telemetry_from_args(argc, argv).ok) return 2;
  const std::string command = argv[1];
  const sqs::Args args = sqs::parse(argc, argv, 2);
  // Consumed above, by init_threads_from_args and init_telemetry_from_args.
  for (const char* key : {"threads", "metrics", "trace", "trace-jsonl",
                          "timeline", "timeline-window-ms",
                          "flight-recorder-events"})
    args.has(key);
  int rc = 2;
  if (command == "avail") rc = sqs::cmd_avail(args);
  else if (command == "probes") rc = sqs::cmd_probes(args);
  else if (command == "nonintersect") rc = sqs::cmd_nonintersect(args);
  else if (command == "verify") rc = sqs::cmd_verify(args);
  else if (command == "trace") rc = sqs::cmd_trace(args);
  else if (command == "profile") rc = sqs::cmd_profile(args);
  else if (command == "sweep") rc = sqs::cmd_sweep(args);
  else if (command == "search") rc = sqs::cmd_search(args);
  else if (command == "chaos") rc = sqs::cmd_chaos(args);
  else if (command == "serve") rc = sqs::cmd_serve(args);
  else return sqs::usage();
  // A flag the command never read is misspelled or meant for another
  // command; the run above ignored it, so it must not look green.
  if (const std::string unread = args.first_unread();
      !unread.empty() && rc != 2) {
    std::fprintf(stderr, "unknown flag --%s for '%s'\n", unread.c_str(),
                 command.c_str());
    rc = 2;
  }
  // A failed telemetry export is a real failure: the requested evidence is
  // missing, so the run must not look green.
  if (!sqs::obs::export_telemetry_files() && rc == 0) rc = 1;
  return rc;
}
