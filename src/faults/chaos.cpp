#include "faults/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "mismatch/exact.h"
#include "obs/recorder.h"
#include "sweep/sweep.h"

namespace sqs {

double chaos_availability_floor(const QuorumFamily& family, double p,
                                double slack) {
  return std::max(0.0, family.availability(p) - slack);
}

double chaos_stale_envelope(int alpha, double per_probe_miss,
                            double slack_factor, double noise_floor) {
  const double eps = 2.0 * per_probe_miss / (1.0 + per_probe_miss);
  return slack_factor * std::pow(eps, 2.0 * alpha) + noise_floor;
}

namespace {

// Effective per-probe miss probability of a scenario's *background*
// processes: either network leg down, or the server down. Injected trouble
// is accounted for per scenario on top of this.
double background_miss(const RegisterExperimentConfig& config) {
  const double q = config.network.stationary_link_down();
  const double p = config.server.stationary_down();
  return 1.0 - (1.0 - q) * (1.0 - q) * (1.0 - p);
}

// Shared scenario shape: a mid-size closed-loop fleet with self-healing
// clients over a mostly-healthy background; scenarios dial knobs up.
RegisterExperimentConfig base_chaos_config(double duration) {
  RegisterExperimentConfig base;
  base.num_clients = 6;
  base.duration = duration;
  base.think_time = 0.5;
  base.read_fraction = 0.6;
  base.client.max_attempts = 3;
  base.client.backoff_base = 0.1;
  base.client.backoff_jitter = 0.5;
  base.client.op_deadline = 15.0;
  base.network.link_mean_up = 200.0;
  base.network.link_mean_down = 1.0;
  base.server.mean_up = 2000.0;
  base.server.mean_down = 1.0;
  return base;
}

}  // namespace

ChaosScenario byzantine_chaos_scenario(const QuorumFamily& family, int b) {
  const int n = family.universe_size();
  const double kDuration = 400.0;
  ChaosScenario s;
  s.name = "byzantine";
  s.description = "lying servers cycle wrong/equivocate/stale/fabricate";
  s.config = base_chaos_config(kDuration);
  s.config.seed = 0xFA0708;
  // Clients vote per the family's masking budget: a masking family filters
  // every lie (zero fabricated reads); a plain family (masking_b() == 0)
  // folds max-timestamp and adopts the liars' boosted fabrications.
  s.config.client.policy.lie_tolerance = family.masking_b();
  s.config.plan = make_byzantine_plan(n, b, /*start=*/0.1 * kDuration,
                                      /*duration=*/0.8 * kDuration);
  // Floor: liars answer probes but their replies carry no vote, so they are
  // discounted from both the universe and the accept threshold. Plain
  // families (no vote) clear this trivially; masking families must keep
  // voting reads available through the lie window.
  const int accept = family.alpha() > 0 ? family.alpha()
                                        : family.min_quorum_size();
  s.invariants.availability_floor =
      b < accept ? std::max(0.0, exact_byzantine_availability(
                                     n, accept, b,
                                     background_miss(s.config)) -
                                     0.12)
                 : 0.0;
  // Lies poison the iid mismatch model, so the epsilon^2alpha envelope does
  // not apply; fabricated-write (strict, always) and lost-write are the
  // contract here.
  s.invariants.stale_envelope = 1.0;
  return s;
}

std::vector<ChaosScenario> builtin_chaos_scenarios(const QuorumFamily& family) {
  const int n = family.universe_size();
  const int alpha = family.alpha();
  const double kDuration = 400.0;

  const RegisterExperimentConfig base = base_chaos_config(kDuration);

  std::vector<ChaosScenario> scenarios;

  {
    // 1. Steady flaky links + stationary server failures: the paper's
    // baseline mismatch regime, no injected faults.
    ChaosScenario s;
    s.name = "baseline";
    s.description = "stationary flaky links and fail-stop servers";
    s.config = base;
    s.config.network.link_mean_up = 50.0;
    s.config.server.mean_up = 95.0;
    s.config.server.mean_down = 5.0;
    s.config.seed = 0xFA0701;
    s.invariants.availability_floor =
        chaos_availability_floor(family, background_miss(s.config), 0.05);
    s.invariants.stale_envelope =
        chaos_stale_envelope(alpha, background_miss(s.config), 15.0, 2e-3);
    scenarios.push_back(std::move(s));
  }

  {
    // 2. Mass-crash window keeping exactly alpha servers up — Theorem 34's
    // "available whenever any alpha servers are up", under the harshest
    // survivable pattern (survivors at the end of sequential probe orders).
    ChaosScenario s;
    s.name = "crash_wave";
    s.description = "all but alpha servers crash for half the run";
    s.config = base;
    s.config.seed = 0xFA0702;
    // Survivors: alpha for the alpha-accepting families; threshold families
    // (alpha() == 0, e.g. the masking variants) need a full minimal quorum
    // to stay live, so crashing past that would test nothing survivable.
    const int keep = alpha > 0 ? alpha : family.min_quorum_size();
    s.config.plan =
        make_mass_crash_plan(n, keep, 0.25 * kDuration, 0.5 * kDuration);
    s.invariants.availability_floor =
        chaos_availability_floor(family, background_miss(s.config), 0.10);
    // An adversarial mass crash is OUTSIDE the iid mismatch model: the
    // surviving quorum's counter restarts below the pre-crash frontier, so
    // in-window reads are "stale" by construction. Theorem 34 availability
    // (the floor above) and crash-model durability are the contract here;
    // the epsilon^2alpha envelope deliberately is not.
    s.invariants.stale_envelope = 1.0;
    scenarios.push_back(std::move(s));
  }

  {
    // 3. Rolling churn waves (Sect. 6.3 shape): a group crashes every
    // period, round-robin over the fleet; never fewer than n - group up.
    ChaosScenario s;
    s.name = "churn";
    s.description = "rolling crash waves, 2 servers per 20 s";
    s.config = base;
    s.config.seed = 0xFA0703;
    s.config.plan = make_churn_plan(n, /*start=*/20.0, /*period=*/20.0,
                                    /*group_size=*/2, /*outage=*/8.0,
                                    /*until=*/kDuration - 20.0);
    // Crashed fraction: group * outage / (period * n) of server-time.
    const double crashed = 2.0 * 8.0 / (20.0 * n);
    s.invariants.availability_floor =
        chaos_availability_floor(family, background_miss(s.config) + crashed, 0.05);
    s.invariants.stale_envelope = chaos_stale_envelope(
        alpha, background_miss(s.config) + crashed, 15.0, 2e-3);
    scenarios.push_back(std::move(s));
  }

  {
    // 4. Gray half-fleet: the first n/2 servers serve 300x slower than the
    // probe timeout for most of the run; adaptive timeouts fail them fast.
    ChaosScenario s;
    s.name = "gray_servers";
    s.description = "half the fleet goes gray (300x service time)";
    s.config = base;
    s.config.seed = 0xFA0704;
    s.config.client.adaptive_timeout = true;
    s.config.client.max_probe_timeout = 0.3;
    s.config.plan = make_gray_plan(n, n / 2, /*factor=*/300.0,
                                   /*start=*/0.125 * kDuration,
                                   /*duration=*/0.75 * kDuration);
    // Gray servers time out like down servers while the window is active.
    const double gray_miss = 0.5 * 0.75;
    s.invariants.availability_floor = chaos_availability_floor(
        family, background_miss(s.config) + gray_miss, 0.10);
    // Half the fleet graying out together is correlated adversarial
    // failure, same as crash_wave: the healthy half's counter lags the
    // frontier held by gray servers, so the iid envelope does not apply.
    s.invariants.stale_envelope = 1.0;
    scenarios.push_back(std::move(s));
  }

  {
    // 5. Partition storm with the filtering step on: every 15 s one client
    // loses 75% of its links for 4 s. The filter aborts most poisoned
    // acquisitions; retries ride out the storm.
    ChaosScenario s;
    s.name = "partition_storm";
    s.description = "partial client partitions every 15 s, filter on";
    s.config = base;
    s.config.seed = 0xFA0705;
    s.config.client.use_partition_filter = true;
    s.config.client.max_attempts = 4;
    s.config.plan = make_partition_storm_plan(
        base.num_clients, /*start=*/30.0, /*until=*/kDuration - 30.0,
        /*period=*/15.0, /*outage=*/4.0, /*fraction=*/0.75, Rng(0xFA0705f));
    s.invariants.availability_floor =
        chaos_availability_floor(family, background_miss(s.config), 0.12);
    s.invariants.stale_envelope =
        chaos_stale_envelope(alpha, background_miss(s.config) + 0.05, 20.0, 1e-2);
    scenarios.push_back(std::move(s));
  }

  {
    // 6. Lossy bursts: 25% message loss and 6x latency spikes in
    // alternating 6 s bursts; backoff + retries ride through.
    ChaosScenario s;
    s.name = "lossy_bursts";
    s.description = "periodic 25% loss and 6x latency bursts";
    s.config = base;
    s.config.seed = 0xFA0706;
    s.config.plan = make_lossy_plan(
        /*start=*/20.0, /*until=*/kDuration - 20.0, /*period=*/20.0,
        /*burst_len=*/6.0, /*drop_prob=*/0.25, /*latency_factor=*/6.0);
    // Bursts cover ~30% of the run at ~0.44 per-probe miss.
    const double burst_miss = 0.3 * 0.44;
    s.invariants.availability_floor = chaos_availability_floor(
        family, background_miss(s.config) + burst_miss, 0.10);
    s.invariants.stale_envelope = chaos_stale_envelope(
        alpha, background_miss(s.config) + burst_miss, 10.0, 5e-3);
    scenarios.push_back(std::move(s));
  }

  {
    // 7. Amnesia churn — deliberately breaks the crash-model assumption
    // (servers lose state on recovery), so the monotonicity checker MUST
    // fire and lost writes are permitted. A clean report here would mean
    // the invariant checker is blind.
    ChaosScenario s;
    s.name = "amnesia_churn";
    s.description = "state-losing recoveries under churn (detector check)";
    s.config = base;
    s.config.seed = 0xFA0707;
    s.config.server.mean_up = 40.0;
    s.config.server.mean_down = 4.0;
    s.config.server.amnesia_on_recovery = true;
    s.invariants.availability_floor =
        chaos_availability_floor(family, background_miss(s.config), 0.10);
    s.invariants.stale_envelope = 1.0;  // unconstrained: assumption broken
    s.invariants.expect_ts_regressions = true;
    s.invariants.allow_lost_writes = true;
    scenarios.push_back(std::move(s));
  }

  // 8. Byzantine lies — only for masking families: their voting clients
  // must ride out masking_b() liars with zero fabricated reads and zero
  // lost writes. Plain families are NOT given this scenario by default
  // (they would fail by design); build it explicitly via
  // byzantine_chaos_scenario for the detector check.
  if (family.masking_b() > 0)
    scenarios.push_back(byzantine_chaos_scenario(family, family.masking_b()));

  return scenarios;
}

namespace {

// Shared churn-invariant budget: strict families must come out of the exact
// cross-epoch enumeration with a guarantee; probabilistic families are held
// to a small Monte Carlo nonintersection estimate.
void set_churn_invariants(ChaosScenario& s, const QuorumFamily& family) {
  const double miss = background_miss(s.config);
  s.invariants.availability_floor =
      chaos_availability_floor(family, miss, 0.12);
  s.invariants.stale_envelope =
      chaos_stale_envelope(family.alpha(), miss + 0.02, 25.0, 1e-2);
  s.invariants.require_view_convergence = true;
  s.invariants.check_cross_epoch = true;
  s.invariants.max_cross_epoch_nonintersection =
      family.is_strict() ? 0.0 : 0.05;
}

}  // namespace

ChaosScenario churn_replace_chaos_scenario(const FamilySpec& spec) {
  const double kDuration = 400.0;
  ChaosScenario s;
  s.name = "churn_replace";
  s.description = "rolling one-server replacement, 3 waves 80 s apart";
  s.family = spec;
  s.config = base_chaos_config(kDuration);
  s.config.seed = 0xFA0709;
  // One server per wave: adjacent epochs share n-1 members, which keeps any
  // two majorities (and every strict construction checked so far)
  // intersecting across the boundary. Replacing several at once is the
  // configuration the cross-epoch checker exists to reject.
  s.churn = make_replace_churn(/*start=*/0.2 * kDuration,
                               /*period=*/0.2 * kDuration, /*waves=*/3);
  const std::shared_ptr<const QuorumFamily> family = spec.make();
  if (family != nullptr) set_churn_invariants(s, *family);
  return s;
}

ChaosScenario churn_resize_chaos_scenario(const FamilySpec& spec) {
  const double kDuration = 400.0;
  ChaosScenario s;
  s.name = "churn_resize";
  s.description = "grow the membership by two servers, then shrink back";
  s.family = spec;
  s.config = base_chaos_config(kDuration);
  s.config.seed = 0xFA070A;
  s.churn = make_resize_churn(/*grow_at=*/0.25 * kDuration, spec.n + 2,
                              /*shrink_at=*/0.65 * kDuration, spec.n);
  const std::shared_ptr<const QuorumFamily> family = spec.make();
  if (family != nullptr) set_churn_invariants(s, *family);
  return s;
}

ChaosScenario stale_view_chaos_scenario(const FamilySpec& spec) {
  const double kDuration = 400.0;
  ChaosScenario s;
  s.name = "stale_view_forever";
  s.description =
      "clients never refresh and retired servers keep serving (detector check)";
  s.family = spec;
  s.config = base_chaos_config(kDuration);
  s.config.seed = 0xFA070B;
  // The two bugs this scenario plants: views are never refreshed, and the
  // fence on retired servers is disabled — so stale clients silently read
  // from (and strand acked writes on) servers the current epoch retired.
  s.config.client.policy.refresh_views = false;
  s.config.server.serve_while_retired = true;
  s.churn = make_replace_churn(/*start=*/0.2 * kDuration,
                               /*period=*/0.2 * kDuration, /*waves=*/3);
  // Only the reconfiguration invariants are meant to trip, and the first
  // violation (the black box's reason) must be the retired read.
  s.invariants.availability_floor = 0.0;
  s.invariants.stale_envelope = 1.0;
  s.invariants.allow_lost_writes = true;
  s.invariants.require_view_convergence = true;
  return s;
}

std::vector<ChaosScenario> builtin_chaos_scenarios(const FamilySpec& spec) {
  const std::shared_ptr<const QuorumFamily> family = spec.make();
  if (family == nullptr) return {};  // complaint already on stderr
  std::vector<ChaosScenario> scenarios = builtin_chaos_scenarios(*family);
  for (ChaosScenario& s : scenarios) s.family = spec;
  // Membership churn needs a construction that re-instantiates at a new
  // universe size; grids/trees/planes keep their fixed-size scenario set.
  if (spec.resizable()) {
    scenarios.push_back(churn_replace_chaos_scenario(spec));
    scenarios.push_back(churn_resize_chaos_scenario(spec));
  }
  return scenarios;
}

std::vector<ChaosCellResult> run_chaos(
    const QuorumFamily& family, const std::vector<ChaosScenario>& scenarios,
    int replicates, const TrialOptions& opts,
    const std::string& blackbox_path) {
  // Expand each scenario's data into a runnable configuration: build its
  // family from the spec (falling back to `family` for empty specs),
  // expand the churn plan into the epoch schedule every replicate shares,
  // and check the fault plan against the fleet that schedule implies. A
  // scenario whose family, churn plan or fault plan is unusable runs no
  // replicates and reports the failure as a violation (not as the
  // availability-floor miss its empty results would read as).
  struct PreparedScenario {
    std::shared_ptr<const QuorumFamily> spec_family;  // null = caller's family
    const QuorumFamily* run_family = nullptr;
    RegisterExperimentConfig config;
    std::optional<ChaosViolation> setup_failure;
  };
  std::vector<PreparedScenario> prepared(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ChaosScenario& s = scenarios[i];
    PreparedScenario& p = prepared[i];
    p.config = s.config;
    if (!s.family.empty()) {
      p.spec_family = s.family.make();
      if (p.spec_family == nullptr) {
        p.setup_failure = ChaosViolation{
            "family-spec", "family " + s.family.label() + " failed to build"};
        continue;
      }
    }
    p.run_family = p.spec_family != nullptr ? p.spec_family.get() : &family;
    int fleet = p.run_family->universe_size();
    if (!s.churn.empty()) {
      p.config.epochs =
          build_epoch_schedule(s.churn, family_factory(s.family), fleet);
      if (p.config.epochs == nullptr) {
        p.setup_failure = ChaosViolation{
            "churn-plan", "churn plan failed to expand into an epoch schedule"};
        continue;
      }
      p.run_family = p.config.epochs->entry(0).family.get();
      fleet = p.config.epochs->num_logical;
    }
    if (!s.config.plan.validate(s.config.num_clients, fleet))
      p.setup_failure = ChaosViolation{
          "fault-plan", "fault plan is invalid for " +
                            std::to_string(s.config.num_clients) +
                            " clients x " + std::to_string(fleet) + " servers"};
  }

  // One replicate per chunk, so replicate r of scenario s draws
  // Rng(s.config.seed).split(r).next_u64() as its experiment seed — the
  // exact seeding of run_register_experiment_replicated — and the whole
  // grid flattens into one pool submission.
  std::vector<SweepCell> cells;
  cells.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    cells.push_back(
        {prepared[i].setup_failure ? 0u
                                   : static_cast<std::uint64_t>(replicates),
         Rng(scenarios[i].config.seed)});
  TrialOptions per_replicate = opts;
  per_replicate.chunk_size = 1;

  std::vector<std::vector<RegisterExperimentResult>> grid = run_sweep(
      cells, std::vector<RegisterExperimentResult>{},
      [&](std::size_t cell, std::vector<RegisterExperimentResult>& acc,
          const TrialContext& ctx, Rng& rng) {
        for (std::uint64_t t = ctx.chunk.begin; t < ctx.chunk.end; ++t) {
          // Simulated time restarts every replicate; a grid-unique run id
          // (cell-major, like the sweep flattening) keeps the merged flight
          // dump totally ordered.
          obs::FlightRunScope run_scope(static_cast<std::uint32_t>(
              cell * static_cast<std::size_t>(replicates) + t));
          RegisterExperimentConfig replicate_config = prepared[cell].config;
          replicate_config.seed = rng.next_u64();
          acc.push_back(run_register_experiment(*prepared[cell].run_family,
                                                replicate_config));
        }
      },
      [](std::vector<RegisterExperimentResult>& total,
         std::vector<RegisterExperimentResult>&& part) {
        for (auto& r : part) total.push_back(std::move(r));
      },
      per_replicate);

  std::vector<ChaosCellResult> out;
  out.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ChaosScenario& scenario = scenarios[i];
    ChaosCellResult cell;
    cell.scenario = scenario.name;
    cell.replicates = std::move(grid[i]);
    if (prepared[i].setup_failure) {
      // Nothing ran, so no invariant has evidence: the setup failure is the
      // cell's one verdict (not an availability-floor miss at zero ops).
      cell.violations.push_back(*prepared[i].setup_failure);
      out.push_back(std::move(cell));
      continue;
    }

    long ok = 0;
    for (const RegisterExperimentResult& r : cell.replicates) {
      cell.ops_attempted += r.reads_attempted + r.writes_attempted;
      ok += r.reads_ok + r.writes_ok;
      cell.reads_ok += r.reads_ok;
      cell.stale_reads += r.stale_reads;
      cell.retries += r.client_retries;
      cell.deadline_failures += r.deadline_failures;
      cell.server_ts_regressions += r.server_ts_regressions;
      cell.read_ts_regressions += r.read_ts_regressions;
      cell.lost_writes += r.lost_writes;
      cell.fabricated_reads += r.fabricated_reads;
      cell.epoch_transitions += r.epoch_transitions;
      cell.view_refreshes += r.view_refreshes;
      cell.epoch_rejects += r.epoch_rejects;
      cell.retired_reads += r.retired_reads;
      cell.stale_views_at_end += r.stale_views_at_end;
    }
    cell.availability =
        cell.ops_attempted > 0
            ? static_cast<double>(ok) / static_cast<double>(cell.ops_attempted)
            : 0.0;
    cell.stale_fraction =
        cell.reads_ok > 0 ? static_cast<double>(cell.stale_reads) /
                                static_cast<double>(cell.reads_ok)
                          : 0.0;

    const ChaosInvariants& inv = scenario.invariants;
    char buf[160];
    if (cell.availability < inv.availability_floor) {
      std::snprintf(buf, sizeof buf, "availability %.4f < floor %.4f",
                    cell.availability, inv.availability_floor);
      cell.violations.push_back({"availability-floor", buf});
    }
    if (cell.stale_fraction > inv.stale_envelope) {
      std::snprintf(buf, sizeof buf, "stale fraction %.5f > envelope %.5f",
                    cell.stale_fraction, inv.stale_envelope);
      cell.violations.push_back({"stale-read-envelope", buf});
    }
    // Server-side monotonicity is absolute under the crash model: a server
    // can only serve below its own high-water mark if state was lost.
    if (inv.expect_ts_regressions) {
      if (cell.server_ts_regressions == 0) {
        cell.violations.push_back(
            {"ts-regression-detector",
             "scenario breaks the crash model but no regression was observed"});
      }
    } else if (cell.server_ts_regressions > 0) {
      std::snprintf(buf, sizeof buf, "%ld server timestamp regressions",
                    cell.server_ts_regressions);
      cell.violations.push_back({"timestamp-monotonicity", buf});
    }
    // Client-observed read regressions are a stale read seen twice by the
    // same client — probabilistically allowed, so they share the stale
    // envelope rather than being forbidden outright.
    const double read_regr_fraction =
        cell.reads_ok > 0 ? static_cast<double>(cell.read_ts_regressions) /
                                static_cast<double>(cell.reads_ok)
                          : 0.0;
    if (read_regr_fraction > inv.stale_envelope) {
      std::snprintf(buf, sizeof buf,
                    "read-regression fraction %.5f > envelope %.5f",
                    read_regr_fraction, inv.stale_envelope);
      cell.violations.push_back({"monotonic-read-envelope", buf});
    }
    if (!inv.allow_lost_writes && cell.lost_writes > 0) {
      std::snprintf(buf, sizeof buf, "%ld replicates lost an acked write",
                    cell.lost_writes);
      cell.violations.push_back({"lost-write", buf});
    }
    // Strict and unconditional: no scenario may ever hand an application a
    // binding that no genuine write produced.
    if (cell.fabricated_reads > 0) {
      std::snprintf(buf, sizeof buf,
                    "%ld reads returned a never-written (ts, value) binding",
                    cell.fabricated_reads);
      cell.violations.push_back({"fabricated-write", buf});
    }
    // No read from a retired server — strict and unconditional like the
    // fabricated-write check: the epoch fence makes it impossible unless
    // the serve_while_retired bug switch re-opened the hole.
    if (cell.retired_reads > 0) {
      std::snprintf(buf, sizeof buf,
                    "%ld reads adopted state served by a retired server",
                    cell.retired_reads);
      cell.violations.push_back({"retired-read", buf});
    }
    // Cross-epoch intersection: a stale client's quorum against the next
    // epoch's write quorums, per adjacent pair of the expanded schedule.
    if (inv.check_cross_epoch && prepared[i].config.epochs != nullptr) {
      const EpochedFamily& sched = *prepared[i].config.epochs;
      for (int ei = 1; ei < sched.num_epochs(); ++ei) {
        const CrossEpochCheck c = check_cross_epoch_intersection(
            sched.entry(ei - 1), sched.entry(ei), sched.num_logical);
        const double observed =
            c.exact ? (c.guaranteed ? 0.0 : 1.0) : c.mc_nonintersection;
        if (observed > inv.max_cross_epoch_nonintersection) {
          std::snprintf(buf, sizeof buf, "epochs %d->%d: %s", ei - 1, ei,
                        c.detail.c_str());
          cell.violations.push_back({"cross-epoch-intersection", buf});
        }
      }
    }
    if (inv.require_view_convergence && cell.stale_views_at_end > 0) {
      std::snprintf(buf, sizeof buf,
                    "%ld clients ended the run on a stale view",
                    cell.stale_views_at_end);
      cell.violations.push_back({"view-refresh-converges", buf});
    }
    out.push_back(std::move(cell));
  }

  // Black-box dump: the first violation's cause names the dump's reason;
  // the merged rings hold every replicate's causal timeline.
  if (obs::recorder_enabled() && !blackbox_path.empty()) {
    for (const ChaosCellResult& cell : out) {
      if (cell.violations.empty()) continue;
      const std::string reason = cell.scenario + ": " +
                                 cell.violations.front().invariant + " (" +
                                 cell.violations.front().detail + ")";
      if (obs::write_flight_recorder(blackbox_path, reason))
        std::printf("[chaos] flight recorder dump -> %s (%s)\n",
                    blackbox_path.c_str(), reason.c_str());
      break;
    }
  }
  return out;
}

}  // namespace sqs
