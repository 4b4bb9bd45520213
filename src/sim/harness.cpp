#include "sim/harness.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

namespace {

using obs::to_us;

// Acquisition latency per client, in simulated microseconds. Registered
// lazily (first instrumented experiment) so a disabled run never touches the
// registry; names are shared across replicates, so replicated sweeps merge
// into one histogram per client index.
obs::Histogram client_latency_histogram(int client_idx) {
  return obs::Registry::instance().histogram(
      "sim.client" + std::to_string(client_idx) + ".op_latency_us",
      obs::pow2_bounds(6, 26));
}

struct Experiment {
  RegisterExperimentConfig config;
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<Replica> servers;
  std::vector<SimClient> clients;
  Rng rng;
  // Epoch mode: the mutable cursor all clients compare their view against.
  EpochState epoch_state;
  RegisterExperimentResult result;
  Timestamp max_completed_write_ts;
  // Highest timestamp of a write that was acked by at least one server:
  // under the crash model that server keeps the state, so this frontier
  // must still exist somewhere at the end of the run (lost_writes check).
  Timestamp max_acked_write_ts;
  // Per-client frontier of observed read timestamps (monotonic-read check).
  std::vector<Timestamp> last_read_ts;
  std::uint64_t next_value = 1;
  // (counter, writer, value) bindings produced by genuine completed writes.
  // Ok reads are audited against this set at end-of-run — after the grace
  // period every write completion callback has fired, so a read that raced
  // its writer's completion is not a false alarm.
  WriteSet genuine_writes;
  struct ReadObservation {
    obs::OpId op = obs::kNoOp;
    Timestamp ts;
    std::uint64_t value = 0;
  };
  std::vector<ReadObservation> read_observations;
  // Empty unless telemetry was enabled when the experiment started.
  std::vector<obs::Histogram> latency_hists;

  void schedule_next_op(int client_idx) {
    if (sim.now() >= config.duration) return;
    const double delay = rng.exponential(1.0 / config.think_time);
    sim.schedule(delay, [this, client_idx] { start_op(client_idx); });
  }

  // The accounting every completed op shares, after its read or write
  // audits.
  void finish_op(int client_idx, const char* kind, const OpResult& r) {
    result.probes_per_op.add(r.num_probes);
    result.client_retries += r.attempts - 1;
    if (r.deadline_exceeded) ++result.deadline_failures;
    if (r.filtered) ++result.ops_filtered;
    if (r.ok) {
      result.latency_ok.add(r.latency);
      result.latency_us.record(register_latency_bounds(), to_us(r.latency));
    }
    obs::flight(obs::FlightKind::kOpDone, r.op, to_us(sim.now()), -1,
                to_us(r.latency));
    if (!latency_hists.empty()) {
      obs::instant("sim", kind, "client",
                   static_cast<std::uint64_t>(client_idx));
      if (r.ok)
        latency_hists[static_cast<std::size_t>(client_idx)].record(
            to_us(r.latency));
    }
    schedule_next_op(client_idx);
  }

  void start_op(int client_idx) {
    if (sim.now() >= config.duration) return;
    SimClient& client = clients[static_cast<std::size_t>(client_idx)];
    if (rng.bernoulli(config.read_fraction)) {
      ++result.reads_attempted;
      // Snapshot the frontier of completed writes; a successful read must
      // not return anything older.
      const Timestamp frontier = max_completed_write_ts;
      client.read([this, client_idx, frontier](const OpResult& r) {
        if (r.ok) {
          ++result.reads_ok;
          if (r.timestamp < frontier) {
            ++result.stale_reads;
            obs::flight(obs::FlightKind::kStaleRead, r.op, to_us(sim.now()));
          }
          Timestamp& last = last_read_ts[static_cast<std::size_t>(client_idx)];
          if (r.timestamp < last) {
            ++result.read_ts_regressions;
            obs::flight(obs::FlightKind::kReadRegression, r.op,
                        to_us(sim.now()));
          } else {
            last = r.timestamp;
          }
          read_observations.push_back({r.op, r.timestamp, r.value});
        }
        finish_op(client_idx, "read", r);
      });
    } else {
      ++result.writes_attempted;
      client.write(next_value++, [this, client_idx](const OpResult& w) {
        if (w.ok) {
          genuine_writes.insert(w.timestamp, w.value);
          ++result.writes_ok;
          if (max_completed_write_ts < w.timestamp)
            max_completed_write_ts = w.timestamp;
          if (w.acks > 0 && max_acked_write_ts < w.timestamp)
            max_acked_write_ts = w.timestamp;
        }
        finish_op(client_idx, "write", w);
      });
    }
  }
};

}  // namespace

const std::vector<std::uint64_t>& register_latency_bounds() {
  static const std::vector<std::uint64_t> bounds = [] {
    std::vector<std::uint64_t> b = obs::linear_bounds(10'000, 4'000'000, 10'000);
    const std::vector<std::uint64_t> tail = obs::pow2_bounds(22, 26);
    b.insert(b.end(), tail.begin(), tail.end());
    return b;
  }();
  return bounds;
}

obs::HistogramSnapshot RegisterExperimentResult::latency_snapshot() const {
  return latency_us.snapshot("latency_us", register_latency_bounds());
}

bool RegisterExperimentConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "RegisterExperimentConfig: invalid %s %g\n", what,
                 value);
    ok = false;
  };
  if (num_clients < 1) reject("num_clients", num_clients);
  if (!(duration > 0.0)) reject("duration", duration);
  if (!(think_time > 0.0)) reject("think_time", think_time);
  if (!(read_fraction >= 0.0 && read_fraction <= 1.0))
    reject("read_fraction", read_fraction);
  if (!(partition_rate >= 0.0)) reject("partition_rate", partition_rate);
  if (!(partition_fraction >= 0.0 && partition_fraction <= 1.0))
    reject("partition_fraction", partition_fraction);
  if (!(partition_duration >= 0.0))
    reject("partition_duration", partition_duration);
  if (!network.validate()) ok = false;
  if (!server.validate()) ok = false;
  if (!client.validate()) ok = false;
  if (epochs != nullptr && !epochs->validate()) ok = false;
  return ok;
}

RegisterExperimentResult run_register_experiment(
    const QuorumFamily& family, const RegisterExperimentConfig& config) {
  if (!config.validate()) return {};  // rejected; details already on stderr
  obs::Span span("sim", "register_experiment");
  span.arg("clients", static_cast<std::uint64_t>(config.num_clients));
  Experiment e;
  e.config = config;
  e.rng = Rng(config.seed);
  if (obs::telemetry_enabled()) {
    e.latency_hists.reserve(static_cast<std::size_t>(config.num_clients));
    for (int c = 0; c < config.num_clients; ++c)
      e.latency_hists.push_back(client_latency_histogram(c));
  }
  // Epoch mode sizes the fleet to every logical id the schedule will ever
  // use; `family` is epoch 0's family (clients resolve the active family
  // from their own view, so it only seeds the classic code path).
  const bool epoch_mode = config.epochs != nullptr;
  const int n = epoch_mode ? config.epochs->num_logical : family.universe_size();

  e.net = std::make_unique<Network>(&e.sim, config.num_clients, n,
                                    config.network, e.rng.split("network"));
  e.servers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    e.servers.emplace_back(i, config.server,
                           e.rng.split(1000 + static_cast<std::uint64_t>(i)));
  if (epoch_mode) {
    e.epoch_state.schedule = config.epochs.get();
    // Servers that only join in a later epoch start retired.
    const MembershipView& initial = config.epochs->entry(0).view;
    for (int i = 0; i < n; ++i)
      e.servers[static_cast<std::size_t>(i)].set_member(initial.contains(i));
  }
  e.clients.reserve(static_cast<std::size_t>(config.num_clients));
  for (int c = 0; c < config.num_clients; ++c)
    e.clients.emplace_back(&e.sim, e.net.get(), &e.servers, c, &family,
                           config.client,
                           e.rng.split(2000 + static_cast<std::uint64_t>(c)),
                           epoch_mode ? &e.epoch_state : nullptr);
  e.last_read_ts.assign(static_cast<std::size_t>(config.num_clients),
                        Timestamp{});

  // Install the fault plan (if any) before the first load event. The hook
  // draws no randomness, so runs with and without it consume identical
  // rng streams for everything else.
  if (config.fault_hook) config.fault_hook(e.sim, *e.net, e.servers);

  // Schedule the epoch transitions (entry times are strictly increasing and
  // sim.now() is still 0, so the delay is the absolute time).
  if (epoch_mode) {
    for (int ei = 1; ei < config.epochs->num_epochs(); ++ei) {
      const double at = config.epochs->entry(ei).at;
      e.sim.schedule(at, [&e, ei] {
        apply_epoch_transition(*e.config.epochs, ei, e.servers);
        e.epoch_state.current = ei;
        ++e.result.epoch_transitions;
      });
    }
  }

  for (int c = 0; c < config.num_clients; ++c) e.schedule_next_op(c);

  // Partition injector.
  if (config.partition_rate > 0.0) {
    Rng part_rng = e.rng.split("partitions");
    std::function<void()> inject = [&e, &part_rng, &config, &inject] {
      if (e.sim.now() >= config.duration) return;
      const int victim =
          static_cast<int>(part_rng.next_below(static_cast<std::uint64_t>(
              config.num_clients)));
      e.net->transport().partition_client_partial(
          victim, config.partition_fraction, e.sim.now(),
          config.partition_duration);
      e.sim.schedule(part_rng.exponential(config.partition_rate),
                     [&inject] { inject(); });
    };
    e.sim.schedule(part_rng.exponential(config.partition_rate),
                   [&inject] { inject(); });
    // Allow in-flight operations a grace period to finish.
    e.sim.run_until(config.duration + 60.0);
  } else {
    // Allow in-flight operations a grace period to finish.
    e.sim.run_until(config.duration + 60.0);
  }
  e.result.events_executed = e.sim.executed_events();
  e.result.peak_event_queue = e.sim.peak_pending_events();

  // End-of-run invariant evidence. Under churn the newest acked write must
  // be visible among the *final epoch's members*.
  for (const Replica& s : e.servers) {
    e.result.server_ts_regressions +=
        static_cast<long>(s.ts_regressions());
    e.result.server_dropped_requests += s.dropped_requests();
  }
  if (!acked_write_visible(
          e.servers, e.max_acked_write_ts,
          epoch_mode ? &config.epochs->entry(config.epochs->final_epoch()).view
                     : nullptr)) {
    e.result.lost_writes = 1;
    obs::flight(obs::FlightKind::kLostWrite, obs::kNoOp, to_us(e.sim.now()),
                -1, static_cast<std::uint64_t>(e.max_acked_write_ts.counter));
  }
  // Fabricated-read audit: every ok read must have returned either the
  // unwritten register (zero timestamp) or a (ts, value) binding that some
  // genuine write produced. Anything else is a fabrication that a lying
  // server smuggled past the client — the durability invariant chaos gates.
  for (const Experiment::ReadObservation& seen : e.read_observations) {
    if (!(Timestamp{} < seen.ts)) continue;  // unwritten register is genuine
    if (!e.genuine_writes.contains(seen.ts, seen.value)) {
      ++e.result.fabricated_reads;
      obs::flight(obs::FlightKind::kFabricatedRead, seen.op, to_us(e.sim.now()),
                  -1, seen.value);
    }
  }
  // Churn telemetry and the view-refresh-converges evidence: a client left
  // holding a pre-final view at the end of a run is a convergence failure
  // candidate (chaos decides whether the scenario allows it).
  if (epoch_mode) {
    const int final_epoch = config.epochs->final_epoch();
    for (const SimClient& c : e.clients) {
      e.result.view_refreshes += static_cast<long>(c.view_refreshes());
      e.result.epoch_rejects += static_cast<long>(c.epoch_rejects());
      e.result.retired_reads += static_cast<long>(c.retired_reads());
      if (c.view_epoch() != final_epoch) ++e.result.stale_views_at_end;
    }
  }
  e.result.net_delivered = e.net->messages_delivered();
  e.result.net_dropped = e.net->messages_dropped();

  span.arg("events", e.sim.executed_events());
  return e.result;
}

ReplicatedRegisterResult run_register_experiment_replicated(
    const QuorumFamily& family, const RegisterExperimentConfig& config,
    int replicates, const TrialOptions& opts) {
  // One replicate per chunk: chunk index == replicate index, so the runtime
  // hands replicate r the rng Rng(config.seed).split(r) and concatenates
  // results in replicate order regardless of which thread ran which.
  TrialOptions per_replicate = opts;
  per_replicate.chunk_size = 1;
  ReplicatedRegisterResult out;
  out.results = run_trials(
      static_cast<std::uint64_t>(replicates), Rng(config.seed),
      std::vector<RegisterExperimentResult>{},
      [&](std::vector<RegisterExperimentResult>& acc, std::uint64_t t,
          Rng& rng) {
        // Replicates restart simulated time at zero; the run scope keeps
        // their flight events totally ordered in the merged dump.
        obs::FlightRunScope run_scope(static_cast<std::uint32_t>(t));
        RegisterExperimentConfig replicate_config = config;
        replicate_config.seed = rng.next_u64();
        acc.push_back(run_register_experiment(family, replicate_config));
      },
      [](std::vector<RegisterExperimentResult>& total,
         std::vector<RegisterExperimentResult>&& part) {
        for (auto& r : part) total.push_back(std::move(r));
      },
      per_replicate);

  for (const RegisterExperimentResult& r : out.results) {
    out.availability.add(r.availability());
    out.stale_read_fraction.add(r.stale_read_fraction());
    out.probes_per_op.add(r.probes_per_op.mean());
  }
  return out;
}

}  // namespace sqs
