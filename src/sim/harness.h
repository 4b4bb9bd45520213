// End-to-end replicated-register experiments over the simulator.
//
// A fleet of closed-loop clients issues reads and writes against n replica
// servers through the flapping-link network, using a given quorum family for
// every operation. The harness measures what the paper's metrics mean to an
// application: operation availability, probes per operation, latency, and —
// the price of probabilistic intersection — the fraction of *stale reads*
// (a read returning an older timestamp than some write that completed before
// the read started), which is the observable consequence of two quorums
// failing to intersect.

#pragma once

#include <memory>
#include <vector>

#include "core/epoch.h"
#include "core/quorum_family.h"
#include "faults/fault_plan.h"
#include "obs/telemetry.h"
#include "runtime/run_trials.h"
#include "sim/client.h"
#include "util/stats.h"

namespace sqs {

struct RegisterExperimentConfig {
  int num_clients = 8;
  double duration = 2000.0;   // simulated seconds of load
  double think_time = 1.0;    // mean pause between a client's operations
  double read_fraction = 0.5;
  NetworkConfig network;
  ServerConfig server;
  ClientConfig client;
  // Correlated failure injection: partial client partitions arrive as a
  // Poisson process at `partition_rate` events/second; each hits one random
  // client, knocking out `partition_fraction` of its links for
  // `partition_duration` seconds. Combine with client.use_partition_filter
  // to reproduce the paper's filtering-step discussion.
  double partition_rate = 0.0;
  double partition_fraction = 0.6;
  double partition_duration = 5.0;
  std::uint64_t seed = 1;
  // The fault timeline (src/faults/fault_plan.h), installed once after the
  // world is built, before any load or background event is scheduled.
  // Installing it draws from no rng stream, so it never perturbs the load's
  // random streams and the same plan + seed reproduces a bit-identical run.
  FaultPlan plan;
  // Epoch-based reconfiguration (nullptr = classic fixed universe). The
  // fleet is sized to epochs->num_logical; servers outside epoch 0's view
  // start retired. At each entry's `at` the harness performs the membership
  // transition deterministically (join-sync and drain-on-leave move state
  // via adopt_state, which draws no randomness), so churn runs consume the
  // same rng streams as churn-free ones. Clients start on epoch 0's view
  // and only learn of newer epochs observably (see ClientConfig).
  std::shared_ptr<const EpochedFamily> epochs;

  // True iff every duration/fraction is usable (delegates to the network/
  // server/client validators) and every fault event fits a fleet of
  // `num_servers` (epochs->num_logical under churn); complaints go to
  // stderr.
  bool validate(int num_servers) const;
};

// Bucket upper bounds of RegisterExperimentResult::latency_us, in simulated
// microseconds: 10 ms steps from 10 ms to 4 s, then powers of two from
// 2^22 us (~4.2 s) to 2^26 us (~67 s), then one overflow bucket. The 10 ms
// steps cover the 0.3-3.6 s p50/p99 range of bench/register_sim's wide-area
// worlds; slower ops keep a coarse tail, and the recorded min/max tighten
// the outermost buckets. 405 bounds, so 406 counts (3.2 KB) per result.
const std::vector<std::uint64_t>& register_latency_bounds();

struct RegisterExperimentResult {
  long reads_attempted = 0;
  long reads_ok = 0;
  long writes_attempted = 0;
  long writes_ok = 0;
  long stale_reads = 0;
  long ops_filtered = 0;  // aborted by the partition filter
  // Self-healing-client telemetry (zero unless retries/deadlines enabled).
  long client_retries = 0;      // extra acquisition attempts across all ops
  long deadline_failures = 0;   // ops that gave up at the per-op deadline
  // Invariant-checker evidence (consumed by src/faults/chaos):
  long server_ts_regressions = 0;  // reads served below a server's max-ever ts
  long read_ts_regressions = 0;    // per-client monotonic-read violations
  long lost_writes = 0;  // 1 if the max acked write ts vanished from every
                         // server register (impossible under pure crash)
  long fabricated_reads = 0;  // ok reads whose (ts, value) binding no genuine
                              // write ever produced (Byzantine evidence; a
                              // masking-voting client must keep this at 0)
  // Epoch/churn telemetry (all zero in classic mode):
  long epoch_transitions = 0;  // membership boundaries crossed during the run
  long view_refreshes = 0;     // client view fetches that completed
  long epoch_rejects = 0;      // probes fenced by retired servers
  long retired_reads = 0;      // ok reads that adopted a retired server's reply
                               // (must be 0: fences make this impossible unless
                               // serve_while_retired re-opens the hole)
  long stale_views_at_end = 0;  // clients not on the final epoch when the run
                                // ended (view-refresh-converges evidence)
  // Transport/server drop totals for the run (always on, mirrors sim.net.*).
  std::uint64_t net_delivered = 0;
  std::uint64_t net_dropped = 0;
  std::uint64_t server_dropped_requests = 0;
  // Event-loop statistics of the run's Simulator (observability of the
  // harness itself, not a paper metric).
  std::uint64_t events_executed = 0;
  std::size_t peak_event_queue = 0;
  RunningStat probes_per_op;
  RunningStat latency_ok;  // seconds, successful ops only
  // Successful ops' latencies in simulated microseconds, bucketed over
  // register_latency_bounds(). Constant-size whatever the run length: a
  // long run keeps no per-op sample, so quantiles read from it are
  // estimates within one bucket of the exact percentile (see
  // HistogramSnapshot::quantile), not exact order statistics.
  obs::HistAccum latency_us;

  obs::HistogramSnapshot latency_snapshot() const;

  double availability() const {
    const long attempted = reads_attempted + writes_attempted;
    const long ok = reads_ok + writes_ok;
    return attempted > 0 ? static_cast<double>(ok) / static_cast<double>(attempted)
                         : 0.0;
  }
  double stale_read_fraction() const {
    return reads_ok > 0
               ? static_cast<double>(stale_reads) / static_cast<double>(reads_ok)
               : 0.0;
  }
};

// Runs the experiment; the family's universe_size() fixes the server count.
// In epoch mode (config.epochs set) `family` must be epoch 0's family and the
// fleet is sized to epochs->num_logical instead.
RegisterExperimentResult run_register_experiment(
    const QuorumFamily& family, const RegisterExperimentConfig& config);

// Replication sweep: `replicates` independent runs of the experiment with
// seeds derived from config.seed via the trial runtime's chunked splitting
// (replicate r uses Rng(config.seed).split(r)). Replicates execute in
// parallel across SQS_THREADS — each discrete-event Simulator stays
// single-threaded inside its shard — and `results` is ordered by replicate
// index, so the sweep is bit-identical for any thread count.
struct ReplicatedRegisterResult {
  std::vector<RegisterExperimentResult> results;  // one per replicate
  // Across-replicate distributions of the headline metrics.
  RunningStat availability;
  RunningStat stale_read_fraction;
  RunningStat probes_per_op;
};

ReplicatedRegisterResult run_register_experiment_replicated(
    const QuorumFamily& family, const RegisterExperimentConfig& config,
    int replicates, const TrialOptions& opts = {});

}  // namespace sqs
