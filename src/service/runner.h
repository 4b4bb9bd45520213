// The staged request runner: SQS experiments as served traffic.
//
// ServiceRunner executes an encoded, arrival-ordered request stream in four
// stages, the classic staged-replica split (dsnet's Runner):
//
//   prologue  — stateless decode + checksum and client-cert verification,
//               a batch at a time;
//   solo      — every step a reply depends on (the register protocol's
//               AcquisitionMachine, sim/register_core.h, which holds each
//               op's evidence and makes every protocol decision, driven
//               inline over the Transport with its max fold in probe
//               order; replica reads/writes; fault-plan application),
//               executed strictly in arrival order by one sequencer thread
//               that runs batch after batch;
//   audit     — the invariant bookkeeping no reply reads (completed-write
//               frontier, stale- and fabricated-read checks, the genuine-
//               write audit set, latency accounting), in arrival order over
//               each solved batch, by whichever thread holds the audit
//               turn;
//   epilogue  — stateless reply encoding + checksumming, with an in-order
//               fold of each batch into the reply fingerprint.
//
// The other participating threads decode batches ahead of the sequencer,
// audit and encode them behind it; in-flight batches live in a bounded ring
// of 2 x threads slots. Progress never depends on a second thread: when the
// next batch is undecoded and unclaimed, or the ring is full, the sequencer
// does that work itself, and every claimed decode, audit or encode finishes
// without waiting (DESIGN.md §3.10 has the deadlock-freedom argument). And
// it makes the determinism contract of run_trials hold for served traffic:
// the solo stage and the audit each observe the identical operation order
// at any thread count, per-op randomness comes from seed-split streams
// keyed by sequence number, the stateless stages touch only their own
// batch's records, and the fingerprint folds batches in stream order —
// results are bit-identical for 1, 2, or N threads (tests/test_service.cpp
// asserts it).
//
// Time is virtual. Operation semantics and latencies are computed on the
// load schedule's deterministic timeline (probe RTTs from the Transport,
// queueing from the Replica's busy window, timeouts from probe_timeout);
// the wall clock is used only for throughput reporting. Operations are
// evaluated to completion at their arrival point even though their probes
// extend past later arrivals — an *arrival-ordered linearization* that keeps
// replica/transport state exact along each op's own timeline while letting
// the ordered stage stream millions of ops (DESIGN.md "Staged service").

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/epoch.h"
#include "core/quorum_family.h"
#include "faults/fault_plan.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"
#include "service/message.h"
#include "sim/register_core.h"
#include "sim/transport.h"

namespace sqs {

struct ServiceConfig {
  NetworkConfig network;
  ServerConfig server;
  int num_clients = 64;
  double probe_timeout = 0.25;  // seconds a probe waits for its reply
  int batch = 256;              // requests per pipeline batch
  int threads = 0;              // total participating threads; 0 = default
  std::uint64_t seed = 1;
  FaultPlan plan;               // applied on the virtual timeline
  // Width of a windowed time-series bucket in virtual microseconds; 0
  // disables the timeline (see obs/timeline.h). Fed from the solo stage, so
  // the emitted series is bit-identical at any thread count.
  std::uint64_t timeline_window_us = 0;
  // Verify each replica reply's certificate against the reported (ts,
  // value) and treat mismatches as not-reached (the reply never joins the
  // quorum or votes). Default on: with honest replicas it never fires, so
  // behaviour and replies are bit-identical to a non-verifying runner; with
  // liars it strips fabrications off the quorum path. Request certificates
  // are always verified in the prologue.
  bool verify_replica_certs = true;
  // The masking vote and the stale-view refresh (sim/register_core.h), the
  // same knobs the simulator's clients take.
  RegisterPolicy policy;

  // --- Epoch reconfiguration (src/core/epoch.h) ---------------------------
  // Non-null turns on epoch mode: the fleet is sized to epochs->num_logical,
  // the ctor family must be epoch 0's family, non-epoch-0 members start
  // retired, and transitions fire from the solo stage as the arrival clock
  // crosses each entry's time (deterministic — no rng stream moves). The
  // runner itself is the stale-view client: it keeps probing under its last
  // adopted view until an op observes epoch evidence (a fenced probe or a
  // reply stamped with a newer epoch) and refreshes through policy's
  // bounded view fetch; refresh_views = false pins it to its stale view
  // forever — the designed-to-fail switch.
  std::shared_ptr<const EpochedFamily> epochs;

  // True iff every knob is usable for a fleet of `num_servers`; complaints
  // go to stderr, one line per bad field.
  bool validate(int num_servers) const;
};

struct ServiceResult {
  std::uint64_t requests = 0;       // lifetime, like the counters below
  std::uint64_t call_requests = 0;  // requests in this serve() call
  std::uint64_t decode_failures = 0;
  std::uint64_t reads = 0, reads_ok = 0;
  std::uint64_t writes = 0, writes_ok = 0;
  // Reads that returned a timestamp below the highest ok-write timestamp
  // whose write had completed before the read arrived — the served-path
  // analogue of the harness's stale-read count.
  std::uint64_t stale_reads = 0;
  std::uint64_t probes = 0;      // acquisition probes across all ops
  std::uint64_t write_acks = 0;  // per-target acks across all ok writes
  std::uint64_t replica_dropped = 0;
  std::uint64_t ts_regressions = 0;
  std::uint64_t net_delivered = 0, net_dropped = 0;
  // 1 if some write was acked yet no replica still holds a timestamp >= the
  // highest acked write's — the no-lost-acked-write invariant, violated
  // only when state durability is broken (amnesia), never by crashes or
  // partitions alone.
  std::uint64_t lost_acked_writes = 0;
  // Certificate rejections: requests whose client cert failed the prologue
  // check, plus replica replies whose cert did not match the reported
  // contents (each such reply is excluded from its op's quorum).
  std::uint64_t cert_rejects = 0;
  // Ok reads that returned a (ts, value) binding no genuine write of this
  // runner produced — the no-fabricated-write invariant. Zero with honest
  // replicas; zero under liars too when cert verification and/or a masking
  // lie_tolerance filters them.
  std::uint64_t fabricated_reads = 0;
  // --- Epoch reconfiguration (zero without config.epochs) -----------------
  std::uint64_t epoch_transitions = 0;  // schedule entries applied
  std::uint64_t view_refreshes = 0;     // view fetches (retry + async)
  std::uint64_t epoch_rejects = 0;      // probes fenced by retired replicas
  // Ok reads that adopted state served by a retired replica — the
  // no-read-from-retired-server invariant; only the serve_while_retired bug
  // switch can make it positive.
  std::uint64_t retired_reads = 0;
  int current_epoch = 0;  // epoch in force at the last arrival
  int view_epoch = 0;     // the runner's adopted view (== current unless stale)

  // Virtual op latency (arrival to completion, microseconds) of every
  // decoded op, failures included; quantiles via latency_us.p50() etc.
  obs::HistogramSnapshot latency_us;

  // FNV-1a 64 over the encoded reply stream (fold_fingerprint in
  // service/message.h) — the bit-identity probe: equal fingerprints mean
  // byte-equal replies.
  std::uint64_t reply_fingerprint = 0;

  double virtual_duration = 0.0;  // last arrival, virtual seconds
  double wall_ms = 0.0;           // real time inside serve()

  std::uint64_t ops_ok() const { return reads_ok + writes_ok; }
  double availability() const {
    const std::uint64_t ops = reads + writes;
    return ops == 0 ? 0.0 : static_cast<double>(ops_ok()) / ops;
  }
  // This call's throughput: wall_ms covers only this call, so its count does.
  double wall_ops_per_sec() const {
    if (wall_ms <= 0.0) return 0.0;
    return static_cast<double>(call_requests) / (wall_ms / 1e3);
  }
};

// Bucket bounds of the op-latency histograms: 1 ms steps to 200 ms (the
// regime rate sweeps care about), power-of-two beyond (timeout pile-ups).
std::vector<std::uint64_t> service_latency_bounds();

class ServiceRunner {
 public:
  // The family fixes the server universe; config.validate(universe) must
  // hold (asserted). The runner owns transport, replicas, and its probe
  // strategies.
  ServiceRunner(const QuorumFamily& family, const ServiceConfig& config);
  ~ServiceRunner();

  ServiceRunner(const ServiceRunner&) = delete;
  ServiceRunner& operator=(const ServiceRunner&) = delete;

  // Serves an encoded request stream (total_ops records of kRequestWireSize
  // bytes, arrival-sorted — generate_load's output shape). Repeated calls
  // continue on the same world state, and the returned stats are lifetime
  // totals (call_requests, wall_ms and reply_fingerprint cover the current
  // call). If `replies_out` is non-null it receives the encoded reply
  // stream (kReplyWireSize bytes per request), encoded in place. Otherwise
  // no reply stream exists: each batch is encoded into its ring slot and
  // folded into the fingerprint there. Besides that stream and the
  // genuine-write audit set, memory is batch-sized.
  ServiceResult serve(const std::vector<std::uint8_t>& requests,
                      std::vector<std::uint8_t>* replies_out = nullptr);

  const ServiceConfig& config() const { return config_; }
  int num_servers() const { return static_cast<int>(replicas_.size()); }
  const Replica& replica(int i) const { return replicas_[i]; }

  // Windowed time-series over the served stream (enabled when
  // config.timeline_window_us > 0); lifetime of the runner, solo-owned.
  const obs::Timeline& timeline() const { return timeline_; }

 private:
  void apply_faults_until(double now);
  void apply_epochs_until(double now);
  // One op (solo stage): drives machine_ on the op's virtual timeline and
  // keeps what is the runner's own (cert verification, op drops, the
  // timeline). Returns the reply, and in *finish_out the virtual time the
  // op completes (when its last write push resolves, for an ok write).
  Reply execute_op(const Request& req, double* finish_out);
  // The audit of one executed op, in arrival order after the solo stage.
  void audit_op(const Request& req, const Reply& rep, double finish);
  // replica_cert(replica, ts, value) through the per-replica memo.
  std::uint32_t expected_replica_cert(int replica, const Timestamp& ts,
                                      std::uint64_t value);

  ServiceConfig config_;
  Transport transport_;
  std::vector<Replica> replicas_;
  // One probe strategy per epoch's family (one outside epoch mode),
  // solo-only, reset per attempt.
  std::vector<std::unique_ptr<ProbeStrategy>> strategies_;
  Rng op_rng_base_;

  // Fault timeline, sorted by time; cursor advances with the arrivals.
  std::vector<FaultEvent> fault_timeline_;
  std::size_t next_fault_ = 0;

  // Epoch mode (config_.epochs != nullptr): the epoch in force, an
  // arrival-driven cursor like next_fault_, and the runner's own (possibly
  // stale) adopted view. All solo-owned.
  int current_epoch_ = 0;
  int view_epoch_ = 0;

  Timestamp max_acked_ts_;  // zero until some write is acked
  double last_arrival_ = 0.0;

  // The solo stage's register op, sized for the whole fleet in the ctor so
  // no op allocates, and lifetime totals. The audit owns stale_reads and
  // fabricated_reads; every other counter is solo-owned.
  AcquisitionMachine machine_;
  ServiceResult totals_;  // the lifetime counters serve() reports

  // Verification memo, one entry per logical replica: the replica's
  // signing key and the last reported (ts, value) that was checked, with
  // replica_cert over it. It caches a pure function exactly — a fabricated
  // report misses and is hashed fresh, so it is rejected as before — while
  // repeated honest reports of an unchanged register cost no hash.
  struct CertMemo {
    SigningKey key;
    Timestamp ts;
    std::uint64_t value = 0;
    std::uint32_t cert = 0;
    bool valid = false;
  };
  std::vector<CertMemo> cert_memo_;

  // Solo-owned windowed series; disabled (window 0) unless configured.
  obs::Timeline timeline_;

  // --- Audit-owned state ---------------------------------------------------
  // Written only by audit_op, which runs in arrival order on whichever
  // thread holds the pipeline's audit turn, concurrently with the solo
  // stage of later batches. No reply depends on it. The padding keeps it
  // off the cache lines of the solo-owned members above, so the audit's
  // writes do not evict what the sequencer reads. (Padding, not alignas:
  // an over-aligned runner takes the aligned allocator, which raised the
  // serve_write_4t peak RSS by the size of an audit-set log.)
  char audit_padding_[64];
  // Register frontier: ok writes complete at a virtual finish time; a read
  // is judged stale against the max timestamp among writes completed before
  // its arrival.
  WriteFrontier frontier_;
  // (counter, writer, value) bindings of every ok write. The audit runs in
  // arrival order, so a read can only observe a binding after its write
  // registered it — the fabricated-read check is exact and synchronous (no
  // end-of-run pass like the sim harness needs).
  WriteSet genuine_writes_;
  // Always-on local latency histogram (service_latency_bounds buckets), so
  // quantiles need no telemetry; snapshotted into ServiceResult.
  std::vector<std::uint64_t> lat_bounds_;
  obs::HistAccum latency_;
};

}  // namespace sqs
