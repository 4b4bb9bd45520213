// Explicit-time replica for the staged register service.
//
// Mirrors SimServer's failure model — exponentially flapping up/down periods
// (stationary unavailability mean_down / (mean_up + mean_down)), forced
// crash/up windows, gray slowdowns, optional amnesia on recovery — but takes
// the caller's `now` on every call instead of reading a simulator clock, and
// adds what a served workload needs that a closed-loop simulation did not:
// a single-server FIFO queue. Queueing is accounted on the *op-arrival*
// clock `qnow` (monotone across the served stream): the backlog starts at
// max(qnow, busy_until), runs one service_time, and the induced wait is
// added to the reply's completion. Charging the queue on the monotone
// arrival clock rather than the probe-delivery time keeps the backlog a
// stable M/G/1-style process — probe timelines extend past later arrivals
// (sequential probing plus timeouts), and feeding those late times back
// into busy_until would let one slow op inflate the next op's queue wait,
// a feedback loop that collapses the service far below its real capacity.
// This way per-replica utilization turns into queueing delay and the
// latency curve rises toward saturation instead of staying flat (the load
// half of the paper's availability/load trade-off, measured not asserted).
//
// Same invariant evidence as SimServer: max_timestamp_seen survives amnesia
// wipes, ts_regressions counts reads served below that high-water mark,
// dropped_requests counts arrivals while down.
//
// Each cell caches the replica certificate over its stored (ts, value):
// every state change (a write or adopted state that advances the cell, an
// amnesia wipe) marks it stale, and the next read re-signs it. A read thus
// hashes at most once, and a run of reads between writes hashes once.
//
// Like Transport, the failure process advances lazily and only forward; the
// runner guarantees that by evaluating operations in arrival order.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/server.h"  // Timestamp, ServerConfig
#include "util/rng.h"

namespace sqs {

class ServiceReplica {
 public:
  ServiceReplica(int id, const ServerConfig& config, Rng rng);

  int id() const { return id_; }

  // True if the replica is up at `now` (forced windows override the
  // stochastic process; crash wins when both are active).
  bool up(double now) const;

  struct ReadServed {
    double done = 0.0;  // completion time (queueing + service included)
    Timestamp ts;
    std::uint64_t value = 0;
    // Replica certificate over the replica's TRUE stored (ts, value) — see
    // service/message.h replica_cert. While lying, ts/value above may be
    // fabricated but the cert still signs the genuine state (signatures are
    // unforgeable in-model), so a verifying runner catches the mismatch.
    std::uint32_t cert = 0;
  };

  // A read/probe of `object` delivered at `now`, issued by an op that
  // arrived at `qnow` (<= now, monotone across ops): nullopt if the replica
  // is down (request dropped), otherwise the register contents and the
  // time the reply leaves the replica (now + queue wait + service time).
  // `client` feeds the equivocation lie mode (lies only to odd clients).
  std::optional<ReadServed> serve_read(int object, double now, double qnow,
                                       int client = -1);

  // A write delivered at `now` from an op that arrived at `qnow`: applies
  // (ts, value) if ts advances the register, acks either way; nullopt if
  // down. Returns the time the ack leaves the replica. Under the
  // fabricate-ack lie the ack is returned but the state is dropped.
  std::optional<double> serve_write(const Timestamp& ts, std::uint64_t value,
                                    int object, double now, double qnow);

  // Fault hooks, windows measured from `now` (same semantics as SimServer:
  // extend-never-shorten per kind, crash beats forced-up, gray replaces).
  void force_crash(double now, double duration);
  void force_up(double now, double duration);
  void set_gray(double factor, double now, double duration);
  // Byzantine lie window (replace semantics, like set_gray): replies over
  // [now, now + duration) are corrupted per sim/server.h's LieMode.
  void set_lie(LieMode mode, double now, double duration);
  bool lie_active(double now) const {
    return lie_mode_ != LieMode::kNone && now < lie_until_;
  }
  std::uint64_t lies_told() const { return lies_told_; }

  double service_time(double now) const {
    return config_.service_time * (now < gray_until_ ? gray_factor_ : 1.0);
  }

  // --- Epoch membership (reconfiguration, src/core/epoch.h) ---------------
  // Same contract as SimServer: membership and the epoch stamp are flipped
  // only by the runner's epoch cursor (solo stage, arrival-ordered), so
  // neither touches any rng stream. A retired replica fences requests with
  // an epoch rejection unless the serve_while_retired bug switch is on.
  void set_member(bool member) { retired_ = !member; }
  bool retired() const { return retired_; }
  void set_epoch(int epoch) { epoch_ = epoch; }
  int epoch() const { return epoch_; }
  bool fences_requests() const {
    return retired_ && !config_.serve_while_retired;
  }

  // Epoch fence: a retired replica answers — at normal queueing cost — with
  // a rejection carrying its epoch instead of register state; nullopt if
  // down (a fence is an answer, so it queues like one).
  std::optional<double> serve_fence(double now, double qnow);

  // State transfer at an epoch boundary (join-sync / drain-on-leave):
  // adopts (ts, value) if it advances the cell. Applied directly by the
  // runner's transition cursor — instantaneous, draws no randomness, and
  // works even while the destination is down (the transfer is modeled as
  // completing on recovery).
  void adopt_state(const Timestamp& ts, std::uint64_t value, int object = 0);

  Timestamp timestamp(int object = 0) const;
  std::uint64_t value(int object = 0) const;
  Timestamp max_timestamp_seen(int object = 0) const;
  std::uint64_t ts_regressions() const { return ts_regressions_; }
  std::uint64_t dropped_requests() const { return dropped_requests_; }
  // Total seconds of service time performed — utilization evidence for the
  // load report (busy fraction = busy_seconds / elapsed virtual time).
  double busy_seconds() const { return busy_seconds_; }
  // Queue backlog (seconds of queued work) as seen at time `now`; feeds the
  // timeline's queue_max_us series.
  double backlog(double now) const {
    return busy_until_ > now ? busy_until_ - now : 0.0;
  }

 private:
  struct Cell {
    Timestamp ts;
    std::uint64_t value = 0;
    Timestamp max_seen;      // high-water mark; survives amnesia wipes
    std::uint32_t cert = 0;  // replica_cert(id, ts, value) while cert_fresh
    bool cert_fresh = false;
  };

  void advance_failure_process(double now) const;
  // Returns the queue wait + service span to add after `now`; advances the
  // backlog on the monotone `qnow` clock.
  double begin_service(double now, double qnow);
  // The cell of `object` (>= 0), created empty on first touch.
  Cell& cell(int object);
  const Cell* find_cell(int object) const;
  // Stores (ts, value) if ts advances the cell (serve_write, adopt_state).
  void advance_cell(int object, const Timestamp& ts, std::uint64_t value);

  int id_;
  ServerConfig config_;
  mutable Rng rng_;
  mutable bool up_ = true;
  mutable double next_toggle_ = 0.0;
  double forced_down_until_ = 0.0;
  double forced_up_until_ = 0.0;
  double gray_factor_ = 1.0;
  double gray_until_ = 0.0;
  bool retired_ = false;
  int epoch_ = 0;
  LieMode lie_mode_ = LieMode::kNone;
  double lie_until_ = 0.0;
  double busy_until_ = 0.0;
  double busy_seconds_ = 0.0;
  std::uint64_t ts_regressions_ = 0;
  std::uint64_t dropped_requests_ = 0;
  std::uint64_t lies_told_ = 0;

  // Indexed by object id (the runner uses object 0 only). Mutable because
  // an amnesia wipe happens while the const failure process advances.
  mutable std::vector<Cell> cells_;
};

}  // namespace sqs
