// The replica server, shared by the discrete-event simulator and the staged
// service runner.
//
// Each replica alternates exponentially-distributed up and down periods
// (stationary unavailability p = mean_down / (mean_up + mean_down)), chosen
// to match the paper's i.i.d. failure model while letting failures move
// during a run. A down replica drops requests; recovery keeps its register
// state (crash, not amnesia) unless amnesia_on_recovery is set. The state is
// a timestamped register value per *object id* — timestamps are (counter,
// writer_id) pairs ordered lexicographically, the standard ABD tag — so one
// fleet can serve many replicated objects (the Sect. 6.3 rotation scenario).
//
// The replica holds no clock: every call passes the caller's `now`, and the
// failure process advances lazily and only forward. The simulator passes
// Simulator::now(); the runner passes its virtual timeline and keeps time
// monotone by evaluating operations in arrival order (the Transport's
// contract too). Two sets of entry points share one register core:
//
//   handle_read / handle_write — the simulator's: the core alone, counted
//     under sim.server.*; the event loop schedules service time itself.
//   serve_read / serve_write / serve_fence — the runner's: the core plus a
//     single-server FIFO queue and the cached reply certificate, counted
//     under service.replica.*. The queue runs on the *op-arrival* clock
//     `qnow` (monotone across the served stream): the backlog starts at
//     max(qnow, busy_until), runs one service_time, and the wait is added
//     to the reply's completion. Probe timelines extend past later
//     arrivals, so charging the queue at probe-delivery time would let one
//     slow op inflate the next op's wait; on the arrival clock the backlog
//     stays a stable M/G/1-style process, and per-replica utilization turns
//     into a latency curve rising toward saturation (the load half of the
//     paper's availability/load trade-off, measured not asserted).
//
// Fault-injection hooks (src/faults) pin, slow or corrupt the replica for a
// bounded window. Each cell keeps the highest timestamp it ever held —
// surviving amnesia wipes on purpose — so reads served below that
// high-water mark count as `ts_regressions`, the paper's timestamp-
// monotonicity invariant made checkable. Each cell also caches the replica
// certificate over its stored (ts, value): a state change (a write or
// adopted state that advances the cell, an amnesia wipe) marks it stale and
// the next served read re-signs it, so a run of served reads between writes
// hashes once. Simulator reads never hash.

#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sqs {

struct Timestamp {
  std::uint64_t counter = 0;
  int writer = -1;

  bool operator<(const Timestamp& other) const {
    if (counter != other.counter) return counter < other.counter;
    return writer < other.writer;
  }
  bool operator==(const Timestamp& other) const {
    return counter == other.counter && writer == other.writer;
  }
};

// Principal ids of the certificate model: clients sign as 0..num_clients-1,
// replica `id` as kReplicaPrincipalBase + id (service/message.h adds the
// service principal).
inline constexpr std::uint64_t kReplicaPrincipalBase = 0x100000000ull;

// The certificate a replica attaches to a served probe reply: signs (ts,
// value) under the replica's key (sim/keyed_hash.h). The replica computes
// it over its TRUE stored state even while lying — a Byzantine replica can
// corrupt what it reports but cannot sign the fabrication.
std::uint32_t replica_cert(int replica, const Timestamp& ts,
                           std::uint64_t value);

// --- Byzantine lie model (fault injection) ---------------------------------
//
// A lying replica keeps serving — it answers probes and acks writes — but
// its *replies* are corrupted. The corruption is a pure function of the
// liar's id and the genuine register state (no rng draw), so a lie window
// shifts no random stream and a Byzantine plan stays bit-identical at any
// thread count. The genuine cell is never touched: lies live on the wire,
// which is exactly what signed-reply verification and masking votes can
// catch.
enum class LieMode : std::uint8_t {
  kNone = 0,
  kWrongValue,    // inflated timestamp + fabricated value (a write nobody made)
  kStaleTs,       // pretends the register was never written
  kEquivocate,    // truth to even clients, the kWrongValue fabrication to odd
  kFabricateAck,  // acks writes without applying them (reads stay truthful)
};

const char* lie_mode_name(LieMode mode);

// The fabricated timestamp outranks every honest one by a large constant,
// so an unprotected max-timestamp read reliably adopts the lie; the liar
// signs itself as the writer.
inline constexpr std::uint64_t kLieCounterBoost = 1ull << 20;

inline Timestamp fabricated_timestamp(int server, const Timestamp& truth) {
  return Timestamp{truth.counter + kLieCounterBoost +
                       static_cast<std::uint64_t>(server),
                   server};
}

inline std::uint64_t fabricated_value(int server, const Timestamp& truth,
                                      std::uint64_t value) {
  // Distinct per (liar, state): two liars never corroborate each other, so
  // a b+1 vote can never assemble behind a fabrication of b liars.
  return value ^ (0x9E3779B97F4A7C15ull *
                      (static_cast<std::uint64_t>(server) + 2) +
                  truth.counter + 1);
}

// Does `mode` corrupt a read served to `client`? (kEquivocate splits the
// client space by parity; kFabricateAck corrupts only writes.)
inline bool lie_corrupts_read(LieMode mode, int client) {
  switch (mode) {
    case LieMode::kWrongValue: return true;
    case LieMode::kStaleTs: return true;
    case LieMode::kEquivocate: return client >= 0 && client % 2 == 1;
    default: return false;
  }
}

struct ServerConfig {
  double mean_up = 95.0;
  double mean_down = 5.0;  // stationary p = 0.05 with the defaults
  double service_time = 0.001;
  // Amnesia: lose all register state on recovery (no stable storage). The
  // paper assumes crash (state-preserving) failures; amnesia shows what the
  // probabilistic guarantee costs when that assumption is broken too.
  bool amnesia_on_recovery = false;
  // Reconfiguration bug switch: a retired replica keeps serving reads and
  // writes instead of fencing them with an epoch rejection. Off is correct
  // behaviour; on exists so the chaos harness can prove its
  // no-read-from-retired-server invariant has teeth.
  bool serve_while_retired = false;
  double stationary_down() const { return mean_down / (mean_up + mean_down); }
  // True iff every duration is usable (positive means and a non-negative
  // service time); complaints go to stderr, one line per bad field.
  bool validate() const;
};

class Replica {
 public:
  Replica(int id, const ServerConfig& config, Rng rng);

  int id() const { return id_; }

  // True if the replica is up at `now` (forced windows override the
  // stochastic process; crash wins when both are active).
  bool up(double now) const;

  // --- simulator entry points ---------------------------------------------
  // A probe/read of `object` by `client` at `now`: the (ts, value) reply, or
  // nullopt if the replica is down (a counted drop) or fences the request
  // (the client checks fences_requests() first and reports an epoch
  // rejection; this backstop makes a forgotten check look like a drop
  // rather than a stale read). `client` feeds the equivocation lie mode.
  std::optional<std::pair<Timestamp, std::uint64_t>> handle_read(
      double now, int object = 0, int client = -1);
  // A write at `now`: applies (ts, value) if ts advances the cell; acked
  // (true) unless down or fenced — an acked write landing only on retired
  // replicas would vanish from the new epoch's quorums. A kFabricateAck
  // window acks without applying.
  bool handle_write(double now, const Timestamp& ts, std::uint64_t value,
                    int object = 0);

  // --- served entry points ------------------------------------------------
  struct ReadServed {
    double done = 0.0;  // completion time (queueing + service included)
    Timestamp ts;
    std::uint64_t value = 0;
    // replica_cert over the replica's TRUE stored (ts, value): while lying,
    // ts/value above may be fabricated but the cert still signs the genuine
    // state, so a verifying runner catches the mismatch.
    std::uint32_t cert = 0;
  };

  // handle_read delivered at `now` for an op that arrived at `qnow` (<=
  // now, monotone across ops), plus the time the reply leaves the replica
  // (now + queue wait + service time) and its certificate.
  std::optional<ReadServed> serve_read(int object, double now, double qnow,
                                       int client = -1);

  // handle_write delivered at `now` from an op that arrived at `qnow`;
  // returns the time the ack leaves the replica.
  std::optional<double> serve_write(const Timestamp& ts, std::uint64_t value,
                                    int object, double now, double qnow);

  // Epoch fence: a retired replica answers — at normal queueing cost — with
  // a rejection carrying its epoch instead of register state; nullopt if
  // down (a fence is an answer, so it queues like one).
  std::optional<double> serve_fence(double now, double qnow);

  // --- fault hooks, windows measured from `now` ---------------------------
  // Pins the replica down ("crash") or up ("restart") for `duration`
  // seconds. A window extends, never shortens, an earlier one of the same
  // kind; if both are active, crash wins.
  void force_crash(double now, double duration);
  void force_up(double now, double duration);
  // Gray degradation: service_time is multiplied by `factor` until the
  // window expires (a new call replaces the current window). The replica
  // still answers — slowly enough that clients may time its replies out.
  void set_gray(double factor, double now, double duration);
  bool gray_active(double now) const { return now < gray_until_; }
  // Byzantine lie window: replies over [now, now + duration) are corrupted
  // per `mode` (replace semantics, like set_gray).
  void set_lie(LieMode mode, double now, double duration);
  bool lie_active(double now) const {
    return lie_mode_ != LieMode::kNone && now < lie_until_;
  }
  // Replies this replica corrupted (reads answered with a fabrication or a
  // stale pretense, write acks fabricated) — ground truth for the chaos
  // harness's fabricated-read accounting.
  std::uint64_t lies_told() const { return lies_told_; }

  double service_time(double now) const {
    return config_.service_time * (gray_active(now) ? gray_factor_ : 1.0);
  }

  // --- Epoch membership (reconfiguration, src/core/epoch.h) ---------------
  // Membership and the epoch stamp are set only by epoch transitions
  // (sim/register_core.h), which touch no rng stream. A replica that is not
  // a member of the current epoch is *retired*: it fences requests with an
  // epoch rejection (observable by the client, unlike a crash) unless the
  // serve_while_retired bug switch is on.
  void set_member(bool member) { retired_ = !member; }
  bool retired() const { return retired_; }
  void set_epoch(int epoch) { epoch_ = epoch; }
  int epoch() const { return epoch_; }
  bool fences_requests() const {
    return retired_ && !config_.serve_while_retired;
  }

  // State transfer at an epoch boundary (join-sync / drain-on-leave):
  // adopts (ts, value) if it advances the cell. Instantaneous, draws no
  // randomness, and works even while the destination is down (the transfer
  // is modeled as completing on recovery).
  void adopt_state(const Timestamp& ts, std::uint64_t value, int object = 0);

  Timestamp timestamp(int object = 0) const;
  std::uint64_t value(int object = 0) const;
  // Highest timestamp this replica has ever stored for `object` — NOT
  // cleared by amnesia recovery, so it witnesses what a state wipe lost.
  Timestamp max_timestamp_seen(int object = 0) const;
  // Reads that returned a timestamp below max_timestamp_seen — zero under
  // the paper's crash model, positive once amnesia rolls state back.
  std::uint64_t ts_regressions() const { return ts_regressions_; }
  // Requests (read or write) dropped because the replica was down.
  std::uint64_t dropped_requests() const { return dropped_requests_; }
  // Total seconds of served service time — utilization evidence for the
  // load report (busy fraction = busy_seconds / elapsed virtual time).
  double busy_seconds() const { return busy_seconds_; }
  // Served queue backlog (seconds of queued work) as seen at time `now`;
  // feeds the timeline's queue_max_us series.
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
  struct Metrics;

  void advance_failure_process(double now) const;
  // True if the replica is up at `now`; otherwise counts a dropped request.
  bool admit(double now, const Metrics& metrics);
  // The register core of a read: counts a regression below the high-water
  // mark and returns the reply as reported (corrupted under a lie window).
  std::pair<Timestamp, std::uint64_t> read_cell(const Cell& c, double now,
                                                int client,
                                                const Metrics& metrics);
  // The register core of an acked write: applies it unless a
  // fabricate-ack lie drops it on the floor.
  void write_cell(int object, const Timestamp& ts, std::uint64_t value,
                  double now, const Metrics& metrics);
  // Returns the queue wait + service span to add after `now`; advances the
  // backlog on the monotone `qnow` clock.
  double begin_service(double now, double qnow);
  // The cell of `object` (>= 0), created empty on first touch.
  Cell& cell(int object);
  const Cell* find_cell(int object) const;
  // Stores (ts, value) if ts advances the cell (writes, adopt_state).
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

  // Indexed by object id. Mutable because an amnesia wipe happens while the
  // const failure process advances.
  mutable std::vector<Cell> cells_;
};

}  // namespace sqs
