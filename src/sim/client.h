// Timeout-probing clients.
//
// A client acquires a quorum by running its family's ProbeStrategy over the
// simulated network: each probe is an RPC whose reply doubles as a read of
// the server's replica state; a missing reply within the timeout is a failed
// probe. Mismatches are therefore *emergent* here (crashed server, flapping
// link, or latency spike), not injected — this is the mechanistic
// counterpart of the abstract model in src/mismatch.
//
// SimClient drives the register protocol's AcquisitionMachine
// (sim/register_core.h), one per in-flight op, from event callbacks, with
// its max fold in family-index order: the machine holds the op's evidence
// and decides every probe, view fetch, verdict and write push, and the
// client sees only its calls (the probed set it reports, read repair's
// stale targets). The client owns sends and timeouts, retries with
// backoff, the deadline, the partition filter, the adaptive timeout and
// read repair (ClientConfig). Every send asks the shared Transport
// (sim/transport.h) for the hop's fate at Simulator::now(), schedules a
// delivered hop after its latency, and counts the outcome
// (`sim.net.delivered` / `sim.net.dropped`).
//
// Nothing is allocated per operation once the client has warmed up. Each
// in-flight operation lives in a slot of a per-client pool (reused after
// the op completes) with its machine and its probe strategies (one per
// family, reset every attempt). Event closures carry {client, slot,
// generation}, never the state itself; the slot's generation advances each
// time a probe or the op itself resolves, so a late reply, timeout or push
// ack whose generation no longer matches is dropped — including one that
// arrives after the slot was taken by a later op.

#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/epoch.h"
#include "core/quorum_family.h"
#include "obs/recorder.h"
#include "sim/inline_function.h"
#include "sim/register_core.h"
#include "sim/simulator.h"
#include "sim/transport.h"

namespace sqs {

struct ClientConfig {
  double probe_timeout = 0.25;  // seconds to wait for a probe reply
  // The filtering step of [17] (Sect. 1): before acquiring, the client must
  // reach a beacon outside its local domain; a client whose connectivity is
  // (partially) partitioned away fails that check with probability equal to
  // the partitioned fraction and aborts instead of acquiring a quorum built
  // from wrong negative evidence.
  bool use_partition_filter = false;
  // Read repair: after a read, asynchronously push the max-timestamp value
  // back to every reached server holding an older one. Shrinks the window
  // in which a later non-intersecting quorum could miss the value.
  bool read_repair = false;
  // The masking vote and the stale-view refresh (epoch mode only), shared
  // with the served runner.
  RegisterPolicy policy;

  // --- graceful degradation (defaults preserve the classic behaviour) ---
  // Acquisition attempts per operation. A failed attempt (no quorum, or
  // aborted by the partition filter) is retried after
  //   backoff_base * 2^(attempt-1) * (1 + backoff_jitter * U)
  // seconds, U uniform in [0,1) from the client rng — deterministic given
  // the seed, desynchronized across clients.
  int max_attempts = 1;
  double backoff_base = 0.05;
  double backoff_jitter = 0.5;
  // Adaptive probe timeout: timeout = timeout_multiplier * EWMA of observed
  // reply round-trips, clamped to [min_probe_timeout, max_probe_timeout];
  // probe_timeout is used until the first reply has been observed.
  bool adaptive_timeout = false;
  double ewma_gain = 0.2;  // weight of the newest sample
  double timeout_multiplier = 4.0;
  double min_probe_timeout = 0.02;
  double max_probe_timeout = 1.0;
  // Per-operation deadline in seconds (0 = unbounded): once an operation
  // has been running this long it fails — no further probes, no retry —
  // and the result carries deadline_exceeded.
  double op_deadline = 0.0;

  // True iff timeouts/attempt counts/fractions are usable; complaints go
  // to stderr, one line per bad field.
  bool validate() const;
};

struct AcquisitionResult {
  // Causal op id (stream 1 + client id, per-client sequence); every flight
  // event this operation records carries it.
  obs::OpId op = obs::kNoOp;
  bool acquired = false;
  bool filtered = false;  // final attempt aborted by the partition filter
  SignedSet probed;  // +i reached, -i timed out (final attempt's evidence)
  int num_probes = 0;      // across all attempts
  int attempts = 1;
  bool deadline_exceeded = false;
  double latency = 0.0;  // whole operation, first attempt start to done
  int view_fetches = 0;  // bounded view-refresh round trips this op took
};

// A read's or a write's outcome: its acquisition plus the register's
// verdict (a write's latency runs until its last push resolved).
struct OpResult : AcquisitionResult {
  bool ok = false;
  std::uint64_t value = 0;  // read: the adopted value; write: the written
  Timestamp timestamp;      // read: adopted; write: the one pushed
  int acks = 0;             // writes: push targets that acked
};

// An operation's completion. It receives the result as an rvalue: take it
// by value to keep it, by const reference to borrow it. acquire() passes an
// OpResult too (its register fields stay at their defaults), so a callback
// taking AcquisitionResult works for all three.
using OpCallback = InlineFunction<void(OpResult&&)>;

class SimClient {
 public:
  // `epochs` (optional) switches the client into epoch mode: the default
  // acquire/read/write overloads resolve family and membership from the
  // client's own — possibly stale — view epoch instead of `family`.
  SimClient(Simulator* sim, Transport* transport,
            std::vector<Replica>* servers, int id, const QuorumFamily* family,
            const ClientConfig& config, Rng rng,
            const EpochState* epochs = nullptr);

  int id() const { return id_; }

  // Epoch mode introspection (0 / zero counters in classic mode).
  int view_epoch() const { return view_epoch_; }
  std::uint64_t view_refreshes() const { return view_refreshes_; }
  std::uint64_t epoch_rejects() const { return epoch_rejects_; }
  std::uint64_t retired_reads() const { return retired_reads_; }

  // Runs the probe strategy to completion; `done` fires exactly once.
  // The default overloads use the client's configured family and object 0;
  // the explicit ones support multi-object stores where each object has its
  // own (e.g. rotated) family. A family passed explicitly must outlive the
  // client, which keeps a probe strategy for it.
  void acquire(OpCallback done);
  void acquire(const QuorumFamily& family, int object, OpCallback done);

  void read(OpCallback done);
  void read(const QuorumFamily& family, int object, OpCallback done);
  void write(std::uint64_t value, OpCallback done);
  void write(const QuorumFamily& family, int object, std::uint64_t value,
             OpCallback done);

  // The probe timeout the next probe would use (adaptive or fixed).
  double current_probe_timeout() const;

 private:
  enum class OpKind : std::uint8_t { kAcquire, kRead, kWrite };

  // One in-flight operation: its acquisition, then (reads and writes) the
  // register verdict and a write's push phase, all decided by `machine`.
  struct Acquisition {
    explicit Acquisition(const RegisterPolicy& policy)
        : machine(FoldOrder::kFamilyIndex, policy) {}

    const QuorumFamily* family = nullptr;
    bool epoch_mode = false;
    OpKind kind = OpKind::kAcquire;
    int object = 0;
    // Advances whenever a probe or the op resolves; an event carrying an
    // older value is stale.
    std::uint32_t generation = 0;
    // The probe strategy of every family this slot has run, reset by each
    // attempt instead of rebuilt.
    std::vector<std::pair<const QuorumFamily*, std::unique_ptr<ProbeStrategy>>>
        strategies;
    Rng strategy_rng;
    // The protocol state; its evidence is sized on first use and reused.
    AcquisitionMachine machine;
    OpResult result;  // a write's value is set at start
    double op_start = 0.0;
    OpCallback done;
  };

  void start_op(const QuorumFamily* family, int object, OpKind kind,
                std::uint64_t value, OpCallback done);
  void start_attempt(std::uint32_t slot);
  // One message hop to or from `server`: `on_delivery` runs after the
  // transport's latency if the link delivers at send time, never otherwise.
  void send(int server, SimCallback on_delivery);
  ProbeStrategy* strategy_for(Acquisition& acq, const QuorumFamily& family);
  // Probes replica `target` (the machine's next probe), or ends the attempt
  // when there is none (-1) or the deadline has passed.
  void issue_probe(std::uint32_t slot, int target);
  // What a probe's reply leg carries back: register state, or a retired
  // server's fence. Trivially copyable, so the service-delay and reply-leg
  // closures holding it move by memcpy rather than through a manager call
  // (a ReplySlot would not: std::pair's assignment is user-provided).
  struct ProbeReply {
    Timestamp ts;
    std::uint64_t value = 0;
    bool served_retired = false;  // sampled at serve time
    bool fenced = false;
  };
  static_assert(std::is_trivially_copyable_v<ProbeReply>);
  // A probe's outcome from replica `target`: its reply or fence, or
  // nullptr when the timeout fired first.
  void finish_probe(std::uint32_t slot, std::uint32_t generation, int target,
                    const ProbeReply* reply);
  void finish_attempt(std::uint32_t slot);
  // The register verdict of a read or write whose acquisition finished.
  void finish_op(std::uint32_t slot);
  // Push target `k` acked or timed out.
  void finish_push(std::uint32_t slot, std::uint32_t generation, int k,
                   bool acked);
  // Hands the result to the op's callback, then frees the slot.
  void complete(std::uint32_t slot);
  // Epoch mode: adopt the current epoch as this client's view.
  void adopt_current_view();

  Simulator* sim_;
  Transport* transport_;
  std::vector<Replica>* servers_;
  int id_;
  const QuorumFamily* family_;  // nullptr in epoch mode (see start_op)
  ClientConfig config_;
  Rng rng_;
  const EpochState* epochs_ = nullptr;  // non-null in epoch mode
  int view_epoch_ = 0;                  // the epoch this client believes in
  std::uint64_t view_refreshes_ = 0;
  std::uint64_t epoch_rejects_ = 0;
  std::uint64_t retired_reads_ = 0;
  std::uint64_t probes_issued_ = 0;  // seeds each attempt's strategy rng
  std::uint64_t next_op_ = 0;  // per-client op sequence (OpId low bits)
  double ewma_rtt_ = 0.0;
  bool have_rtt_ = false;
  // The operation pool. Slots are boxed so one stays put while its
  // callback starts another op that grows the pool.
  std::vector<std::unique_ptr<Acquisition>> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace sqs
