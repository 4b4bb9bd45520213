// Timeout-probing clients.
//
// A client acquires a quorum by running its family's ProbeStrategy over the
// simulated network: each probe is an RPC whose reply doubles as a read of
// the server's replica state; a missing reply within the timeout is a failed
// probe. Mismatches are therefore *emergent* here (crashed server, flapping
// link, or latency spike), not injected — this is the mechanistic
// counterpart of the abstract model in src/mismatch.
//
// SimClient drives the register protocol (sim/register_core.h) from event
// callbacks: it owns sends, timeouts, retries, the partition filter and the
// deadline; a QuorumAttempt makes every protocol decision:
//   read  — acquire, return the max-timestamp value among reached servers
//           (or the masking vote under RegisterPolicy::lie_tolerance);
//   write — acquire (learning the max timestamp), then push
//           (max+1, client_id) to every reached probed server, per the
//           paper's requirement that clients coordinate with all of S+.
// All operations are asynchronous (completion callbacks), driven by the
// event loop.
//
// Graceful degradation (all off by default, so the classic single-shot
// behaviour — and its rng stream — is unchanged): a failed acquisition can
// be retried up to max_attempts times with exponential backoff and
// deterministic jitter drawn from the client's own rng; the probe timeout
// can adapt to an EWMA of observed reply round-trips (so a gray fleet is
// failed over quickly and a slow-but-healthy one is not); and a
// per-operation deadline bounds the total time an operation may spend
// before reporting failure instead of wedging.

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/epoch.h"
#include "core/quorum_family.h"
#include "obs/recorder.h"
#include "sim/network.h"
#include "sim/register_core.h"
#include "sim/simulator.h"

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
  bool operator==(const ClientConfig&) const = default;
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

class SimClient {
 public:
  // `epochs` (optional) switches the client into epoch mode: the default
  // acquire/read/write overloads resolve family and membership from the
  // client's own — possibly stale — view epoch instead of `family`.
  SimClient(Simulator* sim, Network* net, std::vector<Replica>* servers,
            int id, const QuorumFamily* family, const ClientConfig& config,
            Rng rng, const EpochState* epochs = nullptr);

  int id() const { return id_; }

  // Epoch mode introspection (0 / zero counters in classic mode).
  int view_epoch() const { return view_epoch_; }
  std::uint64_t view_refreshes() const { return view_refreshes_; }
  std::uint64_t epoch_rejects() const { return epoch_rejects_; }
  std::uint64_t retired_reads() const { return retired_reads_; }

  // Runs the probe strategy to completion; `done` fires exactly once.
  // The default overloads use the client's configured family and object 0;
  // the explicit ones support multi-object stores where each object has its
  // own (e.g. rotated) family.
  void acquire(std::function<void(AcquisitionResult)> done);
  void acquire(const QuorumFamily& family, int object,
               std::function<void(AcquisitionResult)> done);

  void read(std::function<void(OpResult)> done);
  void read(const QuorumFamily& family, int object,
            std::function<void(OpResult)> done);
  void write(std::uint64_t value, std::function<void(OpResult)> done);
  void write(const QuorumFamily& family, int object, std::uint64_t value,
             std::function<void(OpResult)> done);

  // The probe timeout the next probe would use (adaptive or fixed).
  double current_probe_timeout() const;

 private:
  struct Acquisition;
  void start_op(const QuorumFamily* family, int object,
                std::function<void(Acquisition&)> done);
  void start_attempt(std::shared_ptr<Acquisition> acq);
  void issue_next_probe(std::shared_ptr<Acquisition> acq);
  // A probe's outcome: a reply, a retired server's fence, or neither.
  void finish_probe(std::shared_ptr<Acquisition> acq, std::uint64_t seq,
                    int server, int target, ReplySlot reply,
                    bool served_retired, bool fenced = false);
  void finish_attempt(std::shared_ptr<Acquisition> acq);
  // A read (no `write` value) or a write of `write`.
  void register_op(const QuorumFamily* family, int object,
                   std::optional<std::uint64_t> write,
                   std::function<void(OpResult)> done);
  void finish_op(Acquisition& acq, std::optional<std::uint64_t> write,
                 const std::function<void(OpResult)>& done);

  Simulator* sim_;
  Network* net_;
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
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_op_ = 0;  // per-client op sequence (OpId low bits)
  double ewma_rtt_ = 0.0;
  bool have_rtt_ = false;
};

}  // namespace sqs
