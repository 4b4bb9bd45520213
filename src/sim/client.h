// Timeout-probing clients.
//
// A client acquires a quorum by running its family's ProbeStrategy over the
// simulated network: each probe is an RPC whose reply doubles as a read of
// the server's replica state; a missing reply within the timeout is a failed
// probe. Mismatches are therefore *emergent* here (crashed server, flapping
// link, or latency spike), not injected — this is the mechanistic
// counterpart of the abstract model in src/mismatch.
//
// On top of acquisition the client offers ABD-style register operations:
//   read  — acquire, return the max-timestamp value among reached servers;
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
  // Masking vote (Malkhi–Reiter–Wool): when > 0, up to this many servers
  // may lie, so a read only adopts the highest-timestamped (ts, value)
  // pair reported identically by >= lie_tolerance+1 reached servers, and a
  // write derives its new timestamp from voted pairs only. An acquisition
  // whose replies contain no such pair fails the operation instead of
  // returning a possible fabrication. 0 (default) keeps the classic
  // max-timestamp fold — correct under the paper's fail-stop model, and
  // exactly what a Byzantine plan exploits against a non-masking family.
  int lie_tolerance = 0;

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

  // --- stale views under reconfiguration (epoch mode only) --------------
  // A client holds the membership view of some epoch and learns it is
  // stale observably: retired servers fence its probes with an epoch
  // rejection, and replies from live servers carry the current epoch
  // stamp. When a *failed* attempt saw such evidence the client fetches
  // the current view (a fixed view_fetch_delay round trip — no rng draw,
  // so churn stays stream-neutral) and re-probes under the new family;
  // the fetch does not consume an acquisition attempt but is bounded by
  // max_view_fetches per operation. A *successful* attempt with stale
  // evidence refreshes asynchronously after the op completes. Turning
  // refresh_views off makes the client stale forever — the designed-to-
  // fail chaos scenario.
  bool refresh_views = true;
  double view_fetch_delay = 0.05;
  int max_view_fetches = 4;

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
  SignedSet quorum;
  int num_probes = 0;      // across all attempts
  int attempts = 1;
  bool deadline_exceeded = false;
  double latency = 0.0;  // whole operation, first attempt start to done
  // Reply snapshot per server (only reached servers have values). In epoch
  // mode the index space is the *family's* (map to logical ids via `view`).
  std::vector<ReplySlot> replies;
  // Parallel to `replies`: nonzero when the reply was served by a replica
  // that was already retired AT SERVE TIME (only possible under the
  // serve_while_retired bug switch). Captured with the reply, not at
  // adoption time — a server legitimately serving just before its epoch
  // boundary is not a retired read.
  std::vector<char> reply_retired;
  // Epoch mode: the membership view the final attempt probed under (owned
  // by the run's EpochedFamily, which outlives every operation); nullptr
  // for classic fixed-universe acquisitions.
  const MembershipView* view = nullptr;
  int view_fetches = 0;   // bounded view-refresh round trips this op took
  int epoch_rejects = 0;  // probes fenced by retired servers
};

struct ReadResult {
  obs::OpId op = obs::kNoOp;
  bool ok = false;
  bool filtered = false;
  std::uint64_t value = 0;
  Timestamp timestamp;
  int num_probes = 0;
  int attempts = 1;
  bool deadline_exceeded = false;
  double latency = 0.0;
  SignedSet probed;  // servers probed during acquisition (+reached/-not)
};

struct WriteResult {
  obs::OpId op = obs::kNoOp;
  bool ok = false;
  bool filtered = false;
  Timestamp timestamp;
  int num_probes = 0;
  int attempts = 1;
  bool deadline_exceeded = false;
  int acks = 0;
  double latency = 0.0;
  SignedSet probed;  // servers probed during acquisition (+reached/-not)
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

  void read(std::function<void(ReadResult)> done);
  void read(const QuorumFamily& family, int object,
            std::function<void(ReadResult)> done);
  void write(std::uint64_t value, std::function<void(WriteResult)> done);
  void write(const QuorumFamily& family, int object, std::uint64_t value,
             std::function<void(WriteResult)> done);

  // The probe timeout the next probe would use (adaptive or fixed).
  double current_probe_timeout() const;

 private:
  struct Acquisition;
  void start_op(const QuorumFamily* family, int object,
                std::function<void(AcquisitionResult)> done);
  void start_attempt(std::shared_ptr<Acquisition> acq);
  void issue_next_probe(std::shared_ptr<Acquisition> acq);
  void finish_probe(std::shared_ptr<Acquisition> acq, std::uint64_t seq,
                    int server, int target,
                    ReplySlot reply,
                    bool served_retired);
  void finish_probe_fenced(std::shared_ptr<Acquisition> acq,
                           std::uint64_t seq, int server, int target);
  void finish_attempt(std::shared_ptr<Acquisition> acq, bool acquired);
  void finish_read(int object, AcquisitionResult acq,
                   const std::function<void(ReadResult)>& done);
  void finish_write(int object, std::uint64_t value, AcquisitionResult acq,
                    const std::function<void(WriteResult)>& done);

  Simulator* sim_;
  Network* net_;
  std::vector<Replica>* servers_;
  int id_;
  const QuorumFamily* family_;
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
