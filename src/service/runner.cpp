#include "service/runner.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <utility>

#include "obs/trace.h"
#include "runtime/scratch.h"
#include "runtime/thread_pool.h"

namespace sqs {

namespace {

struct ServiceMetrics {
  obs::Counter requests = obs::Registry::instance().counter("service.requests");
  obs::Counter decode_failures =
      obs::Registry::instance().counter("service.decode_failures");
  obs::Counter reads_ok = obs::Registry::instance().counter("service.reads_ok");
  obs::Counter writes_ok =
      obs::Registry::instance().counter("service.writes_ok");
  obs::Counter stale_reads =
      obs::Registry::instance().counter("service.stale_reads");
  obs::Counter cert_rejects =
      obs::Registry::instance().counter("service.cert_rejects");
  obs::Counter fabricated_reads =
      obs::Registry::instance().counter("service.fabricated_reads");
  obs::Counter faults_injected =
      obs::Registry::instance().counter("service.faults.injected");
  obs::Histogram op_latency_us = obs::Registry::instance().histogram(
      "service.op_latency_us", service_latency_bounds());
  obs::Histogram prologue_ns = obs::Registry::instance().histogram(
      "service.prologue_batch_ns", obs::pow2_bounds(10, 34));
  obs::Histogram solo_ns = obs::Registry::instance().histogram(
      "service.solo_batch_ns", obs::pow2_bounds(10, 34));
  obs::Histogram audit_ns = obs::Registry::instance().histogram(
      "service.audit_batch_ns", obs::pow2_bounds(10, 34));
  obs::Histogram epilogue_ns = obs::Registry::instance().histogram(
      "service.epilogue_batch_ns", obs::pow2_bounds(10, 34));
  static const ServiceMetrics& get() {
    static const ServiceMetrics m;
    return m;
  }
};

using obs::to_us;

// Times one stage call when telemetry is on (checked once per call).
struct StageTimer {
  bool on = obs::telemetry_enabled();
  std::uint64_t start_ns = on ? obs::trace_now_ns() : 0;
  std::uint64_t elapsed() const { return obs::trace_now_ns() - start_ns; }
};

// One in-flight batch: its decoded requests, replies, each op's exact
// virtual finish time (for the audit) and, when the caller asked for no
// reply stream, its encoded replies. The batch's stages hand the slot from
// thread to thread through the pipeline's mutex.
struct BatchSlot {
  std::uint64_t batch = 0;
  bool decoded = false;
  bool encoded = false;
  std::uint64_t decode_failures = 0, cert_rejects = 0;
  std::uint64_t epilogue_ns = 0;  // encode time, until the fold records it
  std::vector<Request> requests;
  std::vector<std::uint32_t> expected_certs;
  std::vector<Reply> replies;
  std::vector<double> finish;
  std::vector<std::uint8_t> encoded_bytes;
};

// The ring of in-flight batches, borrowed from the serving thread's
// WorkerScratch so the slot buffers keep their capacity across calls.
struct BatchRing {
  std::vector<BatchSlot> slots;
};

// The served path's batch pipeline over a ring of slots (batch b in slot
// b % size). Every participating thread calls run(); the first one becomes
// the sequencer, the only thread that runs the solo stage, batch after
// batch. The others decode ahead of it (claimed in order, at most one ring
// ahead of the oldest unreleased batch), and audit and encode behind it.
// Encodes are claimed in order. The fold into the fingerprint is in order
// too: whoever finishes encoding the lowest unfolded batch takes the fold
// turn and folds every encoded batch from there on; an encoder that starts
// on the lowest unfolded batch folds it inside its encode pass. The audit
// is a turn as well: a thread that takes it audits solved batches in order
// until none is left, so the audit state stays on one core while the
// sequencer keeps ahead. A slot is released once its batch is both folded
// and audited.
//
// Deadlock freedom: a claimed decode, audit or encode (fold turn included)
// runs to its end without waiting on anything, so only the sequencer and
// idle helpers ever wait, and each waits only for work some running thread
// has claimed. The sequencer never waits for unclaimed work: it decodes the
// next batch itself when no one has claimed it, and when the ring is full
// it takes the free audit turn or encodes the oldest unclaimed solved batch
// itself. So one participant alone finishes the stream, and more
// participants only take work off it; no sleeping helper is ever needed for
// progress, which lets the sequencer wake one only when all of them sleep.
//
// Stages provides decode, solo, audit, encode(slot, fold_in_pass) and fold
// over a BatchSlot; the pipeline calls each once per batch.
template <typename Stages>
class BatchPipeline {
 public:
  BatchPipeline(std::uint64_t num_batches, std::vector<BatchSlot>& slots,
                Stages& stages)
      : num_batches_(num_batches), slots_(slots), stages_(stages) {}

  void run() {
    Lock lk(mu_);
    ++participants_;
    if (!sequencer_taken_) {
      sequencer_taken_ = true;
      sequence(lk);
    }
    help(lk);
  }

  bool finished() const {
    return folded_ == num_batches_ && audited_ == num_batches_;
  }

 private:
  using Lock = std::unique_lock<std::mutex>;
  // Spins of the sequencer's wait before it blocks: a few microseconds.
  static constexpr int kSpins = 256;

  BatchSlot& slot(std::uint64_t b) { return slots_[b % slots_.size()]; }
  bool ring_has_room(std::uint64_t b) const {
    return b < std::min(folded_, audited_) + slots_.size();
  }
  bool audit_open() const { return !auditing_ && audited_ < solved_; }
  // Every remaining encode and audit is claimed, so idle helpers may leave.
  bool all_claimed() const {
    return encode_next_ == num_batches_ &&
           (auditing_ || audited_ == num_batches_);
  }

  void sequence(Lock& lk) {
    bool wake = false;
    for (std::uint64_t b = 0; b < num_batches_; ++b) {
      BatchSlot& s = slot(b);
      while (!(decode_next_ > b && s.decoded)) {
        if (decode_next_ == b && ring_has_room(b)) {
          decode(lk);
        } else if (decode_next_ == b && audit_open()) {
          audit(lk);
        } else if (decode_next_ == b && encode_next_ < solved_) {
          encode(lk);
        } else {
          wait_sequencer(lk);
        }
      }
      lk.unlock();
      if (wake) helper_cv_.notify_one();
      stages_.solo(s);
      lk.lock();
      ++solved_;
      // A helper is woken only when every helper sleeps: an awake one finds
      // the solved batch by itself, and a wake-up can cost the sequencer a
      // context switch (the woken thread may be placed on its CPU).
      wake = sleeping_ > 0 && sleeping_ + 1 == participants_;
    }
    if (wake) helper_cv_.notify_one();
  }

  void help(Lock& lk) {
    for (;;) {
      if (audit_open()) {
        audit(lk);
      } else if (encode_next_ < solved_) {
        encode(lk);
      } else if (decode_next_ < num_batches_ && ring_has_room(decode_next_)) {
        decode(lk);
      } else if (all_claimed()) {
        return;
      } else {
        ++sleeping_;
        helper_cv_.wait(lk);
        --sleeping_;
      }
    }
  }

  void decode(Lock& lk) {
    BatchSlot& s = slot(decode_next_);
    s.batch = decode_next_++;
    s.decoded = false;
    s.encoded = false;
    lk.unlock();
    stages_.decode(s);
    lk.lock();
    s.decoded = true;
    changed();
    sequencer_cv_.notify_one();
  }

  void encode(Lock& lk) {
    const std::uint64_t b = encode_next_++;
    BatchSlot& s = slot(b);
    const bool fold_in_pass = b == folded_ && !folding_;
    if (fold_in_pass) folding_ = true;
    if (all_claimed()) helper_cv_.notify_all();  // idle helpers leave
    lk.unlock();
    stages_.encode(s, fold_in_pass);
    lk.lock();
    s.encoded = true;
    if (fold_in_pass) {
      ++folded_;
      advanced();
    } else if (folding_) {
      return;  // the fold turn's holder reaches this batch in order
    } else {
      folding_ = true;
    }
    // This thread holds the fold turn: fold every encoded batch in order.
    while (folded_ < encode_next_ && slot(folded_).encoded) {
      BatchSlot& next = slot(folded_);
      lk.unlock();
      stages_.fold(next);
      lk.lock();
      ++folded_;
      advanced();
    }
    folding_ = false;
  }

  // Takes the audit turn and audits solved batches in order until none is
  // left.
  void audit(Lock& lk) {
    auditing_ = true;
    if (all_claimed()) helper_cv_.notify_all();  // idle helpers leave
    while (audited_ < solved_) {
      BatchSlot& s = slot(audited_);
      lk.unlock();
      stages_.audit(s);
      lk.lock();
      ++audited_;
      advanced();
    }
    auditing_ = false;
  }

  // A batch was folded or audited: its slot may take a new batch. Only the
  // sequencer is told; the thread that advanced goes on helping.
  void advanced() {
    changed();
    sequencer_cv_.notify_one();
  }

  void changed() { changes_.fetch_add(1, std::memory_order_relaxed); }

  // Waits for the next state change: a short spin, then the condvar.
  void wait_sequencer(Lock& lk) {
    const std::uint64_t seen = changes_.load(std::memory_order_relaxed);
    lk.unlock();
    for (int i = 0;
         i < kSpins && changes_.load(std::memory_order_relaxed) == seen; ++i)
      spin_pause();
    lk.lock();
    if (changes_.load(std::memory_order_relaxed) == seen)
      sequencer_cv_.wait(lk);
  }

  static void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  const std::uint64_t num_batches_;
  std::vector<BatchSlot>& slots_;
  Stages& stages_;
  std::mutex mu_;
  std::condition_variable sequencer_cv_, helper_cv_;
  std::atomic<std::uint64_t> changes_{0};  // written under mu_
  // Batches claimed for decode, solved, claimed for encode, folded, audited.
  std::uint64_t decode_next_ = 0, solved_ = 0, encode_next_ = 0, folded_ = 0,
                audited_ = 0;
  int participants_ = 0;  // threads that called run()
  int sleeping_ = 0;      // helpers blocked on helper_cv_
  bool sequencer_taken_ = false;
  bool folding_ = false;   // some thread holds the fold turn
  bool auditing_ = false;  // some thread holds the audit turn
};

}  // namespace

std::vector<std::uint64_t> service_latency_bounds() {
  std::vector<std::uint64_t> bounds =
      obs::linear_bounds(1000, 200000, 1000);  // 1 ms steps to 200 ms
  for (int e = 18; e <= 26; ++e)               // 262 ms .. 67 s
    bounds.push_back(1ull << e);
  return bounds;
}

bool ServiceConfig::validate(int num_servers) const {
  bool ok = network.validate() && server.validate();
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "ServiceConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (num_clients < 1) reject("num_clients", num_clients);
  if (!(probe_timeout > 0.0)) reject("probe_timeout", probe_timeout);
  if (batch < 1) reject("batch", batch);
  if (threads < 0) reject("threads", threads);
  if (!policy.validate("ServiceConfig")) ok = false;
  if (epochs != nullptr) {
    if (!epochs->validate()) {
      ok = false;
    } else if (epochs->num_logical != num_servers) {
      std::fprintf(stderr,
                   "ServiceConfig: epoch schedule spans %d logical servers, "
                   "fleet has %d\n",
                   epochs->num_logical, num_servers);
      ok = false;
    }
  }
  if (!plan.validate(num_clients, num_servers)) ok = false;
  return ok;
}

ServiceRunner::ServiceRunner(const QuorumFamily& family,
                             const ServiceConfig& config)
    : config_(config),
      transport_(config.num_clients,
                 config.epochs != nullptr ? config.epochs->num_logical
                                          : family.universe_size(),
                 config.network, Rng(config.seed).split("network")),
      op_rng_base_(Rng(config.seed).split("ops")),
      fault_timeline_(config.plan.events),
      lat_bounds_(service_latency_bounds()),
      latency_(lat_bounds_.size()) {
  // In epoch mode the fleet spans every logical id the schedule ever uses,
  // and the ctor family must be epoch 0's family (same universe size).
  const int world = config.epochs != nullptr ? config.epochs->num_logical
                                             : family.universe_size();
  assert(config.validate(world));
  const Rng server_base = Rng(config.seed).split("servers");
  replicas_.reserve(static_cast<std::size_t>(world));
  for (int i = 0; i < world; ++i)
    replicas_.emplace_back(i, config.server, server_base.split(
                                                 static_cast<std::uint64_t>(i)));
  attempt_ = QuorumAttempt(world);
  if (config_.epochs != nullptr) {
    const EpochedFamily& sched = *config_.epochs;
    assert(sched.entry(0).family->universe_size() == family.universe_size());
    for (const EpochEntry& e : sched.epochs)
      strategies_.push_back(e.family->make_probe_strategy());
    for (std::size_t i = 0; i < replicas_.size(); ++i)
      replicas_[i].set_member(sched.entry(0).view.contains(static_cast<int>(i)));
  } else {
    strategies_.push_back(family.make_probe_strategy());
  }
  std::stable_sort(fault_timeline_.begin(), fault_timeline_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  // The frontier keeps tens of writes in the benchmark's runs; sized here,
  // on the constructing thread, like the audit set in serve(), so the
  // audit does not grow it on a pool thread.
  frontier_.reserve(1024);
  cert_memo_.resize(replicas_.size());
  for (std::size_t i = 0; i < cert_memo_.size(); ++i)
    cert_memo_[i].key = replica_signing_key(static_cast<int>(i));
  if (config.timeline_window_us > 0)
    timeline_ = obs::Timeline(config.timeline_window_us,
                              service_latency_bounds());
}

ServiceRunner::~ServiceRunner() = default;

void ServiceRunner::apply_faults_until(double now) {
  while (next_fault_ < fault_timeline_.size() &&
         fault_timeline_[next_fault_].at <= now) {
    const FaultEvent& e = fault_timeline_[next_fault_++];
    obs::flight(obs::FlightKind::kFault, obs::kNoOp, to_us(e.at), e.server,
                static_cast<std::uint64_t>(e.kind));
    apply_fault(e, e.at, transport_, replicas_);
    ServiceMetrics::get().faults_injected.add(1);
  }
}

void ServiceRunner::apply_epochs_until(double now) {
  if (config_.epochs == nullptr) return;
  const EpochedFamily& sched = *config_.epochs;
  // Applied in arrival order from the solo stage, like the fault cursor.
  while (current_epoch_ + 1 < sched.num_epochs() &&
         sched.entry(current_epoch_ + 1).at <= now) {
    apply_epoch_transition(sched, ++current_epoch_, replicas_);
    ++totals_.epoch_transitions;
  }
}

std::uint32_t ServiceRunner::expected_replica_cert(int replica,
                                                  const Timestamp& ts,
                                                  std::uint64_t value) {
  CertMemo& memo = cert_memo_[static_cast<std::size_t>(replica)];
  if (!memo.valid || !(memo.ts == ts) || memo.value != value)
    memo = CertMemo{memo.key, ts, value, replica_cert(memo.key, ts, value),
                    true};
  return memo.cert;
}

Reply ServiceRunner::execute_op(const Request& req, double* finish_out) {
  const double arrival = req.arrival();
  last_arrival_ = std::max(last_arrival_, arrival);
  apply_faults_until(arrival);
  apply_epochs_until(arrival);

  const obs::OpId op = obs::make_op_id(obs::kServiceStream, req.seq);
  obs::flight(obs::FlightKind::kArrival, op, req.arrival_us, -1, req.client);
  // Queue backlog across the fleet at this arrival (timeline evidence only;
  // skipped when no timeline so the hot path stays O(probes)).
  std::uint64_t queue_us = 0;
  if (timeline_.enabled()) {
    double backlog = 0.0;
    for (const Replica& r : replicas_)
      backlog = std::max(backlog, r.backlog(arrival));
    queue_us = to_us(backlog);
  }
  std::uint64_t op_drops = 0;  // arrivals at a down replica, this op

  Reply rep;
  rep.seq = req.seq;
  rep.kind = req.kind;

  // Acquisition: the register protocol's QuorumAttempt driven by a
  // synchronous loop in virtual time. A probe's round trip is to-server leg
  // + replica queueing/service + to-client leg; replies later than
  // probe_timeout count as failures (the server still did the work). In
  // epoch mode the runner probes under its own (possibly stale) adopted
  // view, retired replicas fence probes with an observable epoch
  // rejection, and a failed acquisition with epoch evidence re-probes under
  // a freshly fetched view (bounded, fixed-cost, rng-free — bit-identity
  // holds at any thread count because all of this is solo-stage
  // arrival-ordered state).
  const double timeout = config_.probe_timeout;
  const int client = static_cast<int>(req.client);
  // True, with the round trip in *rtt, when `dst`'s reply to a request
  // sent at `sent` and served by `done` arrives within the timeout.
  const auto timely = [&](int dst, double sent, double done, double* rtt) {
    const Transport::Delivery back = transport_.attempt(client, dst, done);
    if (!back.delivered || done + back.latency - sent > timeout) return false;
    *rtt = done + back.latency - sent;
    return true;
  };
  QuorumAttempt& attempt = attempt_;
  Rng op_rng = op_rng_base_.split(req.seq);
  double t = arrival;
  std::uint32_t probes = 0;
  int view_fetches = 0;
  const auto refresh_view = [&] {
    ++totals_.view_refreshes;
    view_epoch_ = current_epoch_;
    obs::flight(obs::FlightKind::kViewRefresh, op, to_us(t), -1,
                static_cast<std::uint64_t>(view_epoch_));
  };
  for (;;) {
    attempt.begin(strategies_[static_cast<std::size_t>(view_epoch_)].get(),
                  &op_rng,
                  config_.epochs != nullptr
                      ? &config_.epochs->entry(view_epoch_).view
                      : nullptr);
    while (attempt.in_progress()) {
      const int s = attempt.next_server();
      const int dst = attempt.wire(s);
      Replica& replica = replicas_[static_cast<std::size_t>(dst)];
      ++probes;
      const double t0 = t;
      double rtt = timeout;  // no timely reply: the probe costs the timeout
      bool reached = false;
      const Transport::Delivery to = transport_.attempt(client, dst, t);
      if (!to.delivered) {
        attempt.missed(s);
      } else if (replica.fences_requests()) {
        // Epoch fence: the retired replica answers — at normal queueing
        // cost — with a rejection carrying its epoch.
        const auto done = replica.serve_fence(t + to.latency, arrival);
        if (!done) ++op_drops;
        if (done && timely(dst, t, *done, &rtt)) {
          ++totals_.epoch_rejects;
          obs::flight(obs::FlightKind::kEpochFenced, op, to_us(t0), dst,
                      static_cast<std::uint64_t>(replica.epoch()));
          attempt.fenced(s);
        } else {
          attempt.missed(s);
        }
      } else {
        const auto served =
            replica.serve_read(0, t + to.latency, arrival, client);
        if (!served) ++op_drops;
        // A timely reply joins the quorum only if its certificate matches
        // what it reports. A lying replica signs its true state, so its
        // fabrication fails here and the probe counts as a miss (the
        // client spent the rtt, not the timeout).
        if (served && timely(dst, t, served->done, &rtt)) {
          reached = !config_.verify_replica_certs ||
                    served->cert == expected_replica_cert(dst, served->ts,
                                                          served->value);
          if (!reached) ++totals_.cert_rejects;
        }
        if (reached) {
          attempt.reached(s, served->ts, served->value, replica.retired(),
                          replica.epoch());
        } else {
          attempt.missed(s);
        }
      }
      t += rtt;
      // Hot-path flight calls check the gate first, so an off recorder
      // converts no times (see obs::flight).
      if (obs::recorder_enabled())
        obs::flight(reached ? obs::FlightKind::kProbe
                            : obs::FlightKind::kProbeMiss,
                    op, to_us(t0), dst, to_us(t - t0));
    }
    if (!attempt.refetch_view(config_.policy, view_fetches, current_epoch_,
                              view_epoch_))
      break;
    // Stale-view recovery: fetch the current view (fixed delay, no rng
    // draw) and re-probe under it.
    ++view_fetches;
    t += config_.policy.view_fetch_delay;
    refresh_view();
  }
  // Learn the current view for subsequent ops.
  if (attempt.learn_view(config_.policy, current_epoch_, view_epoch_))
    refresh_view();
  if (obs::recorder_enabled())
    obs::flight(attempt.acquired() ? obs::FlightKind::kQuorumAcquired
                                   : obs::FlightKind::kQuorumFailed,
                op, to_us(t), -1, probes);
  totals_.probes += probes;
  rep.probes = probes;
  double finish = t;

  // What the acquired quorum's replies say; !ok fails the op. The masking
  // vote breaks ties in family-index order, the max fold in probe order.
  const int b = config_.policy.lie_tolerance;
  const FoldResult adopted =
      attempt.fold(b, b > 0 ? FoldOrder::kFamilyIndex : FoldOrder::kProbe);
  rep.ok = adopted.ok;
  if (req.kind == OpKind::kRead) {
    ++totals_.reads;
    if (adopted.ok) {
      ++totals_.reads_ok;
      rep.ts = adopted.ts;
      rep.value = adopted.value;
      if (attempt.audit_retired_read(adopted, op, to_us(t)))
        ++totals_.retired_reads;
    }
  } else {
    ++totals_.writes;
    if (adopted.ok) {
      ++totals_.writes_ok;
      const Timestamp new_ts = QuorumAttempt::write_timestamp(adopted, client);
      // Each push resolves at its ack round trip or at the timeout, and the
      // write completes when the last target resolves.
      int acks = 0;
      double end = t;
      for (const int s : attempt.push_targets()) {
        const int dst = attempt.wire(s);
        double resolve = timeout;
        bool acked = false;
        const Transport::Delivery to = transport_.attempt(client, dst, t);
        if (to.delivered) {
          const auto done = replicas_[static_cast<std::size_t>(dst)].serve_write(
              new_ts, req.value, 0, t + to.latency, arrival);
          if (!done) ++op_drops;
          acked = done && timely(dst, t, *done, &resolve);
        }
        if (acked) ++acks;
        if (obs::recorder_enabled())
          obs::flight(acked ? obs::FlightKind::kWriteAck
                            : obs::FlightKind::kWriteNack,
                      op, to_us(t), dst, to_us(resolve));
        end = std::max(end, t + resolve);
      }
      totals_.write_acks += static_cast<std::uint64_t>(acks);
      rep.ts = new_ts;
      rep.value = req.value;
      if (acks > 0) max_acked_ts_ = std::max(max_acked_ts_, new_ts);
      finish = end;
    }
  }

  const std::uint64_t latency_us = to_us(finish - arrival);
  rep.latency_us = latency_us;
  *finish_out = finish;
  // Op-tagged wall-clock instant so --trace-jsonl reconstructs a served
  // op's journey (scripts/op_timeline.py) alongside the flight recorder's
  // virtual-time view.
  if (obs::trace_enabled())
    obs::instant_op("service", rep.ok ? "op_served" : "op_failed", op,
                    "latency_us", latency_us);
  timeline_.record_op(req.arrival_us, rep.ok, req.kind == OpKind::kRead,
                      latency_us, probes, queue_us, op_drops);
  return rep;
}

void ServiceRunner::audit_op(const Request& req, const Reply& rep,
                             double finish) {
  const Timestamp& frontier = frontier_.advance(req.arrival());
  const obs::OpId op = obs::make_op_id(obs::kServiceStream, req.seq);
  if (rep.ok && req.kind == OpKind::kRead) {
    if (rep.ts < frontier) {
      ++totals_.stale_reads;
      obs::flight(obs::FlightKind::kStaleRead, op, to_us(finish));
    }
    // No-fabricated-write check, exact because the audit runs in arrival
    // order: a non-zero binding must have been produced by some earlier ok
    // write of this runner.
    if (Timestamp{} < rep.ts && !genuine_writes_.contains(rep.ts, rep.value)) {
      ++totals_.fabricated_reads;
      obs::flight(obs::FlightKind::kFabricatedRead, op, to_us(finish), -1,
                  rep.value);
    }
  } else if (rep.ok) {
    genuine_writes_.insert(rep.ts, rep.value);
    frontier_.add(finish, rep.ts);
  }
  latency_.record(lat_bounds_, rep.latency_us);
  ServiceMetrics::get().op_latency_us.record(rep.latency_us);
  if (obs::recorder_enabled())
    obs::flight(obs::FlightKind::kOpDone, op, to_us(finish), -1,
                rep.latency_us);
}

ServiceResult ServiceRunner::serve(const std::vector<std::uint8_t>& requests,
                                   std::vector<std::uint8_t>* replies_out) {
  assert(requests.size() % kRequestWireSize == 0);
  const std::uint64_t n = requests.size() / kRequestWireSize;
  const std::uint64_t batch = static_cast<std::uint64_t>(config_.batch);
  const std::uint64_t num_batches = (n + batch - 1) / batch;
  const ServiceResult before = totals_;  // obs counters get this call's deltas

  // Size the audit set for this call's write requests here, on the calling
  // thread. Grown inside the audit instead, each doubling would be
  // allocated by whichever pool thread holds the audit turn, and the freed
  // tables would pile up in every thread's malloc arena across runners.
  genuine_writes_.reserve(
      static_cast<std::size_t>(count_write_requests(requests.data(), n)));
  if (replies_out != nullptr) replies_out->resize(n * kReplyWireSize);

  // The four stages of one batch. A local class, so the solo stage and the
  // audit reach the runner's private state.
  struct Stages {
    ServiceRunner& runner;
    const std::uint8_t* in;
    std::uint8_t* stream;  // the caller's reply stream, or null
    std::uint64_t n, batch;
    std::uint64_t fingerprint = kFingerprintBasis;

    std::uint64_t begin(const BatchSlot& s) const { return s.batch * batch; }
    std::uint64_t size(const BatchSlot& s) const {
      return std::min(n, begin(s) + batch) - begin(s);
    }
    std::uint8_t* records(BatchSlot& s) const {
      return stream != nullptr ? stream + begin(s) * kReplyWireSize
                               : s.encoded_bytes.data();
    }

    // Prologue: decode + verify the batch's records. The client-certificate
    // check lives here too — the signature verification a WAN deployment
    // hoists into the stateless stage — so an impersonated request never
    // reaches the solo stage. The decoder computes the expected cert in
    // the same pass as the checksum.
    void decode(BatchSlot& s) const {
      const StageTimer timer;
      const std::size_t count = size(s);
      s.requests.resize(count);
      s.expected_certs.resize(count);
      decode_requests(in + begin(s) * kRequestWireSize, count,
                      s.requests.data(), s.expected_certs.data());
      s.decode_failures = 0;
      s.cert_rejects = 0;
      for (std::size_t i = 0; i < count; ++i) {
        Request& req = s.requests[i];
        if (!req.valid) {
          ++s.decode_failures;
        } else if (req.cert != s.expected_certs[i]) {
          req.valid = false;
          ++s.cert_rejects;
        }
        if (req.valid) {
          obs::flight(obs::FlightKind::kDecoded,
                      obs::make_op_id(obs::kServiceStream, req.seq),
                      req.arrival_us, -1, 1);
        }
      }
      if (timer.on) ServiceMetrics::get().prologue_ns.record(timer.elapsed());
    }

    // Solo: the batch's ops in arrival order.
    void solo(BatchSlot& s) const {
      const StageTimer timer;
      runner.totals_.decode_failures += s.decode_failures;
      runner.totals_.cert_rejects += s.cert_rejects;
      const std::size_t count = size(s);
      s.replies.resize(count);
      s.finish.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const Request& req = s.requests[i];
        Reply& rep = s.replies[i];
        if (req.valid) {
          rep = runner.execute_op(req, &s.finish[i]);
        } else {
          rep = Reply{};
          rep.seq = begin(s) + i;
        }
      }
      if (timer.on) ServiceMetrics::get().solo_ns.record(timer.elapsed());
    }

    // Audit: the solved batch's ops in arrival order, after every earlier
    // batch's audit.
    void audit(const BatchSlot& s) const {
      const StageTimer timer;
      const std::size_t count = size(s);
      for (std::size_t i = 0; i < count; ++i)
        if (s.requests[i].valid)
          runner.audit_op(s.requests[i], s.replies[i], s.finish[i]);
      if (timer.on) ServiceMetrics::get().audit_ns.record(timer.elapsed());
    }

    // Epilogue: encode + checksum the batch's replies, folding them into
    // the fingerprint in the same pass when this batch holds the fold turn.
    void encode(BatchSlot& s, bool fold_in_pass) {
      const StageTimer timer;
      const std::size_t count = size(s);
      if (stream == nullptr) s.encoded_bytes.resize(count * kReplyWireSize);
      encode_replies(s.replies.data(), count, records(s),
                     fold_in_pass ? &fingerprint : nullptr);
      for (std::size_t i = 0; i < count; ++i) {
        const Request& req = s.requests[i];
        const Reply& rep = s.replies[i];
        if (req.valid) {
          obs::flight(obs::FlightKind::kEncoded,
                      obs::make_op_id(obs::kServiceStream, req.seq),
                      req.arrival_us + rep.latency_us, -1, rep.ok ? 1 : 0);
        }
      }
      s.epilogue_ns = timer.on ? timer.elapsed() : 0;
      if (fold_in_pass && timer.on)
        ServiceMetrics::get().epilogue_ns.record(s.epilogue_ns);
    }

    // The batch's encoded replies into the fingerprint, after the batch
    // before it; the epilogue time covers its encode and this fold.
    void fold(BatchSlot& s) {
      const StageTimer timer;
      fingerprint =
          fold_fingerprint(fingerprint, records(s), size(s) * kReplyWireSize);
      if (timer.on)
        ServiceMetrics::get().epilogue_ns.record(s.epilogue_ns +
                                                 timer.elapsed());
    }
  };
  Stages stages{*this, requests.data(),
                replies_out != nullptr ? replies_out->data() : nullptr, n,
                batch};

  // The ring's buffers are sized here, on the calling thread, so no stage
  // allocates on whichever thread first runs it.
  const int threads = config_.threads > 0 ? config_.threads : default_threads();
  const bool pipelined =
      threads > 1 && num_batches > 1 && !ThreadPool::inside_worker();
  Borrowed<BatchRing> ring = WorkerScratch::for_thread().borrow<BatchRing>();
  ring->slots.resize(pipelined ? 2 * static_cast<std::size_t>(threads) : 1);
  for (BatchSlot& s : ring->slots) {
    s.requests.reserve(batch);
    s.expected_certs.reserve(batch);
    s.replies.reserve(batch);
    s.finish.reserve(batch);
    if (replies_out == nullptr) s.encoded_bytes.reserve(batch * kReplyWireSize);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  if (pipelined) {
    BatchPipeline<Stages> pipeline(num_batches, ring->slots, stages);
    ThreadPool::global(threads - 1).for_each_chunk(
        static_cast<std::uint64_t>(threads), threads,
        [&pipeline](std::uint64_t) { pipeline.run(); });
    assert(pipeline.finished());
  } else {
    BatchSlot& s = ring->slots.front();
    for (std::uint64_t b = 0; b < num_batches; ++b) {
      s.batch = b;
      stages.decode(s);
      stages.solo(s);
      stages.audit(s);
      stages.encode(s, true);
    }
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  totals_.requests += n;

  ServiceResult result = totals_;
  result.call_requests = n;
  result.current_epoch = current_epoch_;
  result.view_epoch = view_epoch_;
  // This call's violations only: a clean call after a violating one marks
  // nothing.
  if (totals_.fabricated_reads > before.fabricated_reads ||
      totals_.retired_reads > before.retired_reads)
    obs::flight(obs::FlightKind::kViolation, obs::kNoOp, to_us(last_arrival_));
  for (const Replica& r : replicas_) {
    result.replica_dropped += r.dropped_requests();
    result.ts_regressions += r.ts_regressions();
  }
  result.net_delivered = transport_.messages_delivered();
  result.net_dropped = transport_.messages_dropped();

  // No-lost-acked-write, over the members of the epoch in force.
  if (!acked_write_visible(replicas_, max_acked_ts_,
                           config_.epochs != nullptr
                               ? &config_.epochs->entry(current_epoch_).view
                               : nullptr)) {
    result.lost_acked_writes = 1;
    obs::flight(obs::FlightKind::kLostWrite, obs::kNoOp, to_us(last_arrival_),
                -1, static_cast<std::uint64_t>(max_acked_ts_.counter));
    obs::flight(obs::FlightKind::kViolation, obs::kNoOp, to_us(last_arrival_));
  }

  result.latency_us = latency_.snapshot("service.op_latency_us", lat_bounds_);

  result.reply_fingerprint = stages.fingerprint;
  result.virtual_duration = last_arrival_;
  result.wall_ms = wall_ms;

  const ServiceMetrics& metrics = ServiceMetrics::get();
  metrics.requests.add(n);
  metrics.decode_failures.add(totals_.decode_failures - before.decode_failures);
  metrics.reads_ok.add(totals_.reads_ok - before.reads_ok);
  metrics.writes_ok.add(totals_.writes_ok - before.writes_ok);
  metrics.stale_reads.add(totals_.stale_reads - before.stale_reads);
  metrics.cert_rejects.add(totals_.cert_rejects - before.cert_rejects);
  metrics.fabricated_reads.add(totals_.fabricated_reads -
                               before.fabricated_reads);
  return result;
}

}  // namespace sqs
