#include "service/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
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
  obs::Histogram epilogue_ns = obs::Registry::instance().histogram(
      "service.epilogue_batch_ns", obs::pow2_bounds(10, 34));
  static const ServiceMetrics& get() {
    static const ServiceMetrics m;
    return m;
  }
};

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

using obs::to_us;

// One batch's decoded requests and replies. The thread that owns a batch
// borrows these from its WorkerScratch for all three stages, so the stage
// buffers are batch-sized and their capacity is reused across batches and
// serve() calls.
struct BatchBuffers {
  std::vector<Request> requests;
  std::vector<Reply> replies;
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
  cert_memo_.resize(replicas_.size());
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

void ServiceRunner::pop_completed_writes(double now) {
  while (!pending_writes_.empty() && pending_writes_.top().finish <= now) {
    frontier_ts_ = std::max(frontier_ts_, pending_writes_.top().ts);
    pending_writes_.pop();
  }
}

std::uint32_t ServiceRunner::expected_replica_cert(int replica,
                                                  const Timestamp& ts,
                                                  std::uint64_t value) {
  CertMemo& memo = cert_memo_[static_cast<std::size_t>(replica)];
  if (!memo.valid || !(memo.ts == ts) || memo.value != value)
    memo = CertMemo{ts, value, replica_cert(replica, ts, value), true};
  return memo.cert;
}

Reply ServiceRunner::execute_op(const Request& req) {
  const double arrival = req.arrival();
  last_arrival_ = std::max(last_arrival_, arrival);
  apply_faults_until(arrival);
  apply_epochs_until(arrival);
  pop_completed_writes(arrival);

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
      if (adopted.ts < frontier_ts_) {
        ++totals_.stale_reads;
        obs::flight(obs::FlightKind::kStaleRead, op, to_us(t));
      }
      // No-fabricated-write check, exact because the solo stage runs in
      // arrival order: a non-zero binding must have been produced by some
      // earlier ok write of this runner.
      if (Timestamp{} < adopted.ts &&
          !genuine_writes_.contains(adopted.ts, adopted.value)) {
        ++totals_.fabricated_reads;
        obs::flight(obs::FlightKind::kFabricatedRead, op, to_us(t), -1,
                    adopted.value);
      }
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
      genuine_writes_.insert(new_ts, req.value);
      if (acks > 0) max_acked_ts_ = std::max(max_acked_ts_, new_ts);
      pending_writes_.push(PendingWrite{end, new_ts});
      finish = end;
    }
  }

  const std::uint64_t latency_us = to_us(finish - arrival);
  rep.latency_us = latency_us;
  latency_.record(lat_bounds_, latency_us);
  ServiceMetrics::get().op_latency_us.record(latency_us);
  if (obs::recorder_enabled())
    obs::flight(obs::FlightKind::kOpDone, op, to_us(finish), -1, latency_us);
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

ServiceResult ServiceRunner::serve(const std::vector<std::uint8_t>& requests,
                                   std::vector<std::uint8_t>* replies_out) {
  assert(requests.size() % kRequestWireSize == 0);
  const std::uint64_t n = requests.size() / kRequestWireSize;
  const std::uint64_t batch = static_cast<std::uint64_t>(config_.batch);
  const std::uint64_t num_batches = (n + batch - 1) / batch;
  const std::uint8_t* in = requests.data();

  std::vector<std::uint8_t> encoded(n * kReplyWireSize);
  std::vector<std::uint64_t> decode_fail(num_batches, 0);
  std::vector<std::uint64_t> cert_fail(num_batches, 0);

  {
    std::lock_guard<std::mutex> lk(turn_mu_);
    solo_turn_ = 0;
  }
  const ServiceResult before = totals_;  // obs counters get this call's deltas

  // Size the audit set for this call's write requests here, on the calling
  // thread. Grown inside the solo stage instead, each doubling would be
  // allocated by whichever pool thread owns the batch, and the freed
  // tables would pile up in every thread's malloc arena across runners.
  genuine_writes_.reserve(
      static_cast<std::size_t>(count_write_requests(in, n)));

  const auto wall_start = std::chrono::steady_clock::now();
  auto process = [&](std::uint64_t b) {
    const std::uint64_t begin = b * batch;
    const std::uint64_t end = std::min(n, begin + batch);
    const bool timed = obs::telemetry_enabled();
    const ServiceMetrics& metrics = ServiceMetrics::get();
    Borrowed<BatchBuffers> buffers =
        WorkerScratch::for_thread().borrow<BatchBuffers>();
    std::vector<Request>& parsed = buffers->requests;
    std::vector<Reply>& decoded = buffers->replies;
    parsed.resize(end - begin);
    decoded.resize(end - begin);

    // Prologue: decode + verify this batch's records (private slice). The
    // client-certificate check lives here too — the signature verification
    // a WAN deployment hoists into the stateless stage — so an impersonated
    // request never reaches the solo stage. The decoder computes the
    // expected cert in the same pass as the checksum.
    std::uint64_t stage_start = timed ? obs::trace_now_ns() : 0;
    std::uint64_t bad = 0, bad_cert = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      Request& req = parsed[i - begin];
      std::uint32_t expected_cert = 0;
      req = decode_request(in + i * kRequestWireSize, &expected_cert);
      if (!req.valid) {
        ++bad;
      } else if (req.cert != expected_cert) {
        req.valid = false;
        ++bad_cert;
      }
      if (req.valid) {
        obs::flight(obs::FlightKind::kDecoded,
                    obs::make_op_id(obs::kServiceStream, req.seq),
                    req.arrival_us, -1, 1);
      }
    }
    decode_fail[b] = bad;
    cert_fail[b] = bad_cert;
    if (timed) metrics.prologue_ns.record(obs::trace_now_ns() - stage_start);

    // Solo: wait for this batch's ticket, run its ops in arrival order,
    // hand the ticket on.
    {
      std::unique_lock<std::mutex> lk(turn_mu_);
      turn_cv_.wait(lk, [&] { return solo_turn_ == b; });
    }
    stage_start = timed ? obs::trace_now_ns() : 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      const Request& req = parsed[i - begin];
      Reply& rep = decoded[i - begin];
      if (req.valid) {
        rep = execute_op(req);
      } else {
        rep = Reply{};
        rep.seq = i;
      }
    }
    if (timed) metrics.solo_ns.record(obs::trace_now_ns() - stage_start);
    {
      std::lock_guard<std::mutex> lk(turn_mu_);
      ++solo_turn_;
    }
    turn_cv_.notify_all();

    // Epilogue: encode + checksum this batch's replies (private slice).
    stage_start = timed ? obs::trace_now_ns() : 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      const Request& req = parsed[i - begin];
      const Reply& rep = decoded[i - begin];
      encode_reply(rep, encoded.data() + i * kReplyWireSize);
      if (req.valid) {
        obs::flight(obs::FlightKind::kEncoded,
                    obs::make_op_id(obs::kServiceStream, req.seq),
                    req.arrival_us + rep.latency_us, -1, rep.ok ? 1 : 0);
      }
    }
    if (timed) metrics.epilogue_ns.record(obs::trace_now_ns() - stage_start);
  };

  const int threads = config_.threads > 0 ? config_.threads : default_threads();
  if (threads > 1 && num_batches > 1 && !ThreadPool::inside_worker()) {
    ThreadPool::global(threads - 1).for_each_chunk(
        num_batches, threads, process);
  } else {
    for (std::uint64_t b = 0; b < num_batches; ++b) process(b);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();

  totals_.requests += n;
  for (std::uint64_t b = 0; b < num_batches; ++b) {
    totals_.decode_failures += decode_fail[b];
    totals_.cert_rejects += cert_fail[b];
  }

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

  result.reply_fingerprint = fnv1a64(encoded.data(), encoded.size());
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

  if (replies_out != nullptr) *replies_out = std::move(encoded);
  return result;
}

}  // namespace sqs
