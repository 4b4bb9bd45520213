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
  if (lie_tolerance < 0) reject("lie_tolerance", lie_tolerance);
  if (view_fetch_delay < 0.0) reject("view_fetch_delay", view_fetch_delay);
  if (max_view_fetches < 0) reject("max_view_fetches", max_view_fetches);
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
      strategy_(family.make_probe_strategy()),
      op_rng_base_(Rng(config.seed).split("ops")),
      fault_timeline_(config.plan.events),
      lat_bounds_(service_latency_bounds()) {
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
  if (config_.epochs != nullptr) {
    const EpochedFamily& sched = *config_.epochs;
    assert(sched.entry(0).family->universe_size() == family.universe_size());
    epoch_strategies_.reserve(sched.epochs.size());
    for (const EpochEntry& e : sched.epochs)
      epoch_strategies_.push_back(e.family->make_probe_strategy());
    for (std::size_t i = 0; i < replicas_.size(); ++i)
      replicas_[i].set_member(sched.entry(0).view.contains(static_cast<int>(i)));
  }
  std::stable_sort(fault_timeline_.begin(), fault_timeline_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  replies_.resize(replicas_.size());
  reply_retired_.assign(replicas_.size(), 0);
  cert_memo_.resize(replicas_.size());
  lat_counts_.assign(lat_bounds_.size() + 1, 0);
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
  while (next_epoch_ < sched.num_epochs() && sched.entry(next_epoch_).at <= now) {
    // Applied in arrival order from the solo stage, like the fault cursor.
    const int e = next_epoch_++;
    apply_epoch_transition(sched, e, replicas_);
    current_epoch_ = e;
    ++totals_.epoch_transitions;
    obs::flight(obs::FlightKind::kEpochTransition, obs::kNoOp,
                to_us(sched.entry(e).at), -1, static_cast<std::uint64_t>(e));
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

void ServiceRunner::record_latency(std::uint64_t us) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(lat_bounds_.begin(), lat_bounds_.end(), us) -
      lat_bounds_.begin());
  ++lat_counts_[bucket];
  ++lat_count_;
  lat_sum_ += us;
  lat_min_ = std::min(lat_min_, us);
  lat_max_ = std::max(lat_max_, us);
  ServiceMetrics::get().op_latency_us.record(us);
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

  // Acquisition: sequential timeout probing in virtual time, the SimClient
  // loop evaluated synchronously. A probe's round trip is to-server leg +
  // replica queueing/service + to-client leg; replies later than
  // probe_timeout count as failures (the server still did the work). In
  // epoch mode the runner probes under its own (possibly stale) adopted
  // view: family indices map to logical replicas through the view, retired
  // replicas fence probes with an observable epoch rejection, and a failed
  // acquisition with epoch evidence re-probes under a freshly fetched view
  // (bounded, fixed-cost, rng-free — bit-identity holds at any thread
  // count because all of this is solo-stage arrival-ordered state).
  const double timeout = config_.probe_timeout;
  const bool epoch_mode = config_.epochs != nullptr;
  Rng op_rng = op_rng_base_.split(req.seq);
  double t = arrival;
  std::uint32_t probes = 0;
  bool acquired = false;
  bool saw_newer_epoch = false;
  int view_fetches = 0;
  ProbeStrategy* strategy = strategy_.get();
  const MembershipView* view = nullptr;
  for (;;) {
    if (epoch_mode) {
      strategy =
          epoch_strategies_[static_cast<std::size_t>(view_epoch_)].get();
      view = &config_.epochs->entry(view_epoch_).view;
      saw_newer_epoch = false;
    }
    strategy->reset(&op_rng);
    for (int s : touched_) {
      replies_[static_cast<std::size_t>(s)].reset();
      reply_retired_[static_cast<std::size_t>(s)] = 0;
    }
    touched_.clear();
    while (strategy->status() == ProbeStatus::kInProgress) {
      const int s = strategy->next_server();
      const int dst =
          view != nullptr ? view->members[static_cast<std::size_t>(s)] : s;
      ++probes;
      const double t0 = t;
      bool reached = false;
      bool answered = false;  // timely reply (data, fence, or bad cert)
      const Transport::Delivery to =
          transport_.attempt(static_cast<int>(req.client), dst, t);
      if (to.delivered) {
        Replica& replica = replicas_[static_cast<std::size_t>(dst)];
        if (replica.fences_requests()) {
          // Epoch fence: the retired replica answers — at normal queueing
          // cost — with a rejection carrying its epoch. Negative evidence
          // for this view's quorum, positive evidence of staleness.
          if (auto done = replica.serve_fence(t + to.latency, arrival)) {
            const Transport::Delivery back = transport_.attempt(
                static_cast<int>(req.client), dst, *done);
            if (back.delivered) {
              const double rtt = *done + back.latency - t;
              if (rtt <= timeout) {
                answered = true;
                saw_newer_epoch = true;
                ++totals_.epoch_rejects;
                obs::flight(obs::FlightKind::kEpochFenced, op, to_us(t0), dst,
                            static_cast<std::uint64_t>(replica.epoch()));
                t += rtt;
              }
            }
          } else {
            ++op_drops;
          }
        } else if (auto served = replica.serve_read(
                       0, t + to.latency, arrival,
                       static_cast<int>(req.client))) {
          const Transport::Delivery back = transport_.attempt(
              static_cast<int>(req.client), dst, served->done);
          if (back.delivered) {
            const double rtt = served->done + back.latency - t;
            if (rtt <= timeout) {
              // The reply arrived in time; it joins the quorum only if its
              // certificate matches what it reports. A lying replica signs
              // its true state, so its fabrication fails here and the probe
              // counts as a miss (the client spent the rtt, not the
              // timeout).
              answered = true;
              if (!config_.verify_replica_certs ||
                  served->cert == expected_replica_cert(dst, served->ts,
                                                        served->value)) {
                reached = true;
                replies_[static_cast<std::size_t>(s)] = {served->ts,
                                                         served->value};
                reply_retired_[static_cast<std::size_t>(s)] =
                    replica.retired() ? 1 : 0;
                touched_.push_back(s);
                if (epoch_mode && replica.epoch() > view_epoch_)
                  saw_newer_epoch = true;
              } else {
                ++totals_.cert_rejects;
              }
              t += rtt;
            }
          }
        } else {
          ++op_drops;
        }
      }
      if (!answered) t += timeout;
      // Hot-path flight calls check the gate first, so an off recorder
      // converts no times (see obs::flight).
      if (obs::recorder_enabled()) {
        if (reached) {
          obs::flight(obs::FlightKind::kProbe, op, to_us(t0), dst,
                      to_us(t - t0));
        } else {
          obs::flight(obs::FlightKind::kProbeMiss, op, to_us(t0), dst,
                      to_us(t - t0));
        }
      }
      strategy->observe(s, reached);
    }
    acquired = strategy->status() == ProbeStatus::kAcquired;
    if (acquired || !epoch_mode || !saw_newer_epoch ||
        !config_.refresh_views || current_epoch_ <= view_epoch_ ||
        view_fetches >= config_.max_view_fetches)
      break;
    // Stale-view recovery: a failed acquisition with epoch evidence fetches
    // the current view (fixed delay, no rng draw) and re-probes under it.
    ++view_fetches;
    ++totals_.view_refreshes;
    t += config_.view_fetch_delay;
    view_epoch_ = current_epoch_;
    obs::flight(obs::FlightKind::kViewRefresh, op, to_us(t), -1,
                static_cast<std::uint64_t>(view_epoch_));
  }
  // A completed op (either outcome) that saw epoch evidence refreshes the
  // runner's view for subsequent ops — the asynchronous learn path.
  if (epoch_mode && saw_newer_epoch && config_.refresh_views &&
      current_epoch_ > view_epoch_) {
    ++totals_.view_refreshes;
    view_epoch_ = current_epoch_;
    obs::flight(obs::FlightKind::kViewRefresh, op, to_us(t), -1,
                static_cast<std::uint64_t>(view_epoch_));
  }
  if (obs::recorder_enabled())
    obs::flight(acquired ? obs::FlightKind::kQuorumAcquired
                         : obs::FlightKind::kQuorumFailed,
                op, to_us(t), -1, probes);
  totals_.probes += probes;
  rep.probes = probes;
  double finish = t;

  // What the acquired quorum's replies say; !ok fails the op. The masking
  // vote breaks ties in family-index order, the max fold in probe order.
  FoldResult adopted;
  adopted.ok = acquired;
  if (acquired) {
    if (config_.lie_tolerance > 0) std::sort(touched_.begin(), touched_.end());
    adopted = fold_replies(replies_, touched_, config_.lie_tolerance);
  }
  if (req.kind == OpKind::kRead) {
    ++totals_.reads;
    const Timestamp best = adopted.ts;
    const std::uint64_t value = adopted.value;
    if (adopted.ok) {
      ++totals_.reads_ok;
      rep.ok = true;
      rep.ts = best;
      rep.value = value;
      if (best < frontier_ts_) {
        ++totals_.stale_reads;
        obs::flight(obs::FlightKind::kStaleRead, op, to_us(t));
      }
      // No-fabricated-write check, exact because the solo stage runs in
      // arrival order: a non-zero binding must have been produced by some
      // earlier ok write of this runner.
      if (Timestamp{} < best && !genuine_writes_.contains(best, value)) {
        ++totals_.fabricated_reads;
        obs::flight(obs::FlightKind::kFabricatedRead, op, to_us(t), -1, value);
      }
      // No-read-from-retired-server accounting: adopting state served by a
      // retired replica means the fence failed — only the
      // serve_while_retired bug switch can get here.
      if (epoch_mode) {
        bool from_retired = false;
        for (int s : touched_) {
          const auto& r = replies_[static_cast<std::size_t>(s)];
          if (r->first == best && r->second == value &&
              reply_retired_[static_cast<std::size_t>(s)] != 0)
            from_retired = true;
        }
        if (from_retired) {
          ++totals_.retired_reads;
          obs::flight(obs::FlightKind::kRetiredRead, op, to_us(t), -1,
                      static_cast<std::uint64_t>(best.counter));
        }
      }
    }
  } else {
    ++totals_.writes;
    if (adopted.ok) {
      ++totals_.writes_ok;
      const Timestamp new_ts{adopted.ts.counter + 1,
                             static_cast<int>(req.client)};
      // Push to every reached probed server in ascending family-index order
      // (the order install paths use everywhere else; indices map to the
      // wire through the op's view); each push resolves at its ack round
      // trip or at the timeout, and the write completes when the last
      // target resolves. touched_ is sorted in place: nothing reads its
      // probe order after the timestamp fold above.
      std::sort(touched_.begin(), touched_.end());
      int acks = 0;
      double end = t;
      for (int s : touched_) {
        const int dst =
            view != nullptr ? view->members[static_cast<std::size_t>(s)] : s;
        const Transport::Delivery to =
            transport_.attempt(static_cast<int>(req.client), dst, t);
        double resolve = timeout;
        bool acked = false;
        if (to.delivered) {
          if (auto done = replicas_[static_cast<std::size_t>(dst)].serve_write(
                  new_ts, req.value, 0, t + to.latency, arrival)) {
            const Transport::Delivery back = transport_.attempt(
                static_cast<int>(req.client), dst, *done);
            if (back.delivered) {
              const double rtt = *done + back.latency - t;
              if (rtt <= timeout) {
                ++acks;
                acked = true;
                resolve = rtt;
              }
            }
          } else {
            ++op_drops;
          }
        }
        if (obs::recorder_enabled())
          obs::flight(acked ? obs::FlightKind::kWriteAck
                            : obs::FlightKind::kWriteNack,
                      op, to_us(t), dst, to_us(resolve));
        end = std::max(end, t + resolve);
      }
      totals_.write_acks += static_cast<std::uint64_t>(acks);
      rep.ok = true;
      rep.ts = new_ts;
      rep.value = req.value;
      genuine_writes_.insert(new_ts, req.value);
      if (acks > 0) {
        any_acked_write_ = true;
        max_acked_ts_ = std::max(max_acked_ts_, new_ts);
      }
      pending_writes_.push(PendingWrite{end, new_ts});
      finish = end;
    }
  }

  const std::uint64_t latency_us = to_us(finish - arrival);
  rep.latency_us = latency_us;
  record_latency(latency_us);
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
  const Totals before = totals_;  // obs counters get this call's deltas

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

  ServiceResult result;
  result.requests = totals_.requests;
  result.call_requests = n;
  result.decode_failures = totals_.decode_failures;
  result.reads = totals_.reads;
  result.reads_ok = totals_.reads_ok;
  result.writes = totals_.writes;
  result.writes_ok = totals_.writes_ok;
  result.stale_reads = totals_.stale_reads;
  result.probes = totals_.probes;
  result.write_acks = totals_.write_acks;
  result.cert_rejects = totals_.cert_rejects;
  result.fabricated_reads = totals_.fabricated_reads;
  result.epoch_transitions = totals_.epoch_transitions;
  result.view_refreshes = totals_.view_refreshes;
  result.epoch_rejects = totals_.epoch_rejects;
  result.retired_reads = totals_.retired_reads;
  result.current_epoch = current_epoch_;
  result.view_epoch = view_epoch_;
  if (totals_.fabricated_reads > 0 || totals_.retired_reads > 0)
    obs::flight(obs::FlightKind::kViolation, obs::kNoOp, to_us(last_arrival_));
  for (const Replica& r : replicas_) {
    result.replica_dropped += r.dropped_requests();
    result.ts_regressions += r.ts_regressions();
  }
  result.net_delivered = transport_.messages_delivered();
  result.net_dropped = transport_.messages_dropped();

  // No-lost-acked-write: the highest acked write timestamp must still be
  // readable on some replica (crashes preserve state; only amnesia can
  // break this). In epoch mode only current members count — state stranded
  // on a retired replica is invisible to every future quorum, so
  // drain-on-leave must have moved it.
  if (any_acked_write_) {
    bool visible = false;
    for (const Replica& r : replicas_) {
      if (config_.epochs != nullptr && r.retired()) continue;
      if (!(r.timestamp(0) < max_acked_ts_)) visible = true;
    }
    result.lost_acked_writes = visible ? 0 : 1;
    if (!visible) {
      obs::flight(obs::FlightKind::kLostWrite, obs::kNoOp, to_us(last_arrival_),
                  -1, static_cast<std::uint64_t>(max_acked_ts_.counter));
      obs::flight(obs::FlightKind::kViolation, obs::kNoOp,
                  to_us(last_arrival_));
    }
  }

  result.latency_us.name = "service.op_latency_us";
  result.latency_us.bounds = lat_bounds_;
  result.latency_us.counts = lat_counts_;
  result.latency_us.count = lat_count_;
  result.latency_us.sum = lat_sum_;
  result.latency_us.min = lat_count_ > 0 ? lat_min_ : 0;
  result.latency_us.max = lat_max_;

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
