#include "sim/client.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <ranges>
#include <utility>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

namespace {

struct ClientMetrics {
  obs::Counter retries = obs::Registry::instance().counter("sim.client.retries");
  obs::Counter deadline_exceeded =
      obs::Registry::instance().counter("sim.client.deadline_exceeded");
  static const ClientMetrics& get() {
    static const ClientMetrics m;
    return m;
  }
};

using obs::to_us;

// Every reply slot of an acquisition, in family-index order.
auto index_order(const std::vector<ReplySlot>& replies) {
  return std::views::iota(0, static_cast<int>(replies.size()));
}

}  // namespace

bool ClientConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "ClientConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (!(probe_timeout > 0.0)) reject("probe_timeout", probe_timeout);
  if (max_attempts < 1) reject("max_attempts", max_attempts);
  if (!(backoff_base >= 0.0)) reject("backoff_base", backoff_base);
  if (!(backoff_jitter >= 0.0 && backoff_jitter <= 1.0))
    reject("backoff_jitter", backoff_jitter);
  if (!(ewma_gain > 0.0 && ewma_gain <= 1.0)) reject("ewma_gain", ewma_gain);
  if (!(timeout_multiplier > 0.0))
    reject("timeout_multiplier", timeout_multiplier);
  if (!(min_probe_timeout > 0.0))
    reject("min_probe_timeout", min_probe_timeout);
  if (!(max_probe_timeout >= min_probe_timeout))
    reject("max_probe_timeout", max_probe_timeout);
  if (!(op_deadline >= 0.0)) reject("op_deadline", op_deadline);
  if (lie_tolerance < 0)
    reject("lie_tolerance", static_cast<double>(lie_tolerance));
  if (!(view_fetch_delay >= 0.0)) reject("view_fetch_delay", view_fetch_delay);
  if (max_view_fetches < 0)
    reject("max_view_fetches", static_cast<double>(max_view_fetches));
  return ok;
}

struct SimClient::Acquisition {
  const QuorumFamily* family = nullptr;
  // Epoch mode: the view the current attempt probes under (family index i
  // -> logical server view->members[i]); nullptr in classic mode, where
  // family indices ARE server ids.
  const MembershipView* view = nullptr;
  bool epoch_mode = false;
  // Evidence of staleness gathered this attempt: a fenced probe or a reply
  // stamped with a newer epoch.
  bool saw_newer_epoch = false;
  std::unique_ptr<ProbeStrategy> strategy;
  AcquisitionResult result;
  double op_start = 0.0;
  double probe_sent_at = 0.0;
  std::uint64_t pending_seq = 0;  // id of the in-flight probe; 0 = none
  int object = 0;
  std::function<void(AcquisitionResult)> done;
  Rng strategy_rng;
};

SimClient::SimClient(Simulator* sim, Network* net,
                     std::vector<Replica>* servers, int id,
                     const QuorumFamily* family, const ClientConfig& config,
                     Rng rng, const EpochState* epochs)
    : sim_(sim),
      net_(net),
      servers_(servers),
      id_(id),
      family_(family),
      config_(config),
      rng_(std::move(rng)),
      epochs_(epochs) {}

double SimClient::current_probe_timeout() const {
  if (!config_.adaptive_timeout || !have_rtt_) return config_.probe_timeout;
  return std::clamp(config_.timeout_multiplier * ewma_rtt_,
                    config_.min_probe_timeout, config_.max_probe_timeout);
}

void SimClient::acquire(std::function<void(AcquisitionResult)> done) {
  // Epoch mode resolves family + membership per attempt from the client's
  // own (possibly stale) view epoch.
  start_op(epochs_ != nullptr ? nullptr : family_, /*object=*/0,
           std::move(done));
}

void SimClient::acquire(const QuorumFamily& family, int object,
                        std::function<void(AcquisitionResult)> done) {
  start_op(&family, object, std::move(done));
}

void SimClient::start_op(const QuorumFamily* family, int object,
                         std::function<void(AcquisitionResult)> done) {
  auto acq = std::make_shared<Acquisition>();
  acq->family = family;
  acq->epoch_mode = family == nullptr;
  acq->op_start = sim_->now();
  acq->object = object;
  acq->done = std::move(done);
  acq->result.op = obs::make_op_id(1 + static_cast<std::uint32_t>(id_),
                                   next_op_++);
  obs::flight(obs::FlightKind::kArrival, acq->result.op, to_us(acq->op_start),
              -1, static_cast<std::uint64_t>(id_));
  start_attempt(std::move(acq));
}

void SimClient::start_attempt(std::shared_ptr<Acquisition> acq) {
  if (acq->epoch_mode) {
    const EpochEntry& entry = epochs_->schedule->entry(view_epoch_);
    acq->family = entry.family.get();
    acq->view = &entry.view;
    acq->result.view = acq->view;
    acq->saw_newer_epoch = false;
  }
  const QuorumFamily& family = *acq->family;
  if (config_.use_partition_filter && net_->client_partition_active(id_)) {
    // Beacon check: the beacon is an arbitrary node outside the client's
    // domain, so during a partition it is unreachable with probability
    // equal to the partitioned fraction.
    const double fraction = net_->client_partition_fraction(id_);
    if (rng_.bernoulli(fraction)) {
      acq->result.filtered = true;
      acq->strategy.reset();
      acq->result.probed = SignedSet(family.universe_size());
      acq->result.quorum = SignedSet(family.universe_size());
      acq->result.replies.assign(
          static_cast<std::size_t>(family.universe_size()), std::nullopt);
      acq->result.reply_retired.assign(
          static_cast<std::size_t>(family.universe_size()), 0);
      // The failed beacon check costs one timeout before the attempt
      // resolves (and can then be retried like any other failure).
      sim_->schedule(current_probe_timeout(),
                     [this, acq] { finish_attempt(acq, /*acquired=*/false); });
      return;
    }
  }
  acq->result.filtered = false;
  acq->strategy = family.make_probe_strategy();
  acq->strategy_rng = rng_.split(next_seq_ * 2 + 1);
  acq->strategy->reset(&acq->strategy_rng);
  // Each attempt gathers fresh evidence; only num_probes/attempts carry
  // over, so the result reflects the final attempt's world view.
  acq->result.probed = SignedSet(family.universe_size());
  acq->result.quorum = SignedSet(family.universe_size());
  acq->result.replies.assign(static_cast<std::size_t>(family.universe_size()),
                             std::nullopt);
  acq->result.reply_retired.assign(
      static_cast<std::size_t>(family.universe_size()), 0);
  issue_next_probe(std::move(acq));
}

void SimClient::issue_next_probe(std::shared_ptr<Acquisition> acq) {
  const ProbeStatus status = acq->strategy->status();
  if (status != ProbeStatus::kInProgress) {
    finish_attempt(std::move(acq), status == ProbeStatus::kAcquired);
    return;
  }
  if (config_.op_deadline > 0.0 &&
      sim_->now() - acq->op_start >= config_.op_deadline) {
    acq->result.deadline_exceeded = true;
    finish_attempt(std::move(acq), /*acquired=*/false);
    return;
  }

  // `server` is the family index the strategy probes; `target` is the
  // logical server actually on the wire (identical in classic mode).
  const int server = acq->strategy->next_server();
  const int target = acq->view != nullptr ? acq->view->members[server] : server;
  const std::uint64_t seq = ++next_seq_;
  acq->pending_seq = seq;
  acq->probe_sent_at = sim_->now();
  ++acq->result.num_probes;

  // Request leg.
  net_->send(id_, target, Network::Direction::kToServer,
             [this, acq, seq, server, target] {
    Replica& s = (*servers_)[static_cast<std::size_t>(target)];
    if (acq->view != nullptr && s.fences_requests() && s.up(sim_->now())) {
      // Epoch fence: the retired server answers — at normal cost — with a
      // rejection carrying the current epoch instead of register state.
      sim_->schedule(s.service_time(sim_->now()),
                     [this, acq, seq, server, target] {
        net_->send(id_, target, Network::Direction::kToClient,
                   [this, acq, seq, server, target] {
                     finish_probe_fenced(acq, seq, server, target);
                   });
      });
      return;
    }
    const auto reply = s.handle_read(sim_->now(), acq->object, id_);
    if (!reply.has_value()) return;  // server crashed: no reply
    // Retirement is sampled AT SERVE TIME and carried with the reply: the
    // server may retire (or a fresh one take its slot) before the op
    // finishes, and only a reply actually served while retired counts as a
    // retired read.
    const bool was_retired = s.retired();
    // Service delay, then the reply leg.
    sim_->schedule(s.service_time(sim_->now()),
                   [this, acq, seq, server, target, reply, was_retired] {
      net_->send(id_, target, Network::Direction::kToClient,
                 [this, acq, seq, server, target, reply, was_retired] {
                   finish_probe(acq, seq, server, target, reply, was_retired);
                 });
    });
  });

  // Timeout leg.
  sim_->schedule(current_probe_timeout(), [this, acq, seq, server, target] {
    finish_probe(acq, seq, server, target, std::nullopt, false);
  });
}

void SimClient::finish_probe(
    std::shared_ptr<Acquisition> acq, std::uint64_t seq, int server,
    int target, ReplySlot reply, bool served_retired) {
  if (acq->pending_seq != seq) return;  // stale: already resolved
  acq->pending_seq = 0;
  const bool reached = reply.has_value();
  if (reached) {
    obs::flight(obs::FlightKind::kProbe, acq->result.op,
                to_us(acq->probe_sent_at), target,
                to_us(sim_->now() - acq->probe_sent_at));
  } else {
    obs::flight(obs::FlightKind::kProbeMiss, acq->result.op,
                to_us(acq->probe_sent_at), target,
                to_us(sim_->now() - acq->probe_sent_at));
  }
  if (reached) {
    if (config_.adaptive_timeout) {
      const double rtt = sim_->now() - acq->probe_sent_at;
      ewma_rtt_ = have_rtt_
                      ? (1.0 - config_.ewma_gain) * ewma_rtt_ +
                            config_.ewma_gain * rtt
                      : rtt;
      have_rtt_ = true;
    }
    // Every reply is stamped with the server's epoch: a live server serves
    // a stale-view client but tells it the world has moved on.
    if (acq->view != nullptr &&
        (*servers_)[static_cast<std::size_t>(target)].epoch() >
            acq->view->epoch)
      acq->saw_newer_epoch = true;
    acq->result.probed.add_positive(server);
    acq->result.replies[static_cast<std::size_t>(server)] = *reply;
    acq->result.reply_retired[static_cast<std::size_t>(server)] =
        served_retired ? 1 : 0;
  } else {
    acq->result.probed.add_negative(server);
  }
  acq->strategy->observe(server, reached);
  issue_next_probe(std::move(acq));
}

void SimClient::finish_probe_fenced(std::shared_ptr<Acquisition> acq,
                                    std::uint64_t seq, int server,
                                    int target) {
  if (acq->pending_seq != seq) return;  // stale: already resolved
  acq->pending_seq = 0;
  ++epoch_rejects_;
  ++acq->result.epoch_rejects;
  acq->saw_newer_epoch = true;
  obs::flight(obs::FlightKind::kEpochFenced, acq->result.op,
              to_us(acq->probe_sent_at), target,
              static_cast<std::uint64_t>(
                  (*servers_)[static_cast<std::size_t>(target)].epoch()));
  // A fence is negative evidence for this epoch's quorum — the server will
  // never count toward it again.
  acq->result.probed.add_negative(server);
  acq->strategy->observe(server, false);
  issue_next_probe(std::move(acq));
}

void SimClient::finish_attempt(std::shared_ptr<Acquisition> acq, bool acquired) {
  acq->result.acquired = acquired;
  if (acquired) acq->result.quorum = acq->strategy->acquired_quorum();
  if (acq->result.filtered)
    obs::flight(obs::FlightKind::kFiltered, acq->result.op, to_us(sim_->now()),
                -1, static_cast<std::uint64_t>(id_));
  // Stale-view recovery: a failed attempt that saw epoch evidence fetches
  // the current view and re-probes under the new family. The fetch is a
  // fixed-delay round trip (no rng draw), bounded per operation, and does
  // not consume an acquisition attempt.
  if (!acquired && !acq->result.deadline_exceeded && acq->epoch_mode &&
      acq->saw_newer_epoch && config_.refresh_views &&
      acq->result.view_fetches < config_.max_view_fetches &&
      epochs_->current > view_epoch_) {
    const double delay = config_.view_fetch_delay;
    if (config_.op_deadline <= 0.0 ||
        (sim_->now() - acq->op_start) + delay < config_.op_deadline) {
      ++acq->result.view_fetches;
      obs::flight(obs::FlightKind::kViewRefresh, acq->result.op,
                  to_us(sim_->now()), -1,
                  static_cast<std::uint64_t>(epochs_->current));
      sim_->schedule(delay, [this, acq] {
        if (epochs_->current > view_epoch_) {
          view_epoch_ = epochs_->current;
          ++view_refreshes_;
        }
        start_attempt(acq);
      });
      return;
    }
  }
  if (!acquired && !acq->result.deadline_exceeded &&
      acq->result.attempts < config_.max_attempts) {
    double backoff =
        config_.backoff_base * std::ldexp(1.0, acq->result.attempts - 1);
    if (config_.backoff_jitter > 0.0)
      backoff *= 1.0 + config_.backoff_jitter * rng_.next_double();
    // Retry only if the attempt could still start inside the deadline.
    if (config_.op_deadline <= 0.0 ||
        (sim_->now() - acq->op_start) + backoff < config_.op_deadline) {
      ++acq->result.attempts;
      ClientMetrics::get().retries.add(1);
      obs::instant_op("sim", "client_retry", acq->result.op, "client",
                      static_cast<std::uint64_t>(id_));
      obs::flight(obs::FlightKind::kRetry, acq->result.op, to_us(sim_->now()),
                  -1, static_cast<std::uint64_t>(acq->result.attempts));
      sim_->schedule(backoff, [this, acq] { start_attempt(acq); });
      return;
    }
  }
  if (acq->result.deadline_exceeded) {
    ClientMetrics::get().deadline_exceeded.add(1);
    obs::instant_op("sim", "client_deadline_exceeded", acq->result.op, "client",
                    static_cast<std::uint64_t>(id_));
    obs::flight(obs::FlightKind::kDeadline, acq->result.op, to_us(sim_->now()));
  }
  // A completed op (either outcome) that saw epoch evidence refreshes the
  // view asynchronously so the *next* op probes the current membership.
  if (acq->epoch_mode && acq->saw_newer_epoch && config_.refresh_views &&
      epochs_->current > view_epoch_) {
    obs::flight(obs::FlightKind::kViewRefresh, acq->result.op,
                to_us(sim_->now()), -1,
                static_cast<std::uint64_t>(epochs_->current));
    sim_->schedule(config_.view_fetch_delay, [this] {
      if (epochs_->current > view_epoch_) {
        view_epoch_ = epochs_->current;
        ++view_refreshes_;
      }
    });
  }
  acq->result.latency = sim_->now() - acq->op_start;
  obs::flight(acquired ? obs::FlightKind::kQuorumAcquired
                       : obs::FlightKind::kQuorumFailed,
              acq->result.op, to_us(sim_->now()), -1,
              static_cast<std::uint64_t>(acq->result.num_probes));
  acq->done(acq->result);
}

void SimClient::read(std::function<void(ReadResult)> done) {
  acquire([this, done = std::move(done)](AcquisitionResult acq) {
    finish_read(/*object=*/0, std::move(acq), done);
  });
}

void SimClient::read(const QuorumFamily& family, int object,
                     std::function<void(ReadResult)> done) {
  acquire(family, object,
          [this, object, done = std::move(done)](AcquisitionResult acq) {
            finish_read(object, std::move(acq), done);
          });
}

void SimClient::finish_read(int object, AcquisitionResult acq,
                            const std::function<void(ReadResult)>& done) {
  // Family index -> wire (logical) server id; identity in classic mode.
  const auto wire = [&acq](std::size_t i) {
    return acq.view != nullptr ? acq.view->members[i] : static_cast<int>(i);
  };
  ReadResult result;
  result.op = acq.op;
  result.num_probes = acq.num_probes;
  result.attempts = acq.attempts;
  result.deadline_exceeded = acq.deadline_exceeded;
  result.latency = acq.latency;
  result.ok = acq.acquired;
  result.filtered = acq.filtered;
  result.probed = acq.probed;
  if (result.ok) {
    // Max-timestamp value over every reached probed server (S+), per the
    // Sect. 4 client requirement — or, under a masking lie_tolerance, only
    // a pair vouched for by more servers than can lie (else the read fails
    // rather than return a possible fabrication).
    const FoldResult adopted = fold_replies(
        acq.replies, index_order(acq.replies), config_.lie_tolerance);
    result.ok = adopted.ok;
    result.timestamp = adopted.ts;
    result.value = adopted.value;
    const int adopted_from = adopted.index;
    // No-read-from-retired-server accounting: adopting state served by a
    // replica outside the membership is exactly the silent stale read
    // reconfiguration fencing exists to prevent. The flag was captured at
    // serve time (a member serving just before its epoch boundary is not a
    // retired read), so this is only reachable when the serve_while_retired
    // bug switch defeats the fence.
    if (result.ok && adopted_from >= 0 && acq.view != nullptr &&
        acq.reply_retired[static_cast<std::size_t>(adopted_from)] != 0) {
      const int target = wire(static_cast<std::size_t>(adopted_from));
      ++retired_reads_;
      obs::flight(obs::FlightKind::kRetiredRead, acq.op, to_us(sim_->now()),
                  target, result.timestamp.counter);
    }
    if (config_.read_repair && result.ok) {
      // Fire-and-forget write-back to stale reached servers.
      for (std::size_t i = 0; i < acq.replies.size(); ++i) {
        const auto& reply = acq.replies[i];
        if (!reply.has_value() || !(reply->first < result.timestamp)) continue;
        const int server = wire(i);
        net_->send(id_, server, Network::Direction::kToServer,
                   [this, server, object, ts = result.timestamp,
                    value = result.value] {
                     (*servers_)[static_cast<std::size_t>(server)].handle_write(
                         sim_->now(), ts, value, object);
                   });
      }
    }
  }
  done(result);
}

void SimClient::write(std::uint64_t value, std::function<void(WriteResult)> done) {
  acquire([this, value, done = std::move(done)](AcquisitionResult acq) {
    finish_write(/*object=*/0, value, std::move(acq), done);
  });
}

void SimClient::write(const QuorumFamily& family, int object,
                      std::uint64_t value,
                      std::function<void(WriteResult)> done) {
  acquire(family, object,
          [this, object, value, done = std::move(done)](AcquisitionResult acq) {
            finish_write(object, value, std::move(acq), done);
          });
}

void SimClient::finish_write(int object, std::uint64_t value,
                             AcquisitionResult acq,
                             const std::function<void(WriteResult)>& done) {
  WriteResult result;
  result.op = acq.op;
  result.num_probes = acq.num_probes;
  result.attempts = acq.attempts;
  result.deadline_exceeded = acq.deadline_exceeded;
  result.filtered = acq.filtered;
  result.probed = acq.probed;
  // Under a masking lie_tolerance the new timestamp grows from voted pairs
  // only, so a liar's inflated counter never enters the genuine timestamp
  // order; no voted pair fails the write without pushing anything.
  const FoldResult adopted = fold_replies(
      acq.replies, index_order(acq.replies), config_.lie_tolerance);
  if (!acq.acquired || !adopted.ok) {
    result.latency = acq.latency;
    done(result);
    return;
  }
  result.ok = true;
  result.timestamp = Timestamp{adopted.ts.counter + 1, id_};

  // Push the new value to every reached probed server; complete when all
  // acks arrive or time out.
  auto state = std::make_shared<std::pair<int, WriteResult>>(0, result);
  const auto targets = acq.probed.positive().to_indices();
  assert(!targets.empty() && "an acquired quorum has a reached server");
  state->first = static_cast<int>(targets.size());
  const double start = sim_->now() - acq.latency;
  auto finish_one = [this, state, done, start](bool acked) {
    if (acked) ++state->second.acks;
    if (--state->first == 0) {
      state->second.latency = sim_->now() - start;
      done(state->second);
    }
  };
  for (std::size_t idx : targets) {
    // Map the family index to the wire (logical) server in epoch mode.
    const int server = acq.view != nullptr ? acq.view->members[idx]
                                           : static_cast<int>(idx);
    auto resolved = std::make_shared<bool>(false);
    const double push_start = sim_->now();
    const obs::OpId op = acq.op;
    net_->send(id_, server, Network::Direction::kToServer,
               [this, server, object, ts = result.timestamp, value, resolved,
                finish_one, push_start, op] {
                 Replica& s = (*servers_)[static_cast<std::size_t>(server)];
                 if (!s.handle_write(sim_->now(), ts, value, object)) return;
                 sim_->schedule(s.service_time(sim_->now()),
                                [this, server, resolved,
                                                   finish_one, push_start,
                                                   op] {
                   net_->send(id_, server, Network::Direction::kToClient,
                              [this, server, resolved, finish_one, push_start,
                               op] {
                                if (*resolved) return;
                                *resolved = true;
                                obs::flight(obs::FlightKind::kWriteAck, op,
                                            to_us(push_start), server,
                                            to_us(sim_->now() - push_start));
                                finish_one(true);
                              });
                 });
               });
    sim_->schedule(current_probe_timeout(), [this, server, resolved,
                                             finish_one, push_start, op] {
      if (*resolved) return;
      *resolved = true;
      obs::flight(obs::FlightKind::kWriteNack, op, to_us(push_start), server,
                  to_us(sim_->now() - push_start));
      finish_one(false);
    });
  }
}

}  // namespace sqs
