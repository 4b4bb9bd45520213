#include "sim/client.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
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

// Every send's outcome, so injected trouble shows in metric snapshots.
struct NetMetrics {
  obs::Counter delivered = obs::Registry::instance().counter("sim.net.delivered");
  obs::Counter dropped = obs::Registry::instance().counter("sim.net.dropped");
  static const NetMetrics& get() {
    static const NetMetrics m;
    return m;
  }
};

using obs::to_us;

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
  return policy.validate("ClientConfig") && ok;
}

SimClient::SimClient(Simulator* sim, Transport* transport,
                     std::vector<Replica>* servers, int id,
                     const QuorumFamily* family, const ClientConfig& config,
                     Rng rng, const EpochState* epochs)
    : sim_(sim),
      transport_(transport),
      servers_(servers),
      id_(id),
      family_(epochs != nullptr ? nullptr : family),
      config_(config),
      rng_(std::move(rng)),
      epochs_(epochs) {}

double SimClient::current_probe_timeout() const {
  if (!config_.adaptive_timeout || !have_rtt_) return config_.probe_timeout;
  return std::clamp(config_.timeout_multiplier * ewma_rtt_,
                    config_.min_probe_timeout, config_.max_probe_timeout);
}

void SimClient::acquire(OpCallback done) {
  start_op(family_, /*object=*/0, OpKind::kAcquire, 0, std::move(done));
}

void SimClient::acquire(const QuorumFamily& family, int object,
                        OpCallback done) {
  start_op(&family, object, OpKind::kAcquire, 0, std::move(done));
}

void SimClient::read(OpCallback done) {
  start_op(family_, /*object=*/0, OpKind::kRead, 0, std::move(done));
}

void SimClient::read(const QuorumFamily& family, int object,
                     OpCallback done) {
  start_op(&family, object, OpKind::kRead, 0, std::move(done));
}

void SimClient::write(std::uint64_t value, OpCallback done) {
  start_op(family_, /*object=*/0, OpKind::kWrite, value, std::move(done));
}

void SimClient::write(const QuorumFamily& family, int object,
                      std::uint64_t value, OpCallback done) {
  start_op(&family, object, OpKind::kWrite, value, std::move(done));
}

void SimClient::start_op(const QuorumFamily* family, int object, OpKind kind,
                         std::uint64_t value, OpCallback done) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::make_unique<Acquisition>(config_.policy));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Acquisition& acq = *slots_[slot];
  acq.family = family;
  // No family: each attempt resolves family + membership from the
  // client's own (possibly stale) view epoch.
  acq.epoch_mode = family == nullptr;
  acq.kind = kind;
  acq.object = object;
  acq.op_start = sim_->now();
  acq.done = std::move(done);
  // A fresh result that keeps the probed set's storage.
  SignedSet probed = std::move(acq.result.probed);
  acq.result = OpResult{};
  acq.result.probed = std::move(probed);
  if (kind == OpKind::kWrite) acq.result.value = value;
  acq.result.op = obs::make_op_id(1 + static_cast<std::uint32_t>(id_),
                                  next_op_++);
  obs::flight(obs::FlightKind::kArrival, acq.result.op, to_us(acq.op_start),
              -1, static_cast<std::uint64_t>(id_));
  acq.machine.start(acq.result.op);
  start_attempt(slot);
}

ProbeStrategy* SimClient::strategy_for(Acquisition& acq,
                                       const QuorumFamily& family) {
  for (auto& [f, strategy] : acq.strategies)
    if (f == &family) return strategy.get();
  acq.strategies.emplace_back(&family, family.make_probe_strategy());
  return acq.strategies.back().second.get();
}

void SimClient::start_attempt(std::uint32_t slot) {
  Acquisition& acq = *slots_[slot];
  const MembershipView* view = nullptr;
  if (acq.epoch_mode) {
    const EpochEntry& entry = epochs_->schedule->entry(view_epoch_);
    acq.family = entry.family.get();
    view = &entry.view;
  }
  const QuorumFamily& family = *acq.family;
  if (config_.use_partition_filter &&
      transport_->client_partition_active(id_, sim_->now())) {
    // Beacon check: the beacon is an arbitrary node outside the client's
    // domain, so during a partition it is unreachable with probability
    // equal to the partitioned fraction.
    const double fraction =
        transport_->client_partition_fraction(id_, sim_->now());
    if (rng_.bernoulli(fraction)) {
      acq.result.filtered = true;
      acq.machine.begin_aborted(family.universe_size(), view);
      // The failed beacon check costs one timeout before the attempt
      // resolves (and can then be retried like any other failure).
      sim_->schedule(current_probe_timeout(),
                     [this, slot] { finish_attempt(slot); });
      return;
    }
  }
  acq.result.filtered = false;
  acq.strategy_rng = rng_.split(probes_issued_ * 2 + 1);
  // Each attempt gathers fresh evidence; only num_probes/attempts carry
  // over, so the result reflects the final attempt's world view.
  acq.machine.begin(strategy_for(acq, family), &acq.strategy_rng, view);
  issue_probe(slot, acq.machine.next_probe(sim_->now()));
}

void SimClient::send(int server, SimCallback on_delivery) {
  const Transport::Delivery d = transport_->attempt(id_, server, sim_->now());
  if (!d.delivered) {
    NetMetrics::get().dropped.add(1);
    return;
  }
  NetMetrics::get().delivered.add(1);
  sim_->schedule(d.latency, std::move(on_delivery));
}

void SimClient::issue_probe(std::uint32_t slot, int target) {
  Acquisition& acq = *slots_[slot];
  if (target < 0) {
    finish_attempt(slot);
    return;
  }
  if (config_.op_deadline > 0.0 &&
      sim_->now() - acq.op_start >= config_.op_deadline) {
    acq.result.deadline_exceeded = true;
    finish_attempt(slot);
    return;
  }

  const std::uint32_t generation = acq.generation;
  ++probes_issued_;

  // Request leg. It runs at the server even if the probe has since gone
  // stale, so it carries the op's object and mode rather than reading a
  // slot a later op may own.
  send(target, [this, slot, generation, target, object = acq.object,
                epoch_mode = acq.epoch_mode] {
    Replica& s = (*servers_)[static_cast<std::size_t>(target)];
    ProbeReply reply;
    // Epoch fence: a retired server answers — at normal cost — with a
    // rejection carrying the current epoch instead of register state.
    reply.fenced = epoch_mode && s.fences_requests() && s.up(sim_->now());
    if (!reply.fenced) {
      const auto read = s.handle_read(sim_->now(), object, id_);
      if (!read.has_value()) return;  // server crashed: no reply
      reply.ts = read->first;
      reply.value = read->second;
    }
    // Retirement is sampled AT SERVE TIME and carried with the reply: the
    // server may retire (or a fresh one take its slot) before the op
    // finishes, and only a reply actually served while retired counts as a
    // retired read.
    reply.served_retired = s.retired();
    // Service delay, then the reply leg.
    sim_->schedule(s.service_time(sim_->now()),
                   [this, slot, generation, target, reply] {
      send(target, [this, slot, generation, target, reply] {
        finish_probe(slot, generation, target, &reply);
      });
    });
  });

  // Timeout leg.
  sim_->schedule(current_probe_timeout(), [this, slot, generation, target] {
    finish_probe(slot, generation, target, nullptr);
  });
}

void SimClient::finish_probe(std::uint32_t slot, std::uint32_t generation,
                             int target, const ProbeReply* reply) {
  Acquisition& acq = *slots_[slot];
  if (acq.generation != generation) return;  // stale: already resolved
  ++acq.generation;
  const double now = sim_->now();
  const int epoch = (*servers_)[static_cast<std::size_t>(target)].epoch();
  if (reply == nullptr) {
    issue_probe(slot, acq.machine.on_timeout(now));
    return;
  }
  if (reply->fenced) {
    ++epoch_rejects_;
    issue_probe(slot, acq.machine.on_fence(now, epoch));
    return;
  }
  if (config_.adaptive_timeout) {
    const double rtt = now - acq.machine.probe_sent_at();
    ewma_rtt_ = have_rtt_ ? (1.0 - config_.ewma_gain) * ewma_rtt_ +
                                config_.ewma_gain * rtt
                          : rtt;
    have_rtt_ = true;
  }
  issue_probe(slot, acq.machine.on_reply(now, reply->ts, reply->value,
                                         reply->served_retired, epoch));
}

void SimClient::adopt_current_view() {
  if (epochs_->current > view_epoch_) {
    view_epoch_ = epochs_->current;
    ++view_refreshes_;
  }
}

void SimClient::finish_attempt(std::uint32_t slot) {
  Acquisition& acq = *slots_[slot];
  AcquisitionMachine& machine = acq.machine;
  const bool acquired = machine.acquired();
  acq.result.acquired = acquired;
  const int current_epoch = acq.epoch_mode ? epochs_->current : 0;
  if (acq.result.filtered)
    obs::flight(obs::FlightKind::kFiltered, acq.result.op, to_us(sim_->now()),
                -1, static_cast<std::uint64_t>(id_));
  // Stale-view recovery, when the machine asks for it and the fetch's
  // fixed delay still fits the deadline; it does not use up an attempt.
  const double delay = config_.policy.view_fetch_delay;
  if (!acq.result.deadline_exceeded &&
      (config_.op_deadline <= 0.0 ||
       (sim_->now() - acq.op_start) + delay < config_.op_deadline) &&
      machine.refetch_view(current_epoch, view_epoch_, sim_->now())) {
    sim_->schedule(delay, [this, slot] {
      adopt_current_view();
      start_attempt(slot);
    });
    return;
  }
  if (!acquired && !acq.result.deadline_exceeded &&
      acq.result.attempts < config_.max_attempts) {
    double backoff =
        config_.backoff_base * std::ldexp(1.0, acq.result.attempts - 1);
    if (config_.backoff_jitter > 0.0)
      backoff *= 1.0 + config_.backoff_jitter * rng_.next_double();
    // Retry only if the attempt could still start inside the deadline.
    if (config_.op_deadline <= 0.0 ||
        (sim_->now() - acq.op_start) + backoff < config_.op_deadline) {
      ++acq.result.attempts;
      ClientMetrics::get().retries.add(1);
      obs::instant_op("sim", "client_retry", acq.result.op, "client",
                      static_cast<std::uint64_t>(id_));
      obs::flight(obs::FlightKind::kRetry, acq.result.op, to_us(sim_->now()),
                  -1, static_cast<std::uint64_t>(acq.result.attempts));
      sim_->schedule(backoff, [this, slot] { start_attempt(slot); });
      return;
    }
  }
  if (acq.result.deadline_exceeded) {
    ClientMetrics::get().deadline_exceeded.add(1);
    obs::instant_op("sim", "client_deadline_exceeded", acq.result.op,
                    "client", static_cast<std::uint64_t>(id_));
    obs::flight(obs::FlightKind::kDeadline, acq.result.op, to_us(sim_->now()));
  }
  // A finished op that saw epoch evidence refreshes the view
  // asynchronously, so the *next* op probes the current membership.
  if (machine.finish_acquisition(current_epoch, view_epoch_, sim_->now()))
    sim_->schedule(delay, [this] { adopt_current_view(); });
  acq.result.num_probes = machine.probes();
  acq.result.view_fetches = machine.view_fetches();
  acq.result.latency = sim_->now() - acq.op_start;
  machine.probed(acq.result.probed);
  if (acq.kind == OpKind::kAcquire) {
    complete(slot);
  } else {
    finish_op(slot);
  }
}

void SimClient::finish_op(std::uint32_t slot) {
  Acquisition& acq = *slots_[slot];
  AcquisitionMachine& machine = acq.machine;
  OpResult& result = acq.result;
  if (acq.kind == OpKind::kRead) {
    const Verdict verdict = machine.read_verdict(sim_->now());
    result.ok = verdict.ok;
    result.timestamp = verdict.ts;
    result.value = verdict.value;
    if (verdict.retired_read) ++retired_reads_;
    if (config_.read_repair && result.ok) {
      // Fire-and-forget write-back to stale reached servers.
      machine.for_each_stale_reply(result.timestamp, [&](int server) {
        send(server, [this, server, object = acq.object,
                      ts = result.timestamp, value = result.value] {
          (*servers_)[static_cast<std::size_t>(server)].handle_write(
              sim_->now(), ts, value, object);
        });
      });
    }
    complete(slot);
    return;
  }
  const Verdict verdict = machine.write_verdict(id_, sim_->now());
  result.ok = verdict.ok;
  if (!result.ok) {
    complete(slot);
    return;
  }
  result.timestamp = verdict.ts;

  // Push the new value to every reached probed server; complete when all
  // acks arrive or time out.
  const std::uint32_t generation = acq.generation;
  for (int k = 0; k < machine.push_count(); ++k) {
    const int server = machine.push_replica(k);
    send(server, [this, slot, generation, k, server, object = acq.object,
                  ts = result.timestamp, value = result.value] {
      Replica& s = (*servers_)[static_cast<std::size_t>(server)];
      if (!s.handle_write(sim_->now(), ts, value, object)) return;
      sim_->schedule(s.service_time(sim_->now()),
                     [this, slot, generation, k, server] {
        send(server, [this, slot, generation, k] {
          finish_push(slot, generation, k, true);
        });
      });
    });
    sim_->schedule(current_probe_timeout(), [this, slot, generation, k] {
      finish_push(slot, generation, k, false);
    });
  }
}

void SimClient::finish_push(std::uint32_t slot, std::uint32_t generation,
                            int k, bool acked) {
  Acquisition& acq = *slots_[slot];
  if (acq.generation != generation) return;  // the write completed
  AcquisitionMachine& machine = acq.machine;
  const double push_start = machine.push_start();
  if (!machine.on_push(k, acked, sim_->now() - push_start)) return;
  // The write's latency runs from its first attempt to its last push.
  acq.result.acks = machine.acks();
  acq.result.latency = sim_->now() - (push_start - acq.result.latency);
  complete(slot);
}

void SimClient::complete(std::uint32_t slot) {
  Acquisition& acq = *slots_[slot];
  ++acq.generation;  // whatever this op still has in flight is stale now
  // The slot is freed only after `done` returns, so an op the callback
  // starts takes another slot and cannot overwrite this result mid-call.
  acq.done(std::move(acq.result));
  acq.done = OpCallback{};
  free_slots_.push_back(slot);
}

}  // namespace sqs
