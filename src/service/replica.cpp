#include "service/replica.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/telemetry.h"
#include "service/message.h"

namespace sqs {

namespace {

struct ReplicaMetrics {
  obs::Counter dropped =
      obs::Registry::instance().counter("service.replica.dropped_requests");
  obs::Counter regressions =
      obs::Registry::instance().counter("service.replica.ts_regressions");
  obs::Counter lies =
      obs::Registry::instance().counter("service.replica.lies_told");
  static const ReplicaMetrics& get() {
    static const ReplicaMetrics m;
    return m;
  }
};

}  // namespace

ServiceReplica::ServiceReplica(int id, const ServerConfig& config, Rng rng)
    : id_(id), config_(config), rng_(std::move(rng)) {
  // Same draw order as SimServer: stationary state, then first toggle.
  up_ = !rng_.bernoulli(config_.stationary_down());
  next_toggle_ =
      rng_.exponential(1.0 / (up_ ? config_.mean_up : config_.mean_down));
}

void ServiceReplica::advance_failure_process(double now) const {
  while (next_toggle_ <= now) {
    up_ = !up_;
    if (up_ && config_.amnesia_on_recovery) {
      for (Cell& c : cells_) {
        c.ts = Timestamp{};
        c.value = 0;
        c.cert_fresh = false;
      }
    }
    next_toggle_ +=
        rng_.exponential(1.0 / (up_ ? config_.mean_up : config_.mean_down));
  }
}

bool ServiceReplica::up(double now) const {
  advance_failure_process(now);
  if (now < forced_down_until_) return false;
  if (now < forced_up_until_) return true;
  return up_;
}

double ServiceReplica::begin_service(double now, double qnow) {
  // FIFO backlog on the monotone arrival clock (see header): the request
  // waits out the existing backlog, then runs for one (possibly
  // gray-inflated) service time.
  const double start = std::max(qnow, busy_until_);
  const double dt = service_time(now);
  busy_until_ = start + dt;
  busy_seconds_ += dt;
  return (start - qnow) + dt;  // wait + service
}

std::optional<ServiceReplica::ReadServed> ServiceReplica::serve_read(
    int object, double now, double qnow, int client) {
  if (!up(now) || fences_requests()) {  // fence backstop; runner checks first
    ++dropped_requests_;
    ReplicaMetrics::get().dropped.add(1);
    return std::nullopt;
  }
  const double done = now + begin_service(now, qnow);
  Cell& c = cell(object);
  if (c.ts < c.max_seen) {
    ++ts_regressions_;
    ReplicaMetrics::get().regressions.add(1);
  }
  // The certificate always signs the TRUE stored state — the lie branch
  // below corrupts only the reported fields (unforgeable signatures).
  if (!c.cert_fresh) {
    c.cert = replica_cert(id_, c.ts, c.value);
    c.cert_fresh = true;
  }
  if (lie_active(now) && lie_corrupts_read(lie_mode_, client)) {
    ++lies_told_;
    ReplicaMetrics::get().lies.add(1);
    if (lie_mode_ == LieMode::kStaleTs)
      return ReadServed{done, Timestamp{}, 0, c.cert};
    return ReadServed{done, fabricated_timestamp(id_, c.ts),
                      fabricated_value(id_, c.ts, c.value), c.cert};
  }
  return ReadServed{done, c.ts, c.value, c.cert};
}

std::optional<double> ServiceReplica::serve_write(const Timestamp& ts,
                                                 std::uint64_t value,
                                                 int object, double now,
                                                 double qnow) {
  if (!up(now) || fences_requests()) {  // fence backstop; runner checks first
    ++dropped_requests_;
    ReplicaMetrics::get().dropped.add(1);
    return std::nullopt;
  }
  const double done = now + begin_service(now, qnow);
  if (lie_active(now) && lie_mode_ == LieMode::kFabricateAck) {
    // Ack without applying: the client counts this replica toward write
    // durability, but the state was dropped on the floor.
    ++lies_told_;
    ReplicaMetrics::get().lies.add(1);
    return done;
  }
  advance_cell(object, ts, value);
  return done;
}

std::optional<double> ServiceReplica::serve_fence(double now, double qnow) {
  if (!up(now)) {
    ++dropped_requests_;
    ReplicaMetrics::get().dropped.add(1);
    return std::nullopt;
  }
  return now + begin_service(now, qnow);
}

void ServiceReplica::adopt_state(const Timestamp& ts, std::uint64_t value,
                                 int object) {
  advance_cell(object, ts, value);
}

ServiceReplica::Cell& ServiceReplica::cell(int object) {
  assert(object >= 0);
  const std::size_t i = static_cast<std::size_t>(object);
  if (i >= cells_.size()) cells_.resize(i + 1);
  return cells_[i];
}

const ServiceReplica::Cell* ServiceReplica::find_cell(int object) const {
  const std::size_t i = static_cast<std::size_t>(object);
  return object >= 0 && i < cells_.size() ? &cells_[i] : nullptr;
}

void ServiceReplica::advance_cell(int object, const Timestamp& ts,
                                  std::uint64_t value) {
  Cell& c = cell(object);
  if (!(c.ts < ts)) return;
  c.ts = ts;
  c.value = value;
  c.max_seen = std::max(c.max_seen, ts);
  c.cert_fresh = false;
}

void ServiceReplica::force_crash(double now, double duration) {
  forced_down_until_ = std::max(forced_down_until_, now + duration);
}

void ServiceReplica::force_up(double now, double duration) {
  forced_up_until_ = std::max(forced_up_until_, now + duration);
}

void ServiceReplica::set_gray(double factor, double now, double duration) {
  gray_factor_ = factor;
  gray_until_ = now + duration;
}

void ServiceReplica::set_lie(LieMode mode, double now, double duration) {
  lie_mode_ = mode;
  lie_until_ = now + duration;
}

Timestamp ServiceReplica::timestamp(int object) const {
  const Cell* c = find_cell(object);
  return c == nullptr ? Timestamp{} : c->ts;
}

std::uint64_t ServiceReplica::value(int object) const {
  const Cell* c = find_cell(object);
  return c == nullptr ? 0 : c->value;
}

Timestamp ServiceReplica::max_timestamp_seen(int object) const {
  const Cell* c = find_cell(object);
  return c == nullptr ? Timestamp{} : c->max_seen;
}

}  // namespace sqs
