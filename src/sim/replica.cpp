#include "sim/replica.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/telemetry.h"
#include "sim/keyed_hash.h"

namespace sqs {

// One counter set per family of entry points, so simulator and served
// totals stay apart.
struct Replica::Metrics {
  obs::Counter dropped, regressions, lies;

  explicit Metrics(const std::string& prefix)
      : dropped(obs::Registry::instance().counter(prefix + "dropped_requests")),
        regressions(
            obs::Registry::instance().counter(prefix + "ts_regressions")),
        lies(obs::Registry::instance().counter(prefix + "lies_told")) {}
  static const Metrics& sim() {
    static const Metrics m("sim.server.");
    return m;
  }
  static const Metrics& served() {
    static const Metrics m("service.replica.");
    return m;
  }
};

std::uint32_t replica_cert(int replica, const Timestamp& ts,
                           std::uint64_t value) {
  // counter (u64), writer (u32), value (u64), little-endian.
  std::uint8_t buf[20];
  const auto put = [&buf](int offset, std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      buf[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put(0, ts.counter, 8);
  put(8, static_cast<std::uint32_t>(ts.writer), 4);
  put(12, value, 8);
  return hmac32(
      cert_key(kReplicaPrincipalBase + static_cast<std::uint64_t>(replica)),
      buf, sizeof buf);
}

const char* lie_mode_name(LieMode mode) {
  switch (mode) {
    case LieMode::kNone: return "none";
    case LieMode::kWrongValue: return "wrong_value";
    case LieMode::kStaleTs: return "stale_ts";
    case LieMode::kEquivocate: return "equivocate";
    case LieMode::kFabricateAck: return "fabricate_ack";
  }
  return "unknown";
}

bool ServerConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "ServerConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (!(mean_up > 0.0)) reject("mean_up", mean_up);
  if (!(mean_down > 0.0)) reject("mean_down", mean_down);
  if (!(service_time >= 0.0)) reject("service_time", service_time);
  return ok;
}

Replica::Replica(int id, const ServerConfig& config, Rng rng)
    : id_(id), config_(config), rng_(std::move(rng)) {
  up_ = !rng_.bernoulli(config_.stationary_down());
  next_toggle_ =
      rng_.exponential(1.0 / (up_ ? config_.mean_up : config_.mean_down));
}

void Replica::advance_failure_process(double now) const {
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

bool Replica::up(double now) const {
  // The stochastic process always advances (so it resumes in the right
  // phase when an override lapses), but a forced window decides the answer.
  advance_failure_process(now);
  if (now < forced_down_until_) return false;
  if (now < forced_up_until_) return true;
  return up_;
}

inline bool Replica::admit(double now, const Metrics& metrics) {
  if (up(now)) return true;
  ++dropped_requests_;
  metrics.dropped.add(1);
  return false;
}

inline std::pair<Timestamp, std::uint64_t> Replica::read_cell(
    const Cell& c, double now, int client, const Metrics& metrics) {
  if (c.ts < c.max_seen) {
    ++ts_regressions_;
    metrics.regressions.add(1);
  }
  if (lie_active(now) && lie_corrupts_read(lie_mode_, client)) {
    ++lies_told_;
    metrics.lies.add(1);
    if (lie_mode_ == LieMode::kStaleTs) return {Timestamp{}, 0};
    return {fabricated_timestamp(id_, c.ts),
            fabricated_value(id_, c.ts, c.value)};
  }
  return {c.ts, c.value};
}

inline void Replica::write_cell(int object, const Timestamp& ts,
                                std::uint64_t value, double now,
                                const Metrics& metrics) {
  if (lie_active(now) && lie_mode_ == LieMode::kFabricateAck) {
    // Ack without applying: the client counts this replica toward write
    // durability, but the state was dropped on the floor.
    ++lies_told_;
    metrics.lies.add(1);
    return;
  }
  advance_cell(object, ts, value);
}

std::optional<std::pair<Timestamp, std::uint64_t>> Replica::handle_read(
    double now, int object, int client) {
  const Metrics& metrics = Metrics::sim();
  if (!admit(now, metrics) || fences_requests()) return std::nullopt;
  return read_cell(cell(object), now, client, metrics);
}

bool Replica::handle_write(double now, const Timestamp& ts,
                           std::uint64_t value, int object) {
  const Metrics& metrics = Metrics::sim();
  if (!admit(now, metrics) || fences_requests()) return false;
  write_cell(object, ts, value, now, metrics);
  return true;
}

double Replica::begin_service(double now, double qnow) {
  // FIFO backlog on the monotone arrival clock (see header): the request
  // waits out the existing backlog, then runs for one (possibly
  // gray-inflated) service time.
  const double start = std::max(qnow, busy_until_);
  const double dt = service_time(now);
  busy_until_ = start + dt;
  busy_seconds_ += dt;
  return (start - qnow) + dt;  // wait + service
}

std::optional<Replica::ReadServed> Replica::serve_read(int object, double now,
                                                       double qnow,
                                                       int client) {
  const Metrics& metrics = Metrics::served();
  if (!admit(now, metrics) || fences_requests()) return std::nullopt;
  const double done = now + begin_service(now, qnow);
  Cell& c = cell(object);
  const auto [ts, value] = read_cell(c, now, client, metrics);
  if (!c.cert_fresh) {
    c.cert = replica_cert(id_, c.ts, c.value);
    c.cert_fresh = true;
  }
  return ReadServed{done, ts, value, c.cert};
}

std::optional<double> Replica::serve_write(const Timestamp& ts,
                                           std::uint64_t value, int object,
                                           double now, double qnow) {
  const Metrics& metrics = Metrics::served();
  if (!admit(now, metrics) || fences_requests()) return std::nullopt;
  const double done = now + begin_service(now, qnow);
  write_cell(object, ts, value, now, metrics);
  return done;
}

std::optional<double> Replica::serve_fence(double now, double qnow) {
  if (!admit(now, Metrics::served())) return std::nullopt;
  return now + begin_service(now, qnow);
}

inline Replica::Cell& Replica::cell(int object) {
  assert(object >= 0);
  const std::size_t i = static_cast<std::size_t>(object);
  if (i >= cells_.size()) cells_.resize(i + 1);
  return cells_[i];
}

const Replica::Cell* Replica::find_cell(int object) const {
  const std::size_t i = static_cast<std::size_t>(object);
  return object >= 0 && i < cells_.size() ? &cells_[i] : nullptr;
}

void Replica::adopt_state(const Timestamp& ts, std::uint64_t value,
                          int object) {
  advance_cell(object, ts, value);
}

inline void Replica::advance_cell(int object, const Timestamp& ts,
                                  std::uint64_t value) {
  Cell& c = cell(object);
  if (!(c.ts < ts)) return;
  c.ts = ts;
  c.value = value;
  c.max_seen = std::max(c.max_seen, ts);
  c.cert_fresh = false;
}

void Replica::force_crash(double now, double duration) {
  forced_down_until_ = std::max(forced_down_until_, now + duration);
}

void Replica::force_up(double now, double duration) {
  forced_up_until_ = std::max(forced_up_until_, now + duration);
}

void Replica::set_gray(double factor, double now, double duration) {
  gray_factor_ = factor;
  gray_until_ = now + duration;
}

void Replica::set_lie(LieMode mode, double now, double duration) {
  lie_mode_ = mode;
  lie_until_ = now + duration;
}

Timestamp Replica::timestamp(int object) const {
  const Cell* c = find_cell(object);
  return c == nullptr ? Timestamp{} : c->ts;
}

std::uint64_t Replica::value(int object) const {
  const Cell* c = find_cell(object);
  return c == nullptr ? 0 : c->value;
}

Timestamp Replica::max_timestamp_seen(int object) const {
  const Cell* c = find_cell(object);
  return c == nullptr ? Timestamp{} : c->max_seen;
}

}  // namespace sqs
