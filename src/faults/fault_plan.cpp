#include "faults/fault_plan.h"

#include <cstdio>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

namespace {

struct FaultMetrics {
  obs::Counter injected = obs::Registry::instance().counter("sim.faults.injected");
  obs::Counter crash = obs::Registry::instance().counter("sim.faults.crash");
  obs::Counter pin = obs::Registry::instance().counter("sim.faults.pin");
  obs::Counter gray = obs::Registry::instance().counter("sim.faults.gray");
  obs::Counter link_down =
      obs::Registry::instance().counter("sim.faults.link_down");
  obs::Counter client_partition =
      obs::Registry::instance().counter("sim.faults.client_partition");
  obs::Counter server_partition =
      obs::Registry::instance().counter("sim.faults.server_partition");
  obs::Counter latency_burst =
      obs::Registry::instance().counter("sim.faults.latency_burst");
  obs::Counter loss_burst =
      obs::Registry::instance().counter("sim.faults.loss_burst");
  obs::Counter lie = obs::Registry::instance().counter("sim.faults.lie");
  static const FaultMetrics& get() {
    static const FaultMetrics m;
    return m;
  }

  const obs::Counter& for_kind(FaultEvent::Kind kind) const {
    switch (kind) {
      case FaultEvent::Kind::kServerCrash: return crash;
      case FaultEvent::Kind::kServerPin: return pin;
      case FaultEvent::Kind::kGrayServer: return gray;
      case FaultEvent::Kind::kLinkDown: return link_down;
      case FaultEvent::Kind::kClientPartition: return client_partition;
      case FaultEvent::Kind::kServerPartition: return server_partition;
      case FaultEvent::Kind::kLatencyBurst: return latency_burst;
      case FaultEvent::Kind::kLossBurst: return loss_burst;
      case FaultEvent::Kind::kLieWrongValue:
      case FaultEvent::Kind::kLieStaleTs:
      case FaultEvent::Kind::kLieEquivocate:
      case FaultEvent::Kind::kLieFabricateAck:
        return lie;
    }
    return injected;
  }
};

LieMode lie_mode_for(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLieWrongValue: return LieMode::kWrongValue;
    case FaultEvent::Kind::kLieStaleTs: return LieMode::kStaleTs;
    case FaultEvent::Kind::kLieEquivocate: return LieMode::kEquivocate;
    case FaultEvent::Kind::kLieFabricateAck: return LieMode::kFabricateAck;
    default: return LieMode::kNone;
  }
}

}  // namespace

const char* fault_kind_name(FaultEvent::Kind kind) {
  for (const auto& [k, name] : kFaultKindNames)
    if (k == kind) return name;
  return "unknown";
}

FaultPlan& FaultPlan::crash(double at, int server, double duration) {
  events.push_back({FaultEvent::Kind::kServerCrash, at, duration, server, -1, 1.0});
  return *this;
}

FaultPlan& FaultPlan::pin_up(double at, int server, double duration) {
  events.push_back({FaultEvent::Kind::kServerPin, at, duration, server, -1, 1.0});
  return *this;
}

FaultPlan& FaultPlan::gray(double at, int server, double factor,
                           double duration) {
  events.push_back(
      {FaultEvent::Kind::kGrayServer, at, duration, server, -1, factor});
  return *this;
}

FaultPlan& FaultPlan::link_down(double at, int client, int server,
                                double duration) {
  events.push_back(
      {FaultEvent::Kind::kLinkDown, at, duration, server, client, 1.0});
  return *this;
}

FaultPlan& FaultPlan::client_partition(double at, int client, double duration,
                                       double fraction) {
  events.push_back({FaultEvent::Kind::kClientPartition, at, duration, -1,
                    client, fraction});
  return *this;
}

FaultPlan& FaultPlan::server_partition(double at, int server, double duration) {
  events.push_back(
      {FaultEvent::Kind::kServerPartition, at, duration, server, -1, 1.0});
  return *this;
}

FaultPlan& FaultPlan::latency_burst(double at, double factor, double duration) {
  events.push_back(
      {FaultEvent::Kind::kLatencyBurst, at, duration, -1, -1, factor});
  return *this;
}

FaultPlan& FaultPlan::loss_burst(double at, double drop_prob, double duration) {
  events.push_back(
      {FaultEvent::Kind::kLossBurst, at, duration, -1, -1, drop_prob});
  return *this;
}

FaultPlan& FaultPlan::lie(double at, int server, LieMode mode,
                          double duration) {
  FaultEvent::Kind kind;
  switch (mode) {
    case LieMode::kWrongValue: kind = FaultEvent::Kind::kLieWrongValue; break;
    case LieMode::kStaleTs: kind = FaultEvent::Kind::kLieStaleTs; break;
    case LieMode::kEquivocate: kind = FaultEvent::Kind::kLieEquivocate; break;
    case LieMode::kFabricateAck:
      kind = FaultEvent::Kind::kLieFabricateAck;
      break;
    case LieMode::kNone:
    default:
      return *this;  // a no-op lie is not an event
  }
  events.push_back({kind, at, duration, server, -1, 1.0});
  return *this;
}

bool FaultPlan::validate(int num_clients, int num_servers) const {
  bool ok = true;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& ev = events[i];
    const auto reject = [&ok, i, &ev](const char* why) {
      std::fprintf(stderr, "FaultPlan: event %zu (%s at %g): %s\n", i,
                   fault_kind_name(ev.kind), ev.at, why);
      ok = false;
    };
    if (!(ev.at >= 0.0)) reject("negative time");
    if (!(ev.duration >= 0.0)) reject("negative duration");
    const bool needs_server =
        ev.kind == FaultEvent::Kind::kServerCrash ||
        ev.kind == FaultEvent::Kind::kServerPin ||
        ev.kind == FaultEvent::Kind::kGrayServer ||
        ev.kind == FaultEvent::Kind::kLinkDown ||
        ev.kind == FaultEvent::Kind::kServerPartition ||
        ev.kind == FaultEvent::Kind::kLieWrongValue ||
        ev.kind == FaultEvent::Kind::kLieStaleTs ||
        ev.kind == FaultEvent::Kind::kLieEquivocate ||
        ev.kind == FaultEvent::Kind::kLieFabricateAck;
    const bool needs_client = ev.kind == FaultEvent::Kind::kLinkDown ||
                              ev.kind == FaultEvent::Kind::kClientPartition;
    if (needs_server && (ev.server < 0 || ev.server >= num_servers))
      reject("server index out of range");
    if (needs_client && (ev.client < 0 || ev.client >= num_clients))
      reject("client index out of range");
    switch (ev.kind) {
      case FaultEvent::Kind::kGrayServer:
        if (!(ev.magnitude >= 1.0)) reject("gray factor < 1");
        break;
      case FaultEvent::Kind::kClientPartition:
        if (!(ev.magnitude >= 0.0 && ev.magnitude <= 1.0))
          reject("partition fraction outside [0,1]");
        break;
      case FaultEvent::Kind::kLatencyBurst:
        if (!(ev.magnitude >= 1.0)) reject("latency factor < 1");
        break;
      case FaultEvent::Kind::kLossBurst:
        if (!(ev.magnitude >= 0.0 && ev.magnitude <= 1.0))
          reject("drop probability outside [0,1]");
        break;
      default:
        break;
    }
  }
  return ok;
}

FaultPlan make_churn_plan(int num_servers, double start, double period,
                          int group_size, double outage, double until) {
  FaultPlan plan;
  int next = 0;
  for (double t = start; t < until; t += period) {
    for (int g = 0; g < group_size; ++g) {
      plan.crash(t, next, outage);
      next = (next + 1) % num_servers;
    }
  }
  return plan;
}

FaultPlan make_mass_crash_plan(int num_servers, int keep_up, double start,
                               double duration) {
  FaultPlan plan;
  for (int s = 0; s < num_servers; ++s) {
    if (s < num_servers - keep_up)
      plan.crash(start, s, duration);
    else
      plan.pin_up(start, s, duration);
  }
  return plan;
}

FaultPlan make_gray_plan(int num_servers, int num_gray, double factor,
                         double start, double duration) {
  FaultPlan plan;
  for (int s = 0; s < num_gray && s < num_servers; ++s)
    plan.gray(start, s, factor, duration);
  return plan;
}

FaultPlan make_partition_storm_plan(int num_clients, double start,
                                    double until, double period,
                                    double outage, double fraction, Rng rng) {
  FaultPlan plan;
  for (double t = start; t < until; t += period) {
    const int victim = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(num_clients)));
    plan.client_partition(t, victim, outage, fraction);
  }
  return plan;
}

FaultPlan make_lossy_plan(double start, double until, double period,
                          double burst_len, double drop_prob,
                          double latency_factor) {
  FaultPlan plan;
  for (double t = start; t < until; t += period) {
    plan.loss_burst(t, drop_prob, burst_len);
    plan.latency_burst(t + period / 2.0, latency_factor, burst_len);
  }
  return plan;
}

FaultPlan make_byzantine_plan(int num_servers, int num_liars, double start,
                              double duration) {
  FaultPlan plan;
  // Phase fractions chosen so the headline lie (fabricated writes) owns
  // most of the window while every mode still gets meaningful coverage.
  const double wrong = 0.45 * duration;
  const double equiv = 0.25 * duration;
  const double stale = 0.15 * duration;
  const double fab = duration - wrong - equiv - stale;
  for (int s = 0; s < num_liars && s < num_servers; ++s) {
    plan.pin_up(start, s, duration);
    double t = start;
    plan.lie(t, s, LieMode::kWrongValue, wrong);
    t += wrong;
    plan.lie(t, s, LieMode::kEquivocate, equiv);
    t += equiv;
    plan.lie(t, s, LieMode::kStaleTs, stale);
    t += stale;
    plan.lie(t, s, LieMode::kFabricateAck, fab);
  }
  return plan;
}

void apply_fault(const FaultEvent& event, double now, Transport& transport,
                 std::vector<Replica>& replicas) {
  using Kind = FaultEvent::Kind;
  const double d = event.duration;
  const auto replica = [&]() -> Replica& {
    return replicas[static_cast<std::size_t>(event.server)];
  };
  switch (event.kind) {
    case Kind::kServerCrash: replica().force_crash(now, d); break;
    case Kind::kServerPin: replica().force_up(now, d); break;
    case Kind::kGrayServer: replica().set_gray(event.magnitude, now, d); break;
    case Kind::kLinkDown:
      transport.block_link(event.client, event.server, now, d);
      break;
    case Kind::kClientPartition:
      if (event.magnitude >= 1.0)
        transport.partition_client(event.client, now, d);
      else
        transport.partition_client_partial(event.client, event.magnitude,
                                           now, d);
      break;
    case Kind::kServerPartition:
      transport.force_partition(event.server, now, d);
      break;
    case Kind::kLatencyBurst:
      transport.inject_latency_burst(event.magnitude, now, d);
      break;
    case Kind::kLossBurst:
      transport.inject_loss_burst(event.magnitude, now, d);
      break;
    case Kind::kLieWrongValue:
    case Kind::kLieStaleTs:
    case Kind::kLieEquivocate:
    case Kind::kLieFabricateAck:
      replica().set_lie(lie_mode_for(event.kind), now, d);
      break;
  }
}

void install_fault_plan(const FaultPlan& plan, Simulator* sim,
                        Transport* transport, std::vector<Replica>* servers) {
  for (const FaultEvent& ev : plan.events) {
    const double delay = ev.at > sim->now() ? ev.at - sim->now() : 0.0;
    sim->schedule(delay, [ev, sim, transport, servers] {
      apply_fault(ev, sim->now(), *transport, *servers);
      const FaultMetrics& m = FaultMetrics::get();
      m.injected.add(1);
      m.for_kind(ev.kind).add(1);
      obs::instant("faults", fault_kind_name(ev.kind), "target",
                   static_cast<std::uint64_t>(ev.server >= 0 ? ev.server
                                              : ev.client >= 0 ? ev.client
                                                               : 0));
    });
  }
}

}  // namespace sqs
