// Declarative, deterministic fault timelines.
//
// A FaultPlan is plain data: a list of fault events, each pinned to an
// absolute simulated time. Building a plan involves no simulator — scenario
// builders expand churn waves, mass-crash windows, gray fleets, partition
// storms, and loss/latency bursts into concrete events, drawing any
// randomness from an explicit Rng so the expansion itself is a pure
// function of its inputs. Both drivers take a plan as a config field,
// checked by validate() before anything runs: RegisterExperimentConfig::
// plan, which run_register_experiment installs (install_fault_plan, one
// simulator event per fault event), and ServiceConfig::plan, whose events
// the served runner applies as its arrival clock crosses them. Both go
// through apply_fault, the one switch onto the Transport and Replica
// injection hooks. Application draws nothing from any rng stream, so the
// same plan + seed reproduces a bit-identical run at any thread count
// (tests/test_faults.cpp asserts this at 1/2/8 threads).
//
// Telemetry: each event a simulation applies bumps `sim.faults.injected`
// plus a per-kind `sim.faults.<kind>` counter and emits a trace instant, so
// an injected timeline is visible both in metric snapshots and in the
// Chrome trace.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/replica.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "util/rng.h"

namespace sqs {

struct FaultEvent {
  enum class Kind {
    kServerCrash,       // pin `server` down for `duration`
    kServerPin,         // pin `server` up for `duration` (restart override)
    kGrayServer,        // `server`'s service_time x `magnitude` for `duration`
    kLinkDown,          // block the (client, server) link for `duration`
    kClientPartition,   // all of `client`'s links down for `duration`;
                        // magnitude < 1 partitions that fraction instead
    kServerPartition,   // every client's link to `server` down for `duration`
    kLatencyBurst,      // deliveries x `magnitude` latency for `duration`
    kLossBurst,         // extra drop probability `magnitude` for `duration`
    // Byzantine lie windows: `server` keeps answering but its replies are
    // corrupted per sim/replica.h's LieMode for `duration`. Lies are pure
    // functions of (liar id, genuine state) — no rng stream is touched.
    kLieWrongValue,     // inflated timestamps + fabricated values
    kLieStaleTs,        // pretends the register was never written
    kLieEquivocate,     // truth to even clients, fabrication to odd clients
    kLieFabricateAck,   // acks writes without applying them
  };
  Kind kind;
  double at = 0.0;        // absolute simulated seconds
  double duration = 0.0;
  int server = -1;
  int client = -1;
  double magnitude = 1.0;
};

// The one spelling of each kind: scenario files, trace instants and the
// validate() complaints all name a kind through this table.
inline constexpr std::pair<FaultEvent::Kind, const char*> kFaultKindNames[] = {
    {FaultEvent::Kind::kServerCrash, "server_crash"},
    {FaultEvent::Kind::kServerPin, "server_pin"},
    {FaultEvent::Kind::kGrayServer, "gray_server"},
    {FaultEvent::Kind::kLinkDown, "link_down"},
    {FaultEvent::Kind::kClientPartition, "client_partition"},
    {FaultEvent::Kind::kServerPartition, "server_partition"},
    {FaultEvent::Kind::kLatencyBurst, "latency_burst"},
    {FaultEvent::Kind::kLossBurst, "loss_burst"},
    {FaultEvent::Kind::kLieWrongValue, "lie_wrong_value"},
    {FaultEvent::Kind::kLieStaleTs, "lie_stale_ts"},
    {FaultEvent::Kind::kLieEquivocate, "lie_equivocate"},
    {FaultEvent::Kind::kLieFabricateAck, "lie_fabricate_ack"},
};

const char* fault_kind_name(FaultEvent::Kind kind);

struct FaultPlan {
  std::vector<FaultEvent> events;

  // Builder-style helpers; all return *this for chaining.
  FaultPlan& crash(double at, int server, double duration);
  FaultPlan& pin_up(double at, int server, double duration);
  FaultPlan& gray(double at, int server, double factor, double duration);
  FaultPlan& link_down(double at, int client, int server, double duration);
  FaultPlan& client_partition(double at, int client, double duration,
                              double fraction = 1.0);
  FaultPlan& server_partition(double at, int server, double duration);
  FaultPlan& latency_burst(double at, double factor, double duration);
  FaultPlan& loss_burst(double at, double drop_prob, double duration);
  FaultPlan& lie(double at, int server, LieMode mode, double duration);

  // True iff every event's time/duration/indices/magnitudes make sense for
  // a world of num_clients x num_servers; complaints go to stderr, one line
  // per bad event, in the style of the sim config validators.
  bool validate(int num_clients, int num_servers) const;
};

// --- scenario builders -----------------------------------------------------

// Rolling churn waves (the Sect. 6.3 shape): starting at `start`, every
// `period` seconds the next `group_size` servers — round-robin over the
// fleet — crash for `outage` seconds, until `until`.
FaultPlan make_churn_plan(int num_servers, double start, double period,
                          int group_size, double outage, double until);

// Mass-failure window: over [start, start + duration) exactly `keep_up`
// servers (the last ones, adversarially placed at the end of sequential
// probe orders) are pinned up and the rest pinned down — the paper's
// "any alpha servers up" availability scenario when keep_up == alpha.
FaultPlan make_mass_crash_plan(int num_servers, int keep_up, double start,
                               double duration);

// Gray fleet: `num_gray` servers (the first ones) serve `factor` x slower
// over [start, start + duration).
FaultPlan make_gray_plan(int num_servers, int num_gray, double factor,
                         double start, double duration);

// Partition storm: every `period` seconds over [start, until), one
// rng-chosen client loses `fraction` of its links for `outage` seconds.
FaultPlan make_partition_storm_plan(int num_clients, double start,
                                    double until, double period,
                                    double outage, double fraction, Rng rng);

// Lossy network: alternating loss bursts (probability `drop_prob`) and
// latency bursts (`latency_factor` x) of length `burst_len`, one pair per
// `period`, over [start, until).
FaultPlan make_lossy_plan(double start, double until, double period,
                          double burst_len, double drop_prob,
                          double latency_factor);

// Byzantine window: the first `num_liars` servers (the head of every
// sequential probe order — adversarial placement) lie over
// [start, start + duration), cycling through all four lie modes —
// wrong values (45% of the window), equivocation (25%), stale timestamps
// (15%), fabricated write acks (15%) — and are pinned *up* for the whole
// window so the lies actually reach clients deterministically.
FaultPlan make_byzantine_plan(int num_servers, int num_liars, double start,
                              double duration);

// --- application -----------------------------------------------------------

// Applies `event` at `now`: its window runs over [now, now + duration).
// The caller keeps its own telemetry.
void apply_fault(const FaultEvent& event, double now, Transport& transport,
                 std::vector<Replica>& replicas);

// Schedules every event of `plan` on `sim` (events whose time already
// passed fire immediately). Call while the simulator is at time 0 for
// absolute timing; `transport` and `servers` outlive the simulation.
void install_fault_plan(const FaultPlan& plan, Simulator* sim,
                        Transport* transport, std::vector<Replica>* servers);

}  // namespace sqs
