// Per-op causal identity and the always-on flight recorder.
//
// OpId is a compact 64-bit operation identity: the high 16 bits name the
// originating stream (the served request stream, one stream per simulated
// client, the probe-trial stream), the low 48 bits a per-stream sequence
// number. Every layer that touches an op — load gen, the staged runner's
// three stages, sim clients, probe instants — tags its events with the same
// OpId, so a single op's journey reconstructs into one timeline
// (scripts/op_timeline.py).
//
// The flight recorder keeps a fixed-capacity ring buffer of compact binary
// events per thread: (run, sim-time-us, op, kind, replica, payload). The
// disabled fast path is one inline relaxed atomic load, like the metric gates;
// recording overwrites the ring's oldest entry on wraparound and never
// blocks, allocates (after ring creation), or draws randomness, so enabling
// it cannot change any simulated or served bit. When a chaos invariant fails
// or serve() loses an acked write, the rings are merged into a deterministic
// JSONL dump — the run's black box.
//
// Determinism contract (DESIGN.md section 3.11): events are pure functions of
// op/simulation state, so the recorded *set* is identical at any thread
// count; the merged dump stable-sorts by the full event key
// (run, time_us, op, kind, replica, payload), so as long as no ring wrapped
// the dump is bit-identical for 1, 2, or N threads (tests/test_recorder.cpp
// asserts it). After wraparound the dump still holds each thread's most
// recent window in the same deterministic order — best-effort content,
// deterministic shape.
//
// Thread safety: a ring is written only by its owner thread; the per-ring
// counters are relaxed atomics (owner-only writes) so stats can be read any
// time. collect_flight_events()/write_flight_recorder()/reset_flight_recorder()
// read or mutate every ring and are only valid at quiescent points — after
// the thread pool has joined its batch (the pool's completion handshake
// provides the needed happens-before), the same caveat as Registry::reset().

#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace sqs {
namespace obs {

// --- op identity -----------------------------------------------------------

using OpId = std::uint64_t;

inline constexpr OpId kNoOp = ~0ull;

// Stream ids: the served request stream is 0, simulated client c uses
// 1 + c, Monte Carlo probe trials use the top stream.
inline constexpr std::uint32_t kServiceStream = 0;
inline constexpr std::uint32_t kProbeTrialStream = 0xFFFF;

constexpr OpId make_op_id(std::uint32_t stream, std::uint64_t seq) {
  return (static_cast<OpId>(stream & 0xFFFFu) << 48) |
         (seq & ((1ull << 48) - 1));
}
constexpr std::uint32_t op_stream(OpId op) {
  return static_cast<std::uint32_t>(op >> 48);
}
constexpr std::uint64_t op_seq(OpId op) { return op & ((1ull << 48) - 1); }

// --- flight events ---------------------------------------------------------

// Enumerator order is causal pipeline order, so equal-time events of one op
// sort into the order they happened.
enum class FlightKind : std::uint8_t {
  kGenerated = 0,   // load gen emitted the request (payload: client)
  kDecoded,         // prologue decoded it (payload: valid)
  kArrival,         // solo stage / sim client started the op (payload: client)
  kFault,           // fault event applied (op kNoOp, payload: FaultEvent kind)
  kEpochTransition, // epoch boundary crossed (op kNoOp, payload: new epoch)
  kProbe,           // probe reached `replica` (payload: rtt us)
  kProbeMiss,       // probe to `replica` got no usable reply (payload: us spent)
  kEpochFenced,     // probe rejected by retired `replica` (payload: its epoch)
  kFiltered,        // partition filter aborted the attempt
  kRetry,           // acquisition retry scheduled (payload: attempt)
  kViewRefresh,     // fetched view arrives (payload: its epoch)
  kDeadline,        // op deadline exceeded
  kQuorumAcquired,  // acquisition succeeded (payload: probes)
  kQuorumFailed,    // acquisition failed for good (payload: probes)
  kWriteAck,        // write push to `replica` acked (payload: rtt us)
  kWriteNack,       // write push to `replica` lost/timed out (payload: timeout us)
  kStaleRead,       // read returned below the completed-write frontier
  kRetiredRead,     // read adopted state served by a retired `replica`
  kFabricatedRead,  // read returned a binding no genuine write produced
  kReadRegression,  // client saw its own reads go backwards
  kOpDone,          // op completed (payload: latency us)
  kEncoded,         // epilogue encoded the reply (payload: ok)
  kLostWrite,       // acked write no longer visible (op kNoOp)
  kViolation,       // invariant violation noted (op kNoOp)
};

const char* flight_kind_name(FlightKind kind);

struct FlightEvent {
  std::uint32_t run = 0;       // replicate index; 0 for single-run workloads
  std::uint64_t time_us = 0;   // explicit virtual/simulated time
  OpId op = kNoOp;
  FlightKind kind = FlightKind::kGenerated;
  std::int32_t replica = -1;   // -1 when not about a specific replica
  std::uint64_t payload = 0;   // kind-specific detail (see FlightKind)
};

inline bool recorder_enabled() {
  return (detail::g_telemetry_flags.load(std::memory_order_relaxed) & 4u) != 0;
}

namespace detail {
// The recording half of flight(), out of line behind its gate.
void record_flight(FlightKind kind, OpId op, std::uint64_t time_us,
                   std::int32_t replica, std::uint64_t payload);
}  // namespace detail

// Records one event into the calling thread's ring; never blocks or draws
// randomness when on. When the recorder is off this inline gate is the whole
// cost: one relaxed load, no call. Arguments are still evaluated by the
// caller, so a call site that converts them (virtual seconds to
// microseconds) checks recorder_enabled() first on hot paths.
inline void flight(FlightKind kind, OpId op, std::uint64_t time_us,
                   std::int32_t replica = -1, std::uint64_t payload = 0) {
  if (recorder_enabled())
    detail::record_flight(kind, op, time_us, replica, payload);
}

// Virtual (or simulated) seconds -> integer microseconds, the recorder's
// time unit. Rounds to nearest.
inline std::uint64_t to_us(double seconds) {
  return static_cast<std::uint64_t>(std::llround(seconds * 1e6));
}

// Tags subsequent events of this thread with a replicate index, so chaos
// grids (where simulated time restarts per replicate) keep a total event
// order. RAII; nests by save/restore.
class FlightRunScope {
 public:
  explicit FlightRunScope(std::uint32_t run);
  ~FlightRunScope();
  FlightRunScope(const FlightRunScope&) = delete;
  FlightRunScope& operator=(const FlightRunScope&) = delete;

 private:
  std::uint32_t saved_;
};
std::uint32_t current_flight_run();

// Thread-local op context for layers that are called beneath an op without
// being handed its id (the probe engine's instants). RAII; nests.
class ScopedOp {
 public:
  explicit ScopedOp(OpId op);
  ~ScopedOp();
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  OpId saved_;
};
OpId current_op();

// --- merged dumps (quiescent points only) ----------------------------------

struct FlightRecorderStats {
  std::uint64_t recorded = 0;     // events ever recorded
  std::uint64_t overwritten = 0;  // evicted by wraparound
  std::uint64_t dumps = 0;        // write_flight_recorder calls that wrote
  std::uint64_t rings = 0;        // per-thread rings created
};
FlightRecorderStats flight_recorder_stats();

// Every retained event, merged across rings and stable-sorted by
// (run, time_us, op, kind, replica, payload).
std::vector<FlightEvent> collect_flight_events();

// Writes the merged dump as JSONL: one meta line ({"flight_recorder": ...}
// with the reason and counts), then one event object per line. Reports the
// failing path and errno reason on stderr and returns false on error.
bool write_flight_recorder(const std::string& path, const std::string& reason);

// Clears every ring (and re-sizes them to the currently configured
// capacity) and zeroes the stats. Quiescent points only.
void reset_flight_recorder();

namespace detail {
// configure() pushes the per-thread ring capacity here; rings created after
// the call (or re-sized by reset_flight_recorder) use it.
void set_flight_capacity(std::uint64_t capacity);
// Shared by the obs writers: fopen/fwrite/fclose with a
// "path: strerror(errno)" stderr complaint on failure.
bool write_text_file(const std::string& path, const std::string& contents);
}  // namespace detail

}  // namespace obs
}  // namespace sqs
