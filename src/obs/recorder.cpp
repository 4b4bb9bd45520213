#include "obs/recorder.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <tuple>

#include "util/json.h"

namespace sqs {
namespace obs {

namespace {

constexpr std::uint64_t kDefaultRingCapacity = 1u << 16;

struct Ring {
  std::vector<FlightEvent> slots;
  std::size_t next = 0;
  bool wrapped = false;
  // Owner-only writes; cross-thread reads from flight_recorder_stats().
  std::atomic<std::uint64_t> recorded{0};
  std::atomic<std::uint64_t> overwritten{0};
};

struct RingRegistry {
  std::mutex mu;
  std::vector<Ring*> rings;  // leaked with the registry; never removed
  std::atomic<std::uint64_t> capacity{kDefaultRingCapacity};
  std::atomic<std::uint64_t> dumps{0};
};

// Leaked singleton, same lifetime discipline as the telemetry Store: rings
// of exited threads stay readable for the final dump.
RingRegistry& registry() {
  static RingRegistry* r = new RingRegistry;
  return *r;
}

thread_local Ring* tl_ring = nullptr;
thread_local std::uint32_t tl_run = 0;
thread_local OpId tl_op = kNoOp;

Ring& ring() {
  if (tl_ring == nullptr) {
    RingRegistry& reg = registry();
    Ring* r = new Ring;
    r->slots.resize(
        static_cast<std::size_t>(reg.capacity.load(std::memory_order_relaxed)));
    {
      std::lock_guard<std::mutex> lock(reg.mu);
      reg.rings.push_back(r);
    }
    tl_ring = r;
  }
  return *tl_ring;
}

// Total order on events: replicate, then simulated time, then a stable
// tiebreak over every remaining field so the merged dump has one
// deterministic byte sequence.
bool event_less(const FlightEvent& a, const FlightEvent& b) {
  return std::tie(a.run, a.time_us, a.op, a.kind, a.replica, a.payload) <
         std::tie(b.run, b.time_us, b.op, b.kind, b.replica, b.payload);
}

void write_event_jsonl(std::string& out, const FlightEvent& e) {
  JsonWriter json;
  json.begin_object();
  json.kv("run", static_cast<std::uint64_t>(e.run));
  json.kv("t_us", e.time_us);
  if (e.op == kNoOp) {
    json.key("op").null();
  } else {
    json.kv("op", e.op);
    json.kv("stream", static_cast<std::uint64_t>(op_stream(e.op)));
    json.kv("seq", op_seq(e.op));
  }
  json.kv("kind", flight_kind_name(e.kind));
  json.kv("replica", static_cast<std::int64_t>(e.replica));
  json.kv("payload", e.payload);
  json.end_object();
  out += json.str();
  out += '\n';
}

}  // namespace

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kGenerated: return "generated";
    case FlightKind::kDecoded: return "decoded";
    case FlightKind::kArrival: return "arrival";
    case FlightKind::kFault: return "fault";
    case FlightKind::kEpochTransition: return "epoch_transition";
    case FlightKind::kProbe: return "probe";
    case FlightKind::kProbeMiss: return "probe_miss";
    case FlightKind::kEpochFenced: return "epoch_fenced";
    case FlightKind::kFiltered: return "filtered";
    case FlightKind::kRetry: return "retry";
    case FlightKind::kViewRefresh: return "view_refresh";
    case FlightKind::kDeadline: return "deadline";
    case FlightKind::kQuorumAcquired: return "quorum_acquired";
    case FlightKind::kQuorumFailed: return "quorum_failed";
    case FlightKind::kWriteAck: return "write_ack";
    case FlightKind::kWriteNack: return "write_nack";
    case FlightKind::kStaleRead: return "stale_read";
    case FlightKind::kRetiredRead: return "retired_read";
    case FlightKind::kFabricatedRead: return "fabricated_read";
    case FlightKind::kReadRegression: return "read_regression";
    case FlightKind::kOpDone: return "op_done";
    case FlightKind::kEncoded: return "encoded";
    case FlightKind::kLostWrite: return "lost_write";
    case FlightKind::kViolation: return "violation";
  }
  return "unknown";
}

namespace detail {

void record_flight(FlightKind kind, OpId op, std::uint64_t time_us,
                   std::int32_t replica, std::uint64_t payload) {
  Ring& r = ring();
  if (r.slots.empty()) return;
  if (r.wrapped)
    r.overwritten.store(r.overwritten.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  FlightEvent& e = r.slots[r.next];
  e.run = tl_run;
  e.time_us = time_us;
  e.op = op;
  e.kind = kind;
  e.replica = replica;
  e.payload = payload;
  if (++r.next == r.slots.size()) {
    r.next = 0;
    r.wrapped = true;
  }
  r.recorded.store(r.recorded.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

}  // namespace detail

FlightRunScope::FlightRunScope(std::uint32_t run) : saved_(tl_run) {
  tl_run = run;
}
FlightRunScope::~FlightRunScope() { tl_run = saved_; }
std::uint32_t current_flight_run() { return tl_run; }

ScopedOp::ScopedOp(OpId op) : saved_(tl_op) { tl_op = op; }
ScopedOp::~ScopedOp() { tl_op = saved_; }
OpId current_op() { return tl_op; }

FlightRecorderStats flight_recorder_stats() {
  RingRegistry& reg = registry();
  FlightRecorderStats stats;
  std::lock_guard<std::mutex> lock(reg.mu);
  stats.rings = reg.rings.size();
  stats.dumps = reg.dumps.load(std::memory_order_relaxed);
  for (const Ring* r : reg.rings) {
    stats.recorded += r->recorded.load(std::memory_order_relaxed);
    stats.overwritten += r->overwritten.load(std::memory_order_relaxed);
  }
  return stats;
}

std::vector<FlightEvent> collect_flight_events() {
  RingRegistry& reg = registry();
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const Ring* r : reg.rings) {
      if (r->wrapped)
        out.insert(out.end(), r->slots.begin() + static_cast<long>(r->next),
                   r->slots.end());
      out.insert(out.end(), r->slots.begin(),
                 r->slots.begin() + static_cast<long>(r->next));
    }
  }
  std::stable_sort(out.begin(), out.end(), event_less);
  return out;
}

bool write_flight_recorder(const std::string& path,
                           const std::string& reason) {
  const std::vector<FlightEvent> events = collect_flight_events();
  const FlightRecorderStats stats = flight_recorder_stats();
  std::string out;
  {
    JsonWriter json;
    json.begin_object();
    json.key("flight_recorder").begin_object();
    json.kv("reason", reason);
    json.kv("events", static_cast<std::uint64_t>(events.size()));
    json.kv("recorded", stats.recorded);
    json.kv("overwritten", stats.overwritten);
    json.kv("rings", stats.rings);
    json.end_object();
    json.end_object();
    out += json.str();
    out += '\n';
  }
  for (const FlightEvent& e : events) write_event_jsonl(out, e);
  if (!detail::write_text_file(path, out)) return false;
  registry().dumps.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void reset_flight_recorder() {
  RingRegistry& reg = registry();
  const std::size_t capacity =
      static_cast<std::size_t>(reg.capacity.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(reg.mu);
  for (Ring* r : reg.rings) {
    r->slots.assign(capacity, FlightEvent{});
    r->next = 0;
    r->wrapped = false;
    r->recorded.store(0, std::memory_order_relaxed);
    r->overwritten.store(0, std::memory_order_relaxed);
  }
  reg.dumps.store(0, std::memory_order_relaxed);
}

namespace detail {

void set_flight_capacity(std::uint64_t capacity) {
  if (capacity == 0) capacity = kDefaultRingCapacity;
  registry().capacity.store(capacity, std::memory_order_relaxed);
}

bool write_text_file(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[obs] cannot open %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const std::size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool wrote = written == contents.size();
  if (!wrote)
    std::fprintf(stderr, "[obs] short write to %s: %s\n", path.c_str(),
                 std::strerror(errno));
  const bool closed = std::fclose(f) == 0;
  if (!closed)
    std::fprintf(stderr, "[obs] cannot close %s: %s\n", path.c_str(),
                 std::strerror(errno));
  return wrote && closed;
}

}  // namespace detail

}  // namespace obs
}  // namespace sqs
