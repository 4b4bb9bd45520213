#include "faults/scenario_io.h"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <string>
#include <type_traits>

#include "obs/recorder.h"
#include "util/json.h"

namespace sqs {

namespace {

constexpr const char* kSchemaKey = "schema";
constexpr const char* kSchema = "sqs-chaos-scenario-v1";

// --- field tables -----------------------------------------------------------
// One table per serialized struct, each line pairing a key with a member.
// The line order is the key order of the written file: this order IS the
// byte contract. The writer, the reader, the unknown-key check and
// scenario_equal all walk these tables. `f(key, s.member...)` receives that
// member of every object passed (one to write or read, two to compare) and
// returns false to stop the walk.

template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

template <class F, Of<FamilySpec>... S>
bool for_each_field(F&& f, S&... s) {
  return f("kind", s.kind...) && f("n", s.n...) && f("alpha", s.alpha...) &&
         f("b", s.b...) && f("k", s.k...) && f("l", s.l...) &&
         f("pqs_l", s.pqs_l...) && f("depth", s.depth...) &&
         f("q", s.q...) && f("w", s.w...) && f("side", s.side...);
}

template <class F, Of<NetworkConfig>... S>
bool for_each_field(F&& f, S&... s) {
  return f("base_latency", s.base_latency...) &&
         f("jitter_mean", s.jitter_mean...) &&
         f("link_mean_up", s.link_mean_up...) &&
         f("link_mean_down", s.link_mean_down...);
}

template <class F, Of<ServerConfig>... S>
bool for_each_field(F&& f, S&... s) {
  return f("mean_up", s.mean_up...) && f("mean_down", s.mean_down...) &&
         f("service_time", s.service_time...) &&
         f("amnesia_on_recovery", s.amnesia_on_recovery...) &&
         f("serve_while_retired", s.serve_while_retired...);
}

// The RegisterPolicy knobs sit flat among the client's own keys.
template <class F, Of<ClientConfig>... S>
bool for_each_field(F&& f, S&... s) {
  return f("probe_timeout", s.probe_timeout...) &&
         f("use_partition_filter", s.use_partition_filter...) &&
         f("read_repair", s.read_repair...) &&
         f("lie_tolerance", s.policy.lie_tolerance...) &&
         f("max_attempts", s.max_attempts...) &&
         f("backoff_base", s.backoff_base...) &&
         f("backoff_jitter", s.backoff_jitter...) &&
         f("adaptive_timeout", s.adaptive_timeout...) &&
         f("ewma_gain", s.ewma_gain...) &&
         f("timeout_multiplier", s.timeout_multiplier...) &&
         f("min_probe_timeout", s.min_probe_timeout...) &&
         f("max_probe_timeout", s.max_probe_timeout...) &&
         f("op_deadline", s.op_deadline...) &&
         f("refresh_views", s.policy.refresh_views...) &&
         f("view_fetch_delay", s.policy.view_fetch_delay...) &&
         f("max_view_fetches", s.policy.max_view_fetches...);
}

// Not serialized here: plan (written under the document's top-level
// "faults" key, see the ChaosScenario table) and epochs (derived from the
// churn plan at run time).
template <class F, Of<RegisterExperimentConfig>... S>
bool for_each_field(F&& f, S&... s) {
  return f("num_clients", s.num_clients...) && f("duration", s.duration...) &&
         f("think_time", s.think_time...) &&
         f("read_fraction", s.read_fraction...) &&
         f("partition_rate", s.partition_rate...) &&
         f("partition_fraction", s.partition_fraction...) &&
         f("partition_duration", s.partition_duration...) &&
         f("seed", s.seed...) && f("network", s.network...) &&
         f("server", s.server...) && f("client", s.client...);
}

template <class F, Of<FaultEvent>... S>
bool for_each_field(F&& f, S&... s) {
  return f("kind", s.kind...) && f("at", s.at...) &&
         f("duration", s.duration...) && f("server", s.server...) &&
         f("client", s.client...) && f("magnitude", s.magnitude...);
}

template <class F, Of<ChurnEvent>... S>
bool for_each_field(F&& f, S&... s) {
  return f("kind", s.kind...) && f("at", s.at...) && f("server", s.server...) &&
         f("count", s.count...);
}

template <class F, Of<ChaosInvariants>... S>
bool for_each_field(F&& f, S&... s) {
  return f("availability_floor", s.availability_floor...) &&
         f("stale_envelope", s.stale_envelope...) &&
         f("expect_ts_regressions", s.expect_ts_regressions...) &&
         f("allow_lost_writes", s.allow_lost_writes...) &&
         f("require_view_convergence", s.require_view_convergence...) &&
         f("check_cross_epoch", s.check_cross_epoch...) &&
         f("max_cross_epoch_nonintersection",
           s.max_cross_epoch_nonintersection...);
}

// The document root, after its schema tag.
template <class F, Of<ChaosScenario>... S>
bool for_each_field(F&& f, S&... s) {
  return f("name", s.name...) && f("description", s.description...) &&
         f("family", s.family...) && f("config", s.config...) &&
         f("faults", s.config.plan.events...) &&
         f("churn", s.churn.events...) && f("invariants", s.invariants...);
}

template <class T>
concept HasFields = requires(T& t) {
  for_each_field([](const char*, auto&) { return true; }, t);
};

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

// --- serialization ----------------------------------------------------------

template <class T>
void write_value(JsonWriter& json, const T& v);

template <class T>
void write_fields(JsonWriter& json, const T& obj) {
  for_each_field(
      [&](const char* key, const auto& field) {
        json.key(key);
        write_value(json, field);
        return true;
      },
      obj);
}

template <class T>
void write_value(JsonWriter& json, const T& v) {
  if constexpr (HasFields<T>) {
    json.begin_object();
    write_fields(json, v);
    json.end_object();
  } else if constexpr (kIsVector<T>) {
    json.begin_array();
    for (const auto& item : v) write_value(json, item);
    json.end_array();
  } else if constexpr (std::is_same_v<T, FaultEvent::Kind>) {
    json.value(fault_kind_name(v));
  } else if constexpr (std::is_same_v<T, ChurnEvent::Kind>) {
    json.value(churn_kind_name(v));
  } else {
    json.value(v);
  }
}

// --- parsing: every failure points at a line:col ----------------------------

bool fail(const JsonValue& v, const std::string& msg, std::string* error) {
  char pos[32];
  std::snprintf(pos, sizeof pos, "%d:%d: ", v.line, v.col);
  *error = pos + msg;
  return false;
}

// `got` names what the value was instead: its JSON kind, or the lexeme of a
// number that is not the integer a field wants.
bool type_error(const JsonValue& v, const char* key, const char* want,
                const std::string& got, std::string* error) {
  return fail(v, std::string("key \"") + key + "\" must be " + want +
                     ", got " + got,
              error);
}

// Rejects members outside the table (and `extra`), so a typo'd key is an
// error rather than a silently ignored knob.
template <class T>
bool check_keys(const JsonValue& obj, const T& table_of, std::string* error,
                const char* extra = nullptr) {
  for (const auto& [name, value] : obj.members) {
    bool known = extra != nullptr && name == extra;
    for_each_field(
        [&](const char* key, const auto&) {
          known = known || name == key;
          return !known;
        },
        table_of);
    if (!known) return fail(value, "unknown key \"" + name + "\"", error);
  }
  return true;
}

template <class T>
bool read_fields(const JsonValue& obj, T* out, std::string* error);

// One read_value overload per member type, chosen by the table's member.
bool read_value(const JsonValue& v, const char* key, std::string* out,
                std::string* error) {
  if (!v.is_string())
    return type_error(v, key, "a string", v.kind_name(), error);
  *out = v.string;
  return true;
}

bool read_value(const JsonValue& v, const char* key, double* out,
                std::string* error) {
  if (!v.is_number())
    return type_error(v, key, "a number", v.kind_name(), error);
  *out = v.number;
  return true;
}

bool read_value(const JsonValue& v, const char* key, int* out,
                std::string* error) {
  if (!v.is_number() || !v.as_int(out))
    return type_error(v, key, "an integer",
                      v.is_number() ? v.number_raw : v.kind_name(), error);
  return true;
}

bool read_value(const JsonValue& v, const char* key, std::uint64_t* out,
                std::string* error) {
  if (!v.is_number() || !v.as_u64(out))
    return type_error(v, key, "an unsigned integer",
                      v.is_number() ? v.number_raw : v.kind_name(), error);
  return true;
}

bool read_value(const JsonValue& v, const char* key, bool* out,
                std::string* error) {
  if (!v.is_bool())
    return type_error(v, key, "a boolean", v.kind_name(), error);
  *out = v.boolean;
  return true;
}

// An enum member, spelled through its {kind, name} table.
template <class Kind, std::size_t N>
bool read_kind(const JsonValue& v, const char* key,
               const std::pair<Kind, const char*> (&names)[N],
               const char* noun, Kind* out, std::string* error) {
  std::string name;
  if (!read_value(v, key, &name, error)) return false;
  for (const auto& [kind, spelled] : names)
    if (name == spelled) {
      *out = kind;
      return true;
    }
  return fail(v, std::string("unknown ") + noun + " kind \"" + name + "\"",
              error);
}

bool read_value(const JsonValue& v, const char* key, FaultEvent::Kind* out,
                std::string* error) {
  return read_kind(v, key, kFaultKindNames, "fault", out, error);
}

bool read_value(const JsonValue& v, const char* key, ChurnEvent::Kind* out,
                std::string* error) {
  return read_kind(v, key, kChurnKindNames, "churn", out, error);
}

template <HasFields T>
bool read_value(const JsonValue& v, const char* key, T* out,
                std::string* error) {
  if (!v.is_object())
    return type_error(v, key, "an object", v.kind_name(), error);
  return check_keys(v, *out, error) && read_fields(v, out, error);
}

// Event arrays: each item is read through its table, then held to the
// range checks its types cannot express (they guard outside input).
const char* noun(const FaultEvent&) { return "fault"; }
const char* noun(const ChurnEvent&) { return "churn"; }

bool check_event(const JsonValue& item, const FaultEvent& ev,
                 std::string* error) {
  if (!(ev.at >= 0.0))
    return fail(*item.find("at"), "fault time must be >= 0", error);
  if (!(ev.duration >= 0.0))
    return fail(*item.find("duration"), "fault duration must be >= 0", error);
  return true;
}

bool check_event(const JsonValue& item, const ChurnEvent& ev,
                 std::string* error) {
  // Epoch 0 starts at t=0; a boundary at or before it cannot exist.
  if (!(ev.at > 0.0))
    return fail(*item.find("at"), "churn event time must be > 0", error);
  if (ev.count < 1)
    return fail(*item.find("count"), "churn event count must be >= 1", error);
  if ((ev.kind == ChurnEvent::Kind::kLeave ||
       ev.kind == ChurnEvent::Kind::kReplace) &&
      ev.server < 0)
    return fail(*item.find("server"),
                "leave/replace needs a logical server id >= 0", error);
  return true;
}

template <class Event>
bool read_value(const JsonValue& v, const char* key, std::vector<Event>* out,
                std::string* error) {
  if (!v.is_array())
    return type_error(v, key, "an array", v.kind_name(), error);
  out->clear();
  for (const JsonValue& item : v.items) {
    Event ev{};
    if (!item.is_object())
      return fail(item,
                  std::string(noun(ev)) + " event must be an object, got " +
                      item.kind_name(),
                  error);
    if (!check_keys(item, ev, error) || !read_fields(item, &ev, error) ||
        !check_event(item, ev, error))
      return false;
    out->push_back(ev);
  }
  return true;
}

template <class T>
bool read_field(const JsonValue& obj, const char* key, T* out,
                std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr)
    return fail(obj, std::string("missing key \"") + key + "\"", error);
  return read_value(*v, key, out, error);
}

template <class T>
bool read_fields(const JsonValue& obj, T* out, std::string* error) {
  return for_each_field(
      [&](const char* key, auto& field) {
        return read_field(obj, key, &field, error);
      },
      *out);
}

// --- equality ---------------------------------------------------------------

template <class T>
bool same(const T& a, const T& b) {
  if constexpr (HasFields<T>) {
    return for_each_field(
        [](const char*, const auto& x, const auto& y) { return same(x, y); },
        a, b);
  } else if constexpr (kIsVector<T>) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto& x, const auto& y) { return same(x, y); });
  } else {
    return a == b;
  }
}

}  // namespace

std::string serialize_chaos_scenario(const ChaosScenario& scenario) {
  JsonWriter json;
  json.begin_object();
  json.kv(kSchemaKey, kSchema);
  write_fields(json, scenario);
  json.end_object();
  return json.str() + "\n";
}

bool parse_chaos_scenario(const JsonValue& root, ChaosScenario* out,
                          std::string* error) {
  if (!root.is_object())
    return fail(root, std::string("scenario must be an object, got ") +
                          root.kind_name(),
                error);
  *out = ChaosScenario{};
  if (!check_keys(root, *out, error, kSchemaKey)) return false;
  std::string schema;
  if (!read_field(root, kSchemaKey, &schema, error)) return false;
  if (schema != kSchema)
    return fail(*root.find(kSchemaKey),
                "unsupported schema \"" + schema + "\" (want \"" + kSchema +
                    "\")",
                error);
  if (!read_fields(root, out, error)) return false;
  // Churn needs a family it can re-instantiate at each epoch's size.
  if (!out->churn.empty() && out->family.empty())
    return fail(root, "churn plan requires a non-empty family spec", error);
  return true;
}

bool load_chaos_scenario(const std::string& path, ChaosScenario* out,
                         std::string* error) {
  JsonValue root;
  if (!load_json_file(path, &root, error)) return false;  // "path:...: msg"
  std::string detail;
  if (!parse_chaos_scenario(root, out, &detail)) {
    *error = path + ":" + detail;
    return false;
  }
  return true;
}

bool write_chaos_scenario(const ChaosScenario& scenario,
                          const std::string& path) {
  return obs::detail::write_text_file(path,
                                      serialize_chaos_scenario(scenario));
}

bool scenario_equal(const ChaosScenario& a, const ChaosScenario& b) {
  return same(a, b);
}

}  // namespace sqs
