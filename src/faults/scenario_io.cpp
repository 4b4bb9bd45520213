#include "faults/scenario_io.h"

#include <cstdio>
#include <initializer_list>
#include <string>

#include "obs/recorder.h"
#include "util/json.h"

namespace sqs {

namespace {

constexpr const char* kSchema = "sqs-chaos-scenario-v1";

constexpr FaultEvent::Kind kFaultKinds[] = {
    FaultEvent::Kind::kServerCrash,    FaultEvent::Kind::kServerPin,
    FaultEvent::Kind::kGrayServer,     FaultEvent::Kind::kLinkDown,
    FaultEvent::Kind::kClientPartition, FaultEvent::Kind::kServerPartition,
    FaultEvent::Kind::kLatencyBurst,   FaultEvent::Kind::kLossBurst,
    FaultEvent::Kind::kLieWrongValue,  FaultEvent::Kind::kLieStaleTs,
    FaultEvent::Kind::kLieEquivocate,  FaultEvent::Kind::kLieFabricateAck,
};

constexpr ChurnEvent::Kind kChurnKinds[] = {
    ChurnEvent::Kind::kJoin,
    ChurnEvent::Kind::kLeave,
    ChurnEvent::Kind::kReplace,
    ChurnEvent::Kind::kResize,
};

// --- error plumbing: every failure points at a line:col ---------------------

bool fail(const JsonValue& v, const std::string& msg, std::string* error) {
  char pos[32];
  std::snprintf(pos, sizeof pos, "%d:%d: ", v.line, v.col);
  *error = pos + msg;
  return false;
}

// Rejects members outside the schema, so a typo'd key is an error rather
// than a silently ignored knob.
bool check_keys(const JsonValue& obj,
                std::initializer_list<const char*> keys, std::string* error) {
  for (const auto& member : obj.members) {
    bool known = false;
    for (const char* k : keys)
      if (member.first == k) {
        known = true;
        break;
      }
    if (!known)
      return fail(member.second, "unknown key \"" + member.first + "\"",
                  error);
  }
  return true;
}

bool get_field(const JsonValue& obj, const char* key, const JsonValue** out,
               std::string* error) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr)
    return fail(obj, std::string("missing key \"") + key + "\"", error);
  *out = v;
  return true;
}

bool get_object(const JsonValue& obj, const char* key, const JsonValue** out,
                std::string* error) {
  if (!get_field(obj, key, out, error)) return false;
  if (!(*out)->is_object())
    return fail(**out, std::string("key \"") + key + "\" must be an object, got " +
                           (*out)->kind_name(),
                error);
  return true;
}

bool get_array(const JsonValue& obj, const char* key, const JsonValue** out,
               std::string* error) {
  if (!get_field(obj, key, out, error)) return false;
  if (!(*out)->is_array())
    return fail(**out, std::string("key \"") + key + "\" must be an array, got " +
                           (*out)->kind_name(),
                error);
  return true;
}

bool get_string(const JsonValue& obj, const char* key, std::string* out,
                std::string* error) {
  const JsonValue* v;
  if (!get_field(obj, key, &v, error)) return false;
  if (!v->is_string())
    return fail(*v, std::string("key \"") + key + "\" must be a string, got " +
                        v->kind_name(),
                error);
  *out = v->string;
  return true;
}

bool get_double(const JsonValue& obj, const char* key, double* out,
                std::string* error) {
  const JsonValue* v;
  if (!get_field(obj, key, &v, error)) return false;
  if (!v->is_number())
    return fail(*v, std::string("key \"") + key + "\" must be a number, got " +
                        v->kind_name(),
                error);
  *out = v->number;
  return true;
}

bool get_int(const JsonValue& obj, const char* key, int* out,
             std::string* error) {
  const JsonValue* v;
  if (!get_field(obj, key, &v, error)) return false;
  if (!v->is_number() || !v->as_int(out))
    return fail(*v, std::string("key \"") + key + "\" must be an integer, got " +
                        (v->is_number() ? v->number_raw : v->kind_name()),
                error);
  return true;
}

bool get_u64(const JsonValue& obj, const char* key, std::uint64_t* out,
             std::string* error) {
  const JsonValue* v;
  if (!get_field(obj, key, &v, error)) return false;
  if (!v->is_number() || !v->as_u64(out))
    return fail(*v, std::string("key \"") + key +
                        "\" must be an unsigned integer, got " +
                        (v->is_number() ? v->number_raw : v->kind_name()),
                error);
  return true;
}

bool get_bool(const JsonValue& obj, const char* key, bool* out,
              std::string* error) {
  const JsonValue* v;
  if (!get_field(obj, key, &v, error)) return false;
  if (!v->is_bool())
    return fail(*v, std::string("key \"") + key + "\" must be a boolean, got " +
                        v->kind_name(),
                error);
  *out = v->boolean;
  return true;
}

// --- serialization (fixed key order: this order IS the byte contract) -------

void write_family(JsonWriter& json, const FamilySpec& f) {
  json.key("family").begin_object();
  json.kv("kind", f.kind);
  json.kv("n", f.n);
  json.kv("alpha", f.alpha);
  json.kv("b", f.b);
  json.kv("k", f.k);
  json.kv("l", f.l);
  json.kv("pqs_l", f.pqs_l);
  json.kv("depth", f.depth);
  json.kv("q", f.q);
  json.kv("w", f.w);
  json.kv("side", f.side);
  json.end_object();
}

void write_config(JsonWriter& json, const RegisterExperimentConfig& c) {
  json.key("config").begin_object();
  json.kv("num_clients", c.num_clients);
  json.kv("duration", c.duration);
  json.kv("think_time", c.think_time);
  json.kv("read_fraction", c.read_fraction);
  json.kv("partition_rate", c.partition_rate);
  json.kv("partition_fraction", c.partition_fraction);
  json.kv("partition_duration", c.partition_duration);
  json.kv("seed", c.seed);
  json.key("network").begin_object();
  json.kv("base_latency", c.network.base_latency);
  json.kv("jitter_mean", c.network.jitter_mean);
  json.kv("link_mean_up", c.network.link_mean_up);
  json.kv("link_mean_down", c.network.link_mean_down);
  json.end_object();
  json.key("server").begin_object();
  json.kv("mean_up", c.server.mean_up);
  json.kv("mean_down", c.server.mean_down);
  json.kv("service_time", c.server.service_time);
  json.kv("amnesia_on_recovery", c.server.amnesia_on_recovery);
  json.kv("serve_while_retired", c.server.serve_while_retired);
  json.end_object();
  json.key("client").begin_object();
  json.kv("probe_timeout", c.client.probe_timeout);
  json.kv("use_partition_filter", c.client.use_partition_filter);
  json.kv("read_repair", c.client.read_repair);
  json.kv("lie_tolerance", c.client.policy.lie_tolerance);
  json.kv("max_attempts", c.client.max_attempts);
  json.kv("backoff_base", c.client.backoff_base);
  json.kv("backoff_jitter", c.client.backoff_jitter);
  json.kv("adaptive_timeout", c.client.adaptive_timeout);
  json.kv("ewma_gain", c.client.ewma_gain);
  json.kv("timeout_multiplier", c.client.timeout_multiplier);
  json.kv("min_probe_timeout", c.client.min_probe_timeout);
  json.kv("max_probe_timeout", c.client.max_probe_timeout);
  json.kv("op_deadline", c.client.op_deadline);
  json.kv("refresh_views", c.client.policy.refresh_views);
  json.kv("view_fetch_delay", c.client.policy.view_fetch_delay);
  json.kv("max_view_fetches", c.client.policy.max_view_fetches);
  json.end_object();
  json.end_object();
}

void write_faults(JsonWriter& json, const FaultPlan& plan) {
  json.key("faults").begin_array();
  for (const FaultEvent& ev : plan.events) {
    json.begin_object();
    json.kv("kind", fault_kind_name(ev.kind));
    json.kv("at", ev.at);
    json.kv("duration", ev.duration);
    json.kv("server", ev.server);
    json.kv("client", ev.client);
    json.kv("magnitude", ev.magnitude);
    json.end_object();
  }
  json.end_array();
}

void write_churn(JsonWriter& json, const ChurnPlan& plan) {
  json.key("churn").begin_array();
  for (const ChurnEvent& ev : plan.events) {
    json.begin_object();
    json.kv("kind", churn_kind_name(ev.kind));
    json.kv("at", ev.at);
    json.kv("server", ev.server);
    json.kv("count", ev.count);
    json.end_object();
  }
  json.end_array();
}

void write_invariants(JsonWriter& json, const ChaosInvariants& inv) {
  json.key("invariants").begin_object();
  json.kv("availability_floor", inv.availability_floor);
  json.kv("stale_envelope", inv.stale_envelope);
  json.kv("expect_ts_regressions", inv.expect_ts_regressions);
  json.kv("allow_lost_writes", inv.allow_lost_writes);
  json.kv("require_view_convergence", inv.require_view_convergence);
  json.kv("check_cross_epoch", inv.check_cross_epoch);
  json.kv("max_cross_epoch_nonintersection",
          inv.max_cross_epoch_nonintersection);
  json.end_object();
}

// --- parsing ----------------------------------------------------------------

bool parse_family(const JsonValue& v, FamilySpec* out, std::string* error) {
  if (!check_keys(v, {"kind", "n", "alpha", "b", "k", "l", "pqs_l", "depth",
                      "q", "w", "side"},
                  error))
    return false;
  return get_string(v, "kind", &out->kind, error) &&
         get_int(v, "n", &out->n, error) &&
         get_int(v, "alpha", &out->alpha, error) &&
         get_int(v, "b", &out->b, error) && get_int(v, "k", &out->k, error) &&
         get_int(v, "l", &out->l, error) &&
         get_double(v, "pqs_l", &out->pqs_l, error) &&
         get_int(v, "depth", &out->depth, error) &&
         get_int(v, "q", &out->q, error) && get_int(v, "w", &out->w, error) &&
         get_int(v, "side", &out->side, error);
}

bool parse_config(const JsonValue& v, RegisterExperimentConfig* out,
                  std::string* error) {
  if (!check_keys(v, {"num_clients", "duration", "think_time", "read_fraction",
                      "partition_rate", "partition_fraction",
                      "partition_duration", "seed", "network", "server",
                      "client"},
                  error))
    return false;
  if (!(get_int(v, "num_clients", &out->num_clients, error) &&
        get_double(v, "duration", &out->duration, error) &&
        get_double(v, "think_time", &out->think_time, error) &&
        get_double(v, "read_fraction", &out->read_fraction, error) &&
        get_double(v, "partition_rate", &out->partition_rate, error) &&
        get_double(v, "partition_fraction", &out->partition_fraction, error) &&
        get_double(v, "partition_duration", &out->partition_duration, error) &&
        get_u64(v, "seed", &out->seed, error)))
    return false;
  const JsonValue* net;
  if (!get_object(v, "network", &net, error)) return false;
  if (!check_keys(*net,
                  {"base_latency", "jitter_mean", "link_mean_up",
                   "link_mean_down"},
                  error))
    return false;
  if (!(get_double(*net, "base_latency", &out->network.base_latency, error) &&
        get_double(*net, "jitter_mean", &out->network.jitter_mean, error) &&
        get_double(*net, "link_mean_up", &out->network.link_mean_up, error) &&
        get_double(*net, "link_mean_down", &out->network.link_mean_down,
                   error)))
    return false;
  const JsonValue* srv;
  if (!get_object(v, "server", &srv, error)) return false;
  if (!check_keys(*srv,
                  {"mean_up", "mean_down", "service_time",
                   "amnesia_on_recovery", "serve_while_retired"},
                  error))
    return false;
  if (!(get_double(*srv, "mean_up", &out->server.mean_up, error) &&
        get_double(*srv, "mean_down", &out->server.mean_down, error) &&
        get_double(*srv, "service_time", &out->server.service_time, error) &&
        get_bool(*srv, "amnesia_on_recovery", &out->server.amnesia_on_recovery,
                 error) &&
        get_bool(*srv, "serve_while_retired", &out->server.serve_while_retired,
                 error)))
    return false;
  const JsonValue* cli;
  if (!get_object(v, "client", &cli, error)) return false;
  if (!check_keys(*cli,
                  {"probe_timeout", "use_partition_filter", "read_repair",
                   "lie_tolerance", "max_attempts", "backoff_base",
                   "backoff_jitter", "adaptive_timeout", "ewma_gain",
                   "timeout_multiplier", "min_probe_timeout",
                   "max_probe_timeout", "op_deadline", "refresh_views",
                   "view_fetch_delay", "max_view_fetches"},
                  error))
    return false;
  ClientConfig& c = out->client;
  return get_double(*cli, "probe_timeout", &c.probe_timeout, error) &&
         get_bool(*cli, "use_partition_filter", &c.use_partition_filter,
                  error) &&
         get_bool(*cli, "read_repair", &c.read_repair, error) &&
         get_int(*cli, "lie_tolerance", &c.policy.lie_tolerance, error) &&
         get_int(*cli, "max_attempts", &c.max_attempts, error) &&
         get_double(*cli, "backoff_base", &c.backoff_base, error) &&
         get_double(*cli, "backoff_jitter", &c.backoff_jitter, error) &&
         get_bool(*cli, "adaptive_timeout", &c.adaptive_timeout, error) &&
         get_double(*cli, "ewma_gain", &c.ewma_gain, error) &&
         get_double(*cli, "timeout_multiplier", &c.timeout_multiplier,
                    error) &&
         get_double(*cli, "min_probe_timeout", &c.min_probe_timeout, error) &&
         get_double(*cli, "max_probe_timeout", &c.max_probe_timeout, error) &&
         get_double(*cli, "op_deadline", &c.op_deadline, error) &&
         get_bool(*cli, "refresh_views", &c.policy.refresh_views, error) &&
         get_double(*cli, "view_fetch_delay", &c.policy.view_fetch_delay,
                    error) &&
         get_int(*cli, "max_view_fetches", &c.policy.max_view_fetches,
                 error);
}

bool parse_faults(const JsonValue& v, FaultPlan* out, std::string* error) {
  out->events.clear();
  for (const JsonValue& item : v.items) {
    if (!item.is_object())
      return fail(item, std::string("fault event must be an object, got ") +
                            item.kind_name(),
                  error);
    if (!check_keys(item,
                    {"kind", "at", "duration", "server", "client",
                     "magnitude"},
                    error))
      return false;
    FaultEvent ev;
    std::string kind;
    if (!(get_string(item, "kind", &kind, error) &&
          get_double(item, "at", &ev.at, error) &&
          get_double(item, "duration", &ev.duration, error) &&
          get_int(item, "server", &ev.server, error) &&
          get_int(item, "client", &ev.client, error) &&
          get_double(item, "magnitude", &ev.magnitude, error)))
      return false;
    bool known = false;
    for (FaultEvent::Kind k : kFaultKinds)
      if (kind == fault_kind_name(k)) {
        ev.kind = k;
        known = true;
        break;
      }
    if (!known)
      return fail(*item.find("kind"), "unknown fault kind \"" + kind + "\"",
                  error);
    if (!(ev.at >= 0.0))
      return fail(*item.find("at"), "fault time must be >= 0", error);
    if (!(ev.duration >= 0.0))
      return fail(*item.find("duration"), "fault duration must be >= 0",
                  error);
    out->events.push_back(ev);
  }
  return true;
}

bool parse_churn(const JsonValue& v, ChurnPlan* out, std::string* error) {
  out->events.clear();
  for (const JsonValue& item : v.items) {
    if (!item.is_object())
      return fail(item, std::string("churn event must be an object, got ") +
                            item.kind_name(),
                  error);
    if (!check_keys(item, {"kind", "at", "server", "count"}, error))
      return false;
    ChurnEvent ev;
    std::string kind;
    if (!(get_string(item, "kind", &kind, error) &&
          get_double(item, "at", &ev.at, error) &&
          get_int(item, "server", &ev.server, error) &&
          get_int(item, "count", &ev.count, error)))
      return false;
    bool known = false;
    for (ChurnEvent::Kind k : kChurnKinds)
      if (kind == churn_kind_name(k)) {
        ev.kind = k;
        known = true;
        break;
      }
    if (!known)
      return fail(*item.find("kind"), "unknown churn kind \"" + kind + "\"",
                  error);
    // Epoch 0 starts at t=0; a boundary at or before it cannot exist.
    if (!(ev.at > 0.0))
      return fail(*item.find("at"), "churn event time must be > 0", error);
    if (ev.count < 1)
      return fail(*item.find("count"), "churn event count must be >= 1",
                  error);
    if ((ev.kind == ChurnEvent::Kind::kLeave ||
         ev.kind == ChurnEvent::Kind::kReplace) &&
        ev.server < 0)
      return fail(*item.find("server"),
                  "leave/replace needs a logical server id >= 0", error);
    out->events.push_back(ev);
  }
  return true;
}

bool parse_invariants(const JsonValue& v, ChaosInvariants* out,
                      std::string* error) {
  if (!check_keys(v,
                  {"availability_floor", "stale_envelope",
                   "expect_ts_regressions", "allow_lost_writes",
                   "require_view_convergence", "check_cross_epoch",
                   "max_cross_epoch_nonintersection"},
                  error))
    return false;
  return get_double(v, "availability_floor", &out->availability_floor,
                    error) &&
         get_double(v, "stale_envelope", &out->stale_envelope, error) &&
         get_bool(v, "expect_ts_regressions", &out->expect_ts_regressions,
                  error) &&
         get_bool(v, "allow_lost_writes", &out->allow_lost_writes, error) &&
         get_bool(v, "require_view_convergence",
                  &out->require_view_convergence, error) &&
         get_bool(v, "check_cross_epoch", &out->check_cross_epoch, error) &&
         get_double(v, "max_cross_epoch_nonintersection",
                    &out->max_cross_epoch_nonintersection, error);
}

}  // namespace

std::string serialize_chaos_scenario(const ChaosScenario& scenario) {
  JsonWriter json;
  json.begin_object();
  json.kv("schema", kSchema);
  json.kv("name", scenario.name);
  json.kv("description", scenario.description);
  write_family(json, scenario.family);
  write_config(json, scenario.config);
  write_faults(json, scenario.plan);
  write_churn(json, scenario.churn);
  write_invariants(json, scenario.invariants);
  json.end_object();
  return json.str() + "\n";
}

bool parse_chaos_scenario(const JsonValue& root, ChaosScenario* out,
                          std::string* error) {
  if (!root.is_object())
    return fail(root, std::string("scenario must be an object, got ") +
                          root.kind_name(),
                error);
  if (!check_keys(root,
                  {"schema", "name", "description", "family", "config",
                   "faults", "churn", "invariants"},
                  error))
    return false;
  std::string schema;
  if (!get_string(root, "schema", &schema, error)) return false;
  if (schema != kSchema)
    return fail(*root.find("schema"),
                "unsupported schema \"" + schema + "\" (want \"" + kSchema +
                    "\")",
                error);
  *out = ChaosScenario{};
  if (!(get_string(root, "name", &out->name, error) &&
        get_string(root, "description", &out->description, error)))
    return false;
  const JsonValue* v;
  if (!get_object(root, "family", &v, error) ||
      !parse_family(*v, &out->family, error))
    return false;
  if (!get_object(root, "config", &v, error) ||
      !parse_config(*v, &out->config, error))
    return false;
  if (!get_array(root, "faults", &v, error) ||
      !parse_faults(*v, &out->plan, error))
    return false;
  if (!get_array(root, "churn", &v, error) ||
      !parse_churn(*v, &out->churn, error))
    return false;
  if (!get_object(root, "invariants", &v, error) ||
      !parse_invariants(*v, &out->invariants, error))
    return false;
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
  if (a.name != b.name || a.description != b.description) return false;
  if (a.family != b.family) return false;
  const RegisterExperimentConfig& x = a.config;
  const RegisterExperimentConfig& y = b.config;
  if (x.num_clients != y.num_clients || x.duration != y.duration ||
      x.think_time != y.think_time || x.read_fraction != y.read_fraction ||
      x.partition_rate != y.partition_rate ||
      x.partition_fraction != y.partition_fraction ||
      x.partition_duration != y.partition_duration || x.seed != y.seed)
    return false;
  if (x.network.base_latency != y.network.base_latency ||
      x.network.jitter_mean != y.network.jitter_mean ||
      x.network.link_mean_up != y.network.link_mean_up ||
      x.network.link_mean_down != y.network.link_mean_down)
    return false;
  if (x.server.mean_up != y.server.mean_up ||
      x.server.mean_down != y.server.mean_down ||
      x.server.service_time != y.server.service_time ||
      x.server.amnesia_on_recovery != y.server.amnesia_on_recovery ||
      x.server.serve_while_retired != y.server.serve_while_retired)
    return false;
  if (!(x.client == y.client)) return false;
  if (a.plan.events.size() != b.plan.events.size()) return false;
  for (std::size_t i = 0; i < a.plan.events.size(); ++i) {
    const FaultEvent& e = a.plan.events[i];
    const FaultEvent& f = b.plan.events[i];
    if (e.kind != f.kind || e.at != f.at || e.duration != f.duration ||
        e.server != f.server || e.client != f.client ||
        e.magnitude != f.magnitude)
      return false;
  }
  if (a.churn.events.size() != b.churn.events.size()) return false;
  for (std::size_t i = 0; i < a.churn.events.size(); ++i) {
    const ChurnEvent& e = a.churn.events[i];
    const ChurnEvent& f = b.churn.events[i];
    if (e.kind != f.kind || e.at != f.at || e.server != f.server ||
        e.count != f.count)
      return false;
  }
  const ChaosInvariants& m = a.invariants;
  const ChaosInvariants& n = b.invariants;
  return m.availability_floor == n.availability_floor &&
         m.stale_envelope == n.stale_envelope &&
         m.expect_ts_regressions == n.expect_ts_regressions &&
         m.allow_lost_writes == n.allow_lost_writes &&
         m.require_view_convergence == n.require_view_convergence &&
         m.check_cross_epoch == n.check_cross_epoch &&
         m.max_cross_epoch_nonintersection ==
             n.max_cross_epoch_nonintersection;
}

}  // namespace sqs
