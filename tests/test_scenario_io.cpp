// Scenario files (src/faults/scenario_io): byte-for-byte round trips for
// the whole builtin grid, the checked-in scenarios/ files as the canonical
// dump, a per-field round trip, file-based load with path:line:col errors,
// and malformed-input hardening — truncated documents, duplicate keys, wrong
// types, unknown keys, bad enum values, and out-of-range fields are all
// rejected loudly with the position of the offending value, and seeded
// mutation fuzzing over every checked-in file.

#include "faults/scenario_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "faults/chaos.h"
#include "faults/family_spec.h"
#include "util/json_reader.h"
#include "util/rng.h"

namespace sqs {
namespace {

FamilySpec majority12() {
  FamilySpec spec;
  spec.kind = "majority";
  spec.n = 12;
  spec.alpha = 2;
  return spec;
}

// Serialize -> parse -> re-serialize must reproduce the exact bytes, and the
// parsed scenario must compare equal field by field.
void expect_round_trip(const ChaosScenario& scenario) {
  const std::string text = serialize_chaos_scenario(scenario);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  const JsonParseResult parsed = parse_json(text);
  ASSERT_TRUE(parsed.ok) << scenario.name << ": " << parsed.error;
  ChaosScenario loaded;
  std::string error;
  ASSERT_TRUE(parse_chaos_scenario(parsed.value, &loaded, &error))
      << scenario.name << ": " << error;
  EXPECT_TRUE(scenario_equal(scenario, loaded)) << scenario.name;
  EXPECT_EQ(serialize_chaos_scenario(loaded), text) << scenario.name;
}

TEST(ScenarioLoad, BuiltinGridRoundTripsByteForByte) {
  const FamilySpec spec = majority12();
  std::vector<ChaosScenario> scenarios = builtin_chaos_scenarios(spec);
  ASSERT_GE(scenarios.size(), 7u);
  scenarios.push_back(stale_view_chaos_scenario(spec));
  for (const ChaosScenario& scenario : scenarios) {
    ASSERT_FALSE(scenario.family.empty()) << scenario.name;
    expect_round_trip(scenario);
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::filesystem::path> checked_in_scenarios() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(SQS_SOURCE_DIR) / "scenarios"))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

// scenarios/*.json are exactly what `sqs_cli chaos --family majority --n 12
// --dump-scenarios` writes: each file holds the bytes of the same-named
// builtin, and every builtin has its file.
TEST(ScenarioLoad, CheckedInFilesAreTheCanonicalDump) {
  const FamilySpec spec = majority12();
  std::vector<ChaosScenario> builtins = builtin_chaos_scenarios(spec);
  builtins.push_back(stale_view_chaos_scenario(spec));
  const std::vector<std::filesystem::path> files = checked_in_scenarios();
  EXPECT_EQ(files.size(), builtins.size());
  for (const std::filesystem::path& file : files) {
    const std::string name = file.stem().string();
    const auto it = std::find_if(
        builtins.begin(), builtins.end(),
        [&](const ChaosScenario& s) { return s.name == name; });
    ASSERT_NE(it, builtins.end()) << "no builtin scenario named " << name;
    EXPECT_EQ(read_file(file), serialize_chaos_scenario(*it)) << name;
  }
}

// Every serialized field off its default, checked one by one after the
// round trip (spelled out here rather than through the field tables, so a
// field the tables drop or mix up fails by name).
TEST(ScenarioLoad, EveryFieldRoundTrips) {
  ChaosScenario s;
  s.name = "every_field";
  s.description = "each serialized field off its default";
  s.family.kind = "comp:majority";
  s.family.n = 21;
  s.family.alpha = 3;
  s.family.b = 2;
  s.family.k = 7;
  s.family.l = 6;
  s.family.pqs_l = 1.25;
  s.family.depth = 4;
  s.family.q = 7;
  s.family.w = 5;
  s.family.side = 3;
  RegisterExperimentConfig& c = s.config;
  c.num_clients = 5;
  c.duration = 123.5;
  c.think_time = 0.75;
  c.read_fraction = 0.3;
  c.partition_rate = 0.01;
  c.partition_fraction = 0.4;
  c.partition_duration = 2.5;
  c.seed = 18446744073709551557ull;
  c.network.base_latency = 0.03;
  c.network.jitter_mean = 0.004;
  c.network.link_mean_up = 80.0;
  c.network.link_mean_down = 2.0;
  c.server.mean_up = 90.0;
  c.server.mean_down = 7.0;
  c.server.service_time = 0.002;
  c.server.amnesia_on_recovery = true;
  c.server.serve_while_retired = true;
  c.client.probe_timeout = 0.3;
  c.client.use_partition_filter = true;
  c.client.read_repair = true;
  c.client.policy.lie_tolerance = 2;
  c.client.max_attempts = 3;
  c.client.backoff_base = 0.07;
  c.client.backoff_jitter = 0.25;
  c.client.adaptive_timeout = true;
  c.client.ewma_gain = 0.3;
  c.client.timeout_multiplier = 3.5;
  c.client.min_probe_timeout = 0.01;
  c.client.max_probe_timeout = 2.0;
  c.client.op_deadline = 9.0;
  c.client.policy.refresh_views = false;
  c.client.policy.view_fetch_delay = 0.06;
  c.client.policy.max_view_fetches = 7;
  s.plan.lie(1.5, 2, LieMode::kEquivocate, 4.5);
  s.plan.events.back().client = 3;
  s.plan.events.back().magnitude = 0.5;
  s.churn.join(10.0, 2).leave(20.0, 4);
  s.invariants.availability_floor = 0.9;
  s.invariants.stale_envelope = 0.02;
  s.invariants.expect_ts_regressions = true;
  s.invariants.allow_lost_writes = true;
  s.invariants.require_view_convergence = true;
  s.invariants.check_cross_epoch = true;
  s.invariants.max_cross_epoch_nonintersection = 0.001;

  const JsonParseResult parsed = parse_json(serialize_chaos_scenario(s));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ChaosScenario r;
  std::string error;
  ASSERT_TRUE(parse_chaos_scenario(parsed.value, &r, &error)) << error;
  EXPECT_TRUE(scenario_equal(s, r));
  EXPECT_EQ(r.name, "every_field");
  EXPECT_EQ(r.description, "each serialized field off its default");
  EXPECT_EQ(r.family.kind, "comp:majority");
  EXPECT_EQ(r.family.n, 21);
  EXPECT_EQ(r.family.alpha, 3);
  EXPECT_EQ(r.family.b, 2);
  EXPECT_EQ(r.family.k, 7);
  EXPECT_EQ(r.family.l, 6);
  EXPECT_EQ(r.family.pqs_l, 1.25);
  EXPECT_EQ(r.family.depth, 4);
  EXPECT_EQ(r.family.q, 7);
  EXPECT_EQ(r.family.w, 5);
  EXPECT_EQ(r.family.side, 3);
  const RegisterExperimentConfig& x = r.config;
  EXPECT_EQ(x.num_clients, 5);
  EXPECT_EQ(x.duration, 123.5);
  EXPECT_EQ(x.think_time, 0.75);
  EXPECT_EQ(x.read_fraction, 0.3);
  EXPECT_EQ(x.partition_rate, 0.01);
  EXPECT_EQ(x.partition_fraction, 0.4);
  EXPECT_EQ(x.partition_duration, 2.5);
  EXPECT_EQ(x.seed, 18446744073709551557ull);
  EXPECT_EQ(x.network.base_latency, 0.03);
  EXPECT_EQ(x.network.jitter_mean, 0.004);
  EXPECT_EQ(x.network.link_mean_up, 80.0);
  EXPECT_EQ(x.network.link_mean_down, 2.0);
  EXPECT_EQ(x.server.mean_up, 90.0);
  EXPECT_EQ(x.server.mean_down, 7.0);
  EXPECT_EQ(x.server.service_time, 0.002);
  EXPECT_EQ(x.server.amnesia_on_recovery, true);
  EXPECT_EQ(x.server.serve_while_retired, true);
  EXPECT_EQ(x.client.probe_timeout, 0.3);
  EXPECT_EQ(x.client.use_partition_filter, true);
  EXPECT_EQ(x.client.read_repair, true);
  EXPECT_EQ(x.client.policy.lie_tolerance, 2);
  EXPECT_EQ(x.client.max_attempts, 3);
  EXPECT_EQ(x.client.backoff_base, 0.07);
  EXPECT_EQ(x.client.backoff_jitter, 0.25);
  EXPECT_EQ(x.client.adaptive_timeout, true);
  EXPECT_EQ(x.client.ewma_gain, 0.3);
  EXPECT_EQ(x.client.timeout_multiplier, 3.5);
  EXPECT_EQ(x.client.min_probe_timeout, 0.01);
  EXPECT_EQ(x.client.max_probe_timeout, 2.0);
  EXPECT_EQ(x.client.op_deadline, 9.0);
  EXPECT_EQ(x.client.policy.refresh_views, false);
  EXPECT_EQ(x.client.policy.view_fetch_delay, 0.06);
  EXPECT_EQ(x.client.policy.max_view_fetches, 7);
  ASSERT_EQ(r.plan.events.size(), 1u);
  const FaultEvent& f = r.plan.events[0];
  EXPECT_EQ(f.kind, FaultEvent::Kind::kLieEquivocate);
  EXPECT_EQ(f.at, 1.5);
  EXPECT_EQ(f.duration, 4.5);
  EXPECT_EQ(f.server, 2);
  EXPECT_EQ(f.client, 3);
  EXPECT_EQ(f.magnitude, 0.5);
  ASSERT_EQ(r.churn.events.size(), 2u);
  EXPECT_EQ(r.churn.events[0].kind, ChurnEvent::Kind::kJoin);
  EXPECT_EQ(r.churn.events[0].at, 10.0);
  EXPECT_EQ(r.churn.events[0].server, -1);
  EXPECT_EQ(r.churn.events[0].count, 2);
  EXPECT_EQ(r.churn.events[1].kind, ChurnEvent::Kind::kLeave);
  EXPECT_EQ(r.churn.events[1].at, 20.0);
  EXPECT_EQ(r.churn.events[1].server, 4);
  EXPECT_EQ(r.churn.events[1].count, 1);
  EXPECT_EQ(r.invariants.availability_floor, 0.9);
  EXPECT_EQ(r.invariants.stale_envelope, 0.02);
  EXPECT_EQ(r.invariants.expect_ts_regressions, true);
  EXPECT_EQ(r.invariants.allow_lost_writes, true);
  EXPECT_EQ(r.invariants.require_view_convergence, true);
  EXPECT_EQ(r.invariants.check_cross_epoch, true);
  EXPECT_EQ(r.invariants.max_cross_epoch_nonintersection, 0.001);

  // Each kind's name round-trips too.
  for (const auto& [kind, name] : kFaultKindNames) {
    ChaosScenario one = s;
    one.plan.events[0].kind = kind;
    const JsonParseResult text = parse_json(serialize_chaos_scenario(one));
    ASSERT_TRUE(text.ok) << name;
    ASSERT_TRUE(parse_chaos_scenario(text.value, &r, &error)) << error;
    EXPECT_EQ(r.plan.events[0].kind, kind) << name;
  }
  for (const auto& [kind, name] : kChurnKindNames) {
    ChaosScenario one = s;
    one.churn.events[1].kind = kind;
    const JsonParseResult text = parse_json(serialize_chaos_scenario(one));
    ASSERT_TRUE(text.ok) << name;
    ASSERT_TRUE(parse_chaos_scenario(text.value, &r, &error)) << error;
    EXPECT_EQ(r.churn.events[1].kind, kind) << name;
  }
}

TEST(ScenarioLoad, SerializationIsByteDeterministic) {
  const ChaosScenario scenario =
      churn_replace_chaos_scenario(majority12());
  EXPECT_EQ(serialize_chaos_scenario(scenario),
            serialize_chaos_scenario(scenario));
}

TEST(ScenarioLoad, WriteAndLoadThroughAFile) {
  const std::string path = testing::TempDir() + "sqs_scenario_rt.json";
  const ChaosScenario scenario = churn_resize_chaos_scenario(majority12());
  ASSERT_TRUE(write_chaos_scenario(scenario, path));
  ChaosScenario loaded;
  std::string error;
  ASSERT_TRUE(load_chaos_scenario(path, &loaded, &error)) << error;
  EXPECT_TRUE(scenario_equal(scenario, loaded));
  EXPECT_EQ(serialize_chaos_scenario(loaded),
            serialize_chaos_scenario(scenario));
  std::remove(path.c_str());
}

TEST(ScenarioLoad, MissingFileReportsThePath) {
  ChaosScenario loaded;
  std::string error;
  EXPECT_FALSE(
      load_chaos_scenario("/nonexistent/sqs_scenario.json", &loaded, &error));
  EXPECT_NE(error.find("/nonexistent/sqs_scenario.json"), std::string::npos);
}

// --- malformed-input hardening ----------------------------------------------

// The canonical text every mutation below starts from.
std::string canonical_text() {
  return serialize_chaos_scenario(churn_replace_chaos_scenario(majority12()));
}

// Applies a single textual substitution; the needle must exist.
std::string mutate(const std::string& text, const std::string& needle,
                   const std::string& replacement) {
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "needle not found: " << needle;
  std::string out = text;
  out.replace(pos, needle.size(), replacement);
  return out;
}

// Expects the mutated document to be rejected with a positioned error
// ("line L, col C" from the parser, or "L:C: message" from the loader).
void expect_rejected(const std::string& text, const std::string& what) {
  const JsonParseResult parsed = parse_json(text);
  if (!parsed.ok) {
    EXPECT_GT(parsed.line, 0) << what;
    EXPECT_GT(parsed.col, 0) << what;
    return;  // rejected at the JSON layer, position attached
  }
  ChaosScenario loaded;
  std::string error;
  EXPECT_FALSE(parse_chaos_scenario(parsed.value, &loaded, &error)) << what;
  // "<line>:<col>: message"
  EXPECT_NE(error.find(':'), std::string::npos) << what;
  EXPECT_TRUE(!error.empty() && std::isdigit(error.front()))
      << what << ": " << error;
}

TEST(ScenarioLoad, TruncatedDocumentRejected) {
  const std::string text = canonical_text();
  expect_rejected(text.substr(0, text.size() / 2), "truncated");
  expect_rejected("", "empty");
  expect_rejected("{", "bare brace");
}

TEST(ScenarioLoad, TrailingGarbageRejected) {
  expect_rejected(canonical_text() + "{}", "trailing garbage");
}

TEST(ScenarioLoad, DuplicateKeysRejected) {
  const std::string text =
      mutate(canonical_text(), "\"name\":\"churn_replace\"",
             "\"name\":\"a\",\"name\":\"b\"");
  expect_rejected(text, "duplicate key");
}

TEST(ScenarioLoad, WrongTypeRejected) {
  expect_rejected(mutate(canonical_text(), "\"duration\":400",
                         "\"duration\":\"long\""),
                  "string where number expected");
  expect_rejected(mutate(canonical_text(), "\"num_clients\":6",
                         "\"num_clients\":6.5"),
                  "fraction where integer expected");
  expect_rejected(mutate(canonical_text(), "\"faults\":[]",
                         "\"faults\":{}"),
                  "object where array expected");
}

TEST(ScenarioLoad, UnknownKeysRejected) {
  expect_rejected(mutate(canonical_text(), "\"check_cross_epoch\":",
                         "\"bogus\":1,\"check_cross_epoch\":"),
                  "unknown invariant key");
  expect_rejected(mutate(canonical_text(), "\"schema\":",
                         "\"extra\":true,\"schema\":"),
                  "unknown top-level key");
}

TEST(ScenarioLoad, WrongSchemaTagRejected) {
  expect_rejected(mutate(canonical_text(), "sqs-chaos-scenario-v1",
                         "sqs-chaos-scenario-v0"),
                  "schema tag");
}

TEST(ScenarioLoad, BadChurnEventsRejected) {
  expect_rejected(mutate(canonical_text(), "\"kind\":\"replace\"",
                         "\"kind\":\"explode\""),
                  "unknown churn kind");
  expect_rejected(mutate(canonical_text(), "{\"kind\":\"replace\",\"at\":80,",
                         "{\"kind\":\"replace\",\"at\":-80,"),
                  "churn at t <= 0");
  expect_rejected(mutate(canonical_text(), "\"server\":0,\"count\":1",
                         "\"server\":0,\"count\":0"),
                  "churn count < 1");
  expect_rejected(mutate(canonical_text(), "\"server\":0,\"count\":1",
                         "\"server\":-7,\"count\":1"),
                  "replace without a server id");
}

TEST(ScenarioLoad, LoaderPrefixesErrorsWithThePath) {
  const std::string path = testing::TempDir() + "sqs_scenario_bad.json";
  {
    std::ofstream out(path);
    out << mutate(canonical_text(), "\"duration\":400",
                  "\"duration\":\"long\"");
  }
  ChaosScenario loaded;
  std::string error;
  EXPECT_FALSE(load_chaos_scenario(path, &loaded, &error));
  EXPECT_EQ(error.rfind(path + ":", 0), 0u) << error;
  std::remove(path.c_str());
}

// --- seeded mutation fuzzing ------------------------------------------------

// One random edit: a byte replaced, the tail cut, a span duplicated, a span
// deleted, or a digit changed.
void mutate_once(std::string& text, Rng& rng) {
  if (text.empty()) return;
  const std::size_t at = rng.next_below(text.size());
  const std::size_t span = 1 + rng.next_below(24);
  switch (rng.next_below(5)) {
    case 0:
      text[at] = static_cast<char>(rng.next_below(256));
      break;
    case 1:
      text.resize(at);
      break;
    case 2:
      text.insert(rng.next_below(text.size() + 1), text.substr(at, span));
      break;
    case 3:
      text.erase(at, span);
      break;
    default: {
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < text.size(); ++i)
        if (std::isdigit(static_cast<unsigned char>(text[i])))
          digits.push_back(i);
      if (!digits.empty())
        text[digits[rng.next_below(digits.size())]] =
            static_cast<char>('0' + rng.next_below(10));
    }
  }
}

// Every mutant of a checked-in file is either rejected with a position —
// by the JSON reader, or by the scenario parser as "<line>:<col>: " — or
// accepted as a scenario that re-serializes and re-parses to an equal one.
TEST(ScenarioFuzz, MutantsAreRejectedWithAPositionOrRoundTrip) {
  std::vector<std::string> seeds;
  for (const std::filesystem::path& file : checked_in_scenarios())
    seeds.push_back(read_file(file));
  ASSERT_FALSE(seeds.empty());
  const std::regex positioned("^[0-9]+:[0-9]+: ");
  Rng rng(0x5ce7a210);
  int json_rejects = 0;
  int scenario_rejects = 0;
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string text = seeds[rng.next_below(seeds.size())];
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int e = 0; e < edits; ++e) mutate_once(text, rng);

    const JsonParseResult parsed = parse_json(text);
    if (!parsed.ok) {
      ++json_rejects;
      ASSERT_GT(parsed.line, 0) << "mutant " << i << ": " << parsed.error;
      ASSERT_GT(parsed.col, 0) << "mutant " << i << ": " << parsed.error;
      continue;
    }
    ChaosScenario loaded;
    std::string error;
    if (!parse_chaos_scenario(parsed.value, &loaded, &error)) {
      ++scenario_rejects;
      ASSERT_TRUE(std::regex_search(error, positioned))
          << "mutant " << i << ": " << error;
      continue;
    }
    ++accepted;
    const std::string again = serialize_chaos_scenario(loaded);
    const JsonParseResult reparsed = parse_json(again);
    ASSERT_TRUE(reparsed.ok) << "mutant " << i << ": " << reparsed.error
                             << "\n" << again;
    ChaosScenario reloaded;
    ASSERT_TRUE(parse_chaos_scenario(reparsed.value, &reloaded, &error))
        << "mutant " << i << ": " << error << "\n" << again;
    ASSERT_TRUE(scenario_equal(loaded, reloaded)) << "mutant " << i;
    ASSERT_EQ(serialize_chaos_scenario(reloaded), again) << "mutant " << i;
  }
  // A mutator that never reaches one of the outcomes tests too little.
  EXPECT_GT(json_rejects, 0);
  EXPECT_GT(scenario_rejects, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace sqs
