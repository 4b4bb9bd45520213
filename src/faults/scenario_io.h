// Scenario files: ChaosScenario as strict JSON.
//
// Serialization uses JsonWriter with a fixed key order and a schema tag
// ("sqs-chaos-scenario-v1"), so a scenario has exactly one byte sequence;
// loading goes through the strict reader (src/util/json_reader) and rejects
// unknown keys, wrong types, and out-of-range values with a
// "<path>:<line>:<col>: message" complaint, mirroring the CLI flag-parsing
// conventions. serialize(parse(text)) == text for every file this module
// writes, and tests/test_scenario_io.cpp holds the builtin grid to a
// byte-for-byte round trip.
//
// Each serialized struct has one field table in scenario_io.cpp; the key
// order, the reader, the unknown-key check and scenario_equal all come
// from it. config.plan is written under the document's top-level "faults"
// key, beside "churn". Deliberately NOT serialized: config.epochs (derived
// — run_chaos expands the churn plan at execution time). scenario_equal
// compares only the serialized fields.

#pragma once

#include <string>
#include <vector>

#include "faults/chaos.h"
#include "util/json_reader.h"

namespace sqs {

// The scenario as one compact JSON document (trailing newline included),
// byte-deterministic for a given scenario.
std::string serialize_chaos_scenario(const ChaosScenario& scenario);

// Parses a scenario out of an already-parsed document. On failure sets
// *error to "<line>:<col>: message" (no path prefix) and returns false;
// *out is unspecified.
bool parse_chaos_scenario(const JsonValue& root, ChaosScenario* out,
                          std::string* error);

// Reads, parses, and validates `path`. On failure sets *error to
// "<path>:<line>:<col>: message" (or "<path>: message" for I/O errors).
bool load_chaos_scenario(const std::string& path, ChaosScenario* out,
                         std::string* error);

// serialize + write; stderr complaint and false on I/O error.
bool write_chaos_scenario(const ChaosScenario& scenario,
                          const std::string& path);

// Field-by-field equality over everything serialize_chaos_scenario emits.
bool scenario_equal(const ChaosScenario& a, const ChaosScenario& b);

}  // namespace sqs
