// FamilySpec::make is the one door from untrusted input (CLI flags, scenario
// files, churn resizes) to the family constructors, whose preconditions are
// asserts that stay on in Release. Every out-of-range parameter must come
// back as nullptr with one stderr line naming the field, never an abort.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/constructions.h"
#include "faults/chaos.h"
#include "faults/family_spec.h"

namespace sqs {
namespace {

TEST(FamilySpec, DefaultsBuildForEveryKind) {
  for (const char* kind :
       {"opta", "optd", "majority", "grid", "paths", "tree", "pqs", "plane",
        "witness", "masking-majority", "masking-opta", "masking-comp",
        "comp:majority"})
    EXPECT_NE(FamilySpec{.kind = kind}.make(), nullptr) << kind;
}

TEST(FamilySpec, EachOutOfRangeParameterIsNamedNotAsserted) {
  struct Case {
    FamilySpec spec;
    const char* field;
  };
  const std::vector<Case> cases = {
      {{.kind = "opta", .n = 5, .alpha = 0}, "alpha"},
      {{.kind = "opta", .n = 3, .alpha = 2}, "n"},
      {{.kind = "optd", .alpha = -1}, "alpha"},
      {{.kind = "optd", .n = 4, .alpha = 3}, "n"},
      {{.kind = "majority", .n = 0}, "n"},
      {{.kind = "pqs", .n = 0}, "n"},
      {{.kind = "pqs", .pqs_l = 0.0}, "pqs_l"},
      {{.kind = "grid", .n = 0}, "n"},
      {{.kind = "paths", .l = 0}, "l"},
      {{.kind = "tree", .depth = 0}, "depth"},
      {{.kind = "plane", .q = 4}, "q"},
      {{.kind = "witness", .alpha = 0}, "alpha"},
      {{.kind = "witness", .alpha = 2, .w = 3}, "w"},
      {{.kind = "witness", .n = 12, .w = 13}, "w"},
      {{.kind = "masking-majority", .b = -1}, "b"},
      {{.kind = "masking-majority", .n = 4, .b = 3}, "n"},
      {{.kind = "masking-opta", .alpha = 0}, "alpha"},
      {{.kind = "masking-opta", .n = 4, .b = 3}, "n"},
      {{.kind = "masking-opta", .n = 12, .alpha = 13}, "alpha"},
      {{.kind = "masking-comp", .b = 1, .k = 2}, "k"},
      {{.kind = "masking-comp", .n = 12, .k = 13}, "n"},
      {{.kind = "masking-comp", .n = 12, .alpha = 13}, "alpha"},
      {{.kind = "comp:pqs"}, "kind"},
      {{.kind = "comp:majority", .n = 5, .k = 9}, "n"},
      {{.kind = "comp:majority", .alpha = 3, .k = 9}, "alpha"},
      {{.kind = "comp:plane", .q = 4}, "q"},
  };
  for (const Case& c : cases) {
    testing::internal::CaptureStderr();
    const auto family = c.spec.make();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(family, nullptr) << c.spec.label();
    EXPECT_NE(err.find(std::string("bad ") + c.field + " "), std::string::npos)
        << c.spec.label() << ": " << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << c.spec.label() << ": " << err;
  }
}

TEST(FamilySpec, ResizeOutOfRangeIsRejected) {
  // A churn resize rebuilds the family at a new n; OPT_d(4, 2) breaks
  // n >= 3 alpha - 1.
  const FamilySpec spec{.kind = "optd"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(spec.make(4), nullptr);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("bad n "),
            std::string::npos);
}

TEST(FamilySpec, ChaosReportsAScenarioWhoseFamilyFailsToBuild) {
  // Runs no replicates on the caller's family in its place.
  const OptDFamily family(12, 2);
  ChaosScenario scenario = builtin_chaos_scenarios(family).front();
  scenario.family = {.kind = "optd", .n = 4, .alpha = 3};
  testing::internal::CaptureStderr();
  const auto results = run_chaos(family, {scenario}, /*replicates=*/1);
  testing::internal::GetCapturedStderr();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].replicates.empty());
  EXPECT_EQ(results[0].ops_attempted, 0);
  bool reported = false;
  for (const ChaosViolation& v : results[0].violations)
    reported = reported || v.invariant == "family-spec";
  EXPECT_TRUE(reported);
}

}  // namespace
}  // namespace sqs
