// Declarative family construction — the data form of sqs_cli's --family
// flags.
//
// Scenario files and churn plans need to *name* a quorum family rather than
// hold a built one: a churn resize event re-instantiates the same
// construction at a new universe size, and a JSON scenario must round-trip
// through text. FamilySpec captures exactly the constructions the CLI
// exposes (opta, optd, majority, grid, paths, tree, pqs, plane, witness,
// comp:<inner>, masking-*) with their parameters.

#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/quorum_family.h"

namespace sqs {

struct FamilySpec {
  std::string kind;  // "" = unspecified (scenario falls back to caller's family)
  int n = 12;
  int alpha = 2;
  int b = 1;         // masking tolerance (masking-* kinds)
  int k = 9;         // inner universe size (comp:* kinds)
  int l = 4;         // paths parameter
  double pqs_l = 1.0;  // pqs quorum-size multiplier
  int depth = 5;     // tree depth
  int q = 5;         // projective-plane order
  int w = 8;         // witness count
  int side = 0;      // grid side; 0 = round(sqrt(n))

  bool empty() const { return kind.empty(); }

  // True for threshold-style constructions that re-instantiate cleanly at a
  // different universe size — the precondition for resize/join/leave churn.
  bool resizable() const;

  // Builds the family; n_override >= 0 replaces n (resizable kinds only).
  // Complains on stderr and returns nullptr for unknown kinds or an
  // override of a non-resizable construction.
  std::shared_ptr<const QuorumFamily> make(int n_override = -1) const;

  // Short human-readable tag for tables, e.g. "optd(n=12,a=2)".
  std::string label() const;

  bool operator==(const FamilySpec&) const = default;
};

// Factory closure used by build_epoch_schedule to size each epoch's family.
using FamilyFactory =
    std::function<std::shared_ptr<const QuorumFamily>(int n)>;

// make(n) bound to a spec; the returned factory yields nullptr (with a
// stderr complaint) when the spec cannot build at the requested size.
FamilyFactory family_factory(const FamilySpec& spec);

}  // namespace sqs
