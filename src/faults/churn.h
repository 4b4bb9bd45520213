// Deterministic churn timelines: membership changes as plain data.
//
// A ChurnPlan is the reconfiguration counterpart of FaultPlan — a list of
// join/leave/replace/resize events at virtual times, rng-stream-neutral by
// construction (expanding a plan into an epoch schedule draws no
// randomness, and applying it in the harness touches no rng stream). The
// plan is expanded once, before the run, into an EpochedFamily: every event
// time becomes an epoch boundary with a fresh family instance sized to the
// new membership, and logical server ids stay stable across epochs so
// crash/partition/lie windows from a FaultPlan compose with churn
// unchanged.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/epoch.h"
#include "faults/family_spec.h"

namespace sqs {

struct ChurnEvent {
  enum class Kind {
    kJoin,     // `count` fresh servers join the membership
    kLeave,    // logical `server` retires (membership shrinks)
    kReplace,  // logical `server` retires; a fresh server takes its slot
    kResize,   // membership grows/shrinks to exactly `count` servers
  };

  Kind kind = Kind::kReplace;
  double at = 0.0;
  int server = -1;  // logical id (kLeave / kReplace)
  int count = 1;    // joins added (kJoin) or target size (kResize)
};

// The one spelling of each kind (scenario files, complaints).
inline constexpr std::pair<ChurnEvent::Kind, const char*> kChurnKindNames[] = {
    {ChurnEvent::Kind::kJoin, "join"},
    {ChurnEvent::Kind::kLeave, "leave"},
    {ChurnEvent::Kind::kReplace, "replace"},
    {ChurnEvent::Kind::kResize, "resize"},
};

const char* churn_kind_name(ChurnEvent::Kind kind);

struct ChurnPlan {
  std::vector<ChurnEvent> events;

  // Builder-style helpers, mirroring FaultPlan.
  ChurnPlan& join(double at, int count = 1);
  ChurnPlan& leave(double at, int server);
  ChurnPlan& replace(double at, int server);
  ChurnPlan& resize(double at, int new_size);

  bool empty() const { return events.empty(); }

  // Static sanity (times, counts); membership validity is checked while
  // expanding, where the evolving member list is known. Complains on
  // stderr and returns false when violated.
  bool validate() const;
};

// One-server-per-wave rolling replacement: wave w retires logical server w
// at `start + w * period`. With n-1 shared servers, even-n majorities
// (quorum n/2+1) keep ceil(n/2) members on each side of the boundary and
// must cross-intersect; odd n is tight (two quorums can split the shared
// set exactly), and replacing several servers at once is exactly the
// configuration the cross-epoch checker exists to reject.
ChurnPlan make_replace_churn(double start, double period, int waves);

// Grow to `grow_to` servers, then shrink back to `shrink_to` (dropping the
// most recently added members first). Requires a resizable family.
ChurnPlan make_resize_churn(double grow_at, int grow_to, double shrink_at,
                            int shrink_to);

// Expands a plan into the full epoch schedule, instantiating the family at
// each epoch's size via `factory` starting from `initial_n` servers.
// Events sharing a timestamp collapse into a single epoch transition.
// Returns nullptr (with a stderr complaint) on invalid plans — unknown
// members, empty membership, or a factory failure.
std::shared_ptr<const EpochedFamily> build_epoch_schedule(
    const ChurnPlan& plan, const FamilyFactory& factory, int initial_n);

}  // namespace sqs
