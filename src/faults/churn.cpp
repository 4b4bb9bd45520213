#include "faults/churn.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace sqs {

const char* churn_kind_name(ChurnEvent::Kind kind) {
  for (const auto& [k, name] : kChurnKindNames)
    if (k == kind) return name;
  return "?";
}

ChurnPlan& ChurnPlan::join(double at, int count) {
  ChurnEvent e;
  e.kind = ChurnEvent::Kind::kJoin;
  e.at = at;
  e.count = count;
  events.push_back(e);
  return *this;
}

ChurnPlan& ChurnPlan::leave(double at, int server) {
  ChurnEvent e;
  e.kind = ChurnEvent::Kind::kLeave;
  e.at = at;
  e.server = server;
  events.push_back(e);
  return *this;
}

ChurnPlan& ChurnPlan::replace(double at, int server) {
  ChurnEvent e;
  e.kind = ChurnEvent::Kind::kReplace;
  e.at = at;
  e.server = server;
  events.push_back(e);
  return *this;
}

ChurnPlan& ChurnPlan::resize(double at, int new_size) {
  ChurnEvent e;
  e.kind = ChurnEvent::Kind::kResize;
  e.at = at;
  e.count = new_size;
  events.push_back(e);
  return *this;
}

bool ChurnPlan::validate() const {
  const auto complain = [](std::size_t i, const char* what) {
    std::fprintf(stderr, "ChurnPlan: event %zu: %s\n", i, what);
    return false;
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChurnEvent& e = events[i];
    if (!(e.at > 0.0))
      return complain(i, "churn must happen at t > 0 (epoch 0 starts at 0)");
    switch (e.kind) {
      case ChurnEvent::Kind::kJoin:
        if (e.count < 1) return complain(i, "join count must be >= 1");
        break;
      case ChurnEvent::Kind::kLeave:
      case ChurnEvent::Kind::kReplace:
        if (e.server < 0) return complain(i, "server id must be >= 0");
        break;
      case ChurnEvent::Kind::kResize:
        if (e.count < 1) return complain(i, "resize target must be >= 1");
        break;
    }
  }
  return true;
}

ChurnPlan make_replace_churn(double start, double period, int waves) {
  ChurnPlan plan;
  for (int w = 0; w < waves; ++w)
    plan.replace(start + w * period, /*server=*/w);
  return plan;
}

ChurnPlan make_resize_churn(double grow_at, int grow_to, double shrink_at,
                            int shrink_to) {
  ChurnPlan plan;
  plan.resize(grow_at, grow_to);
  plan.resize(shrink_at, shrink_to);
  return plan;
}

std::shared_ptr<const EpochedFamily> build_epoch_schedule(
    const ChurnPlan& plan, const FamilyFactory& factory, int initial_n) {
  const auto complain = [](const char* what) {
    std::fprintf(stderr, "build_epoch_schedule: %s\n", what);
    return nullptr;
  };
  if (initial_n < 1) return complain("initial membership must be >= 1");
  if (!plan.validate()) return nullptr;

  auto sched = std::make_shared<EpochedFamily>();
  std::vector<int> members(static_cast<std::size_t>(initial_n));
  std::iota(members.begin(), members.end(), 0);
  int next_logical = initial_n;

  const auto push_epoch = [&](double at) {
    EpochEntry entry;
    entry.at = at;
    entry.view.epoch = sched->num_epochs();
    entry.view.members = members;
    entry.family = factory(static_cast<int>(members.size()));
    if (entry.family == nullptr) return false;
    if (entry.family->universe_size() != static_cast<int>(members.size())) {
      std::fprintf(stderr,
                   "build_epoch_schedule: factory built universe %d for "
                   "membership of %zu\n",
                   entry.family->universe_size(), members.size());
      return false;
    }
    sched->epochs.push_back(std::move(entry));
    return true;
  };

  if (!push_epoch(0.0)) return nullptr;

  std::vector<ChurnEvent> events = plan.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at < b.at;
                   });

  std::size_t i = 0;
  while (i < events.size()) {
    const double at = events[i].at;
    // Apply every event sharing this timestamp, then cut one epoch.
    for (; i < events.size() && events[i].at == at; ++i) {
      const ChurnEvent& e = events[i];
      switch (e.kind) {
        case ChurnEvent::Kind::kJoin:
          for (int c = 0; c < e.count; ++c) members.push_back(next_logical++);
          break;
        case ChurnEvent::Kind::kLeave:
        case ChurnEvent::Kind::kReplace: {
          const auto it =
              std::find(members.begin(), members.end(), e.server);
          if (it == members.end()) {
            std::fprintf(stderr,
                         "build_epoch_schedule: %s targets server %d, not a "
                         "member at t=%g\n",
                         churn_kind_name(e.kind), e.server, e.at);
            return nullptr;
          }
          if (e.kind == ChurnEvent::Kind::kReplace) {
            *it = next_logical++;  // fresh server takes the same family slot
          } else {
            members.erase(it);
          }
          break;
        }
        case ChurnEvent::Kind::kResize:
          while (static_cast<int>(members.size()) < e.count)
            members.push_back(next_logical++);
          while (static_cast<int>(members.size()) > e.count)
            members.pop_back();  // newest members leave first
          break;
      }
    }
    if (members.empty()) return complain("membership became empty");
    if (!push_epoch(at)) return nullptr;
  }

  sched->num_logical = next_logical;
  if (!sched->validate()) return nullptr;
  return sched;
}

}  // namespace sqs
