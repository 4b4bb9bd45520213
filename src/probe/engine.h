// The probe engine: runs a ProbeStrategy against an oracle answering
// reachability queries, producing the record the paper's definitions are
// stated over (probed servers S, acquired quorum Q ⊆ S, probe count).

#pragma once

#include "core/probe_strategy.h"
#include "core/signed_set.h"
#include "obs/telemetry.h"
#include "util/rng.h"

namespace sqs {

// Answers "does this client reach server i?" for one acquisition attempt.
// Implementations: ground-truth configurations, per-client mismatch worlds,
// and the discrete-event simulator's timeout-based prober.
class ProbeOracle {
 public:
  virtual ~ProbeOracle() = default;
  virtual bool reaches(int server) = 0;
};

class ConfigurationOracle : public ProbeOracle {
 public:
  explicit ConfigurationOracle(const Configuration* config) : config_(config) {}
  bool reaches(int server) override { return config_->is_up(server); }

 private:
  const Configuration* config_;
};

struct ProbeRecord {
  bool acquired = false;
  // The probed servers S: +i if reached, -i if not (Sect. 4's client rule —
  // a client coordinates with every reached server in S, not just Q+).
  SignedSet probed;
  // The acquired quorum (subset of `probed`); empty when !acquired.
  SignedSet quorum;
  int num_probes = 0;
};

// Probe-layer telemetry: where probes are spent and how acquisitions end.
// positive_probes/negative_probes split every probe by outcome — positive
// hits build intersection evidence, negative ones build the dual-overlap
// side of Definition 3 — so the ratio shows which compatibility mechanism an
// acquisition workload is actually leaning on. run_probe_into records one
// run per call; the batched counting walk (probe/batch.h) records the same
// values per trial, so a measurement's snapshot does not depend on the
// BatchPolicy.
struct ProbeMetrics {
  obs::Counter runs = obs::Registry::instance().counter("probe.runs");
  obs::Counter acquired = obs::Registry::instance().counter("probe.acquired");
  obs::Counter failed = obs::Registry::instance().counter("probe.failed");
  obs::Counter probes_total =
      obs::Registry::instance().counter("probe.probes_total");
  obs::Counter positive_probes =
      obs::Registry::instance().counter("probe.positive_probes");
  obs::Counter negative_probes =
      obs::Registry::instance().counter("probe.negative_probes");
  obs::Histogram probes_to_acquire = obs::Registry::instance().histogram(
      "probe.probes_to_acquire", obs::linear_bounds(1, 32, 1));
  obs::Histogram probes_to_fail = obs::Registry::instance().histogram(
      "probe.probes_to_fail", obs::linear_bounds(1, 32, 1));

  static const ProbeMetrics& get();
};

// Resets `strategy` (drawing randomness from rng, which may be null for
// deterministic strategies) and drives it to termination. Asserts that the
// strategy never probes a server twice and that the acquired quorum is a
// subset of the probed signed set.
ProbeRecord run_probe(ProbeStrategy& strategy, ProbeOracle& oracle, Rng* rng);

// Same acquisition, writing into a caller-owned record whose signed sets
// are reshape()d in place — with a record borrowed from WorkerScratch the
// per-trial heap traffic of the Monte Carlo loops drops to zero.
void run_probe_into(ProbeStrategy& strategy, ProbeOracle& oracle, Rng* rng,
                    ProbeRecord& record);

}  // namespace sqs
