#include "probe/engine.h"

#include <cassert>

#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sqs {

const ProbeMetrics& ProbeMetrics::get() {
  static const ProbeMetrics metrics;
  return metrics;
}

ProbeRecord run_probe(ProbeStrategy& strategy, ProbeOracle& oracle, Rng* rng) {
  ProbeRecord record;
  run_probe_into(strategy, oracle, rng, record);
  return record;
}

void run_probe_into(ProbeStrategy& strategy, ProbeOracle& oracle, Rng* rng,
                    ProbeRecord& record) {
  strategy.reset(rng);
  const int n = strategy.universe_size();
  record.acquired = false;
  record.num_probes = 0;
  record.probed.reshape(n);
  record.quorum.reshape(n);

  const bool telemetry = obs::telemetry_enabled();
  obs::Span span("probe", "run_probe");
  span.op(obs::current_op());

  int positive = 0;
  while (strategy.status() == ProbeStatus::kInProgress) {
    const int server = strategy.next_server();
    assert(server >= 0 && server < n);
    assert(!record.probed.mentions(server) && "strategy probed a server twice");
    const bool reached = oracle.reaches(server);
    if (reached) {
      record.probed.add_positive(server);
      ++positive;
    } else {
      record.probed.add_negative(server);
    }
    ++record.num_probes;
    if (telemetry)
      obs::instant_op("probe", reached ? "probe_hit" : "probe_miss",
                      obs::current_op(), "server",
                      static_cast<std::uint64_t>(server));
    strategy.observe(server, reached);
    assert(record.num_probes <= n && "strategy exceeded the universe in probes");
  }

  record.acquired = strategy.status() == ProbeStatus::kAcquired;
  if (record.acquired) {
    strategy.acquired_quorum_into(record.quorum);
    assert(record.quorum.is_subset_of(record.probed) &&
           "acquired quorum must be contained in the probed signed set");
  }

  if (telemetry) {
    const ProbeMetrics& metrics = ProbeMetrics::get();
    const std::uint64_t probes = static_cast<std::uint64_t>(record.num_probes);
    metrics.runs.add();
    metrics.probes_total.add(probes);
    metrics.positive_probes.add(static_cast<std::uint64_t>(positive));
    metrics.negative_probes.add(
        probes - static_cast<std::uint64_t>(positive));
    if (record.acquired) {
      metrics.acquired.add();
      metrics.probes_to_acquire.record(probes);
    } else {
      metrics.failed.add();
      metrics.probes_to_fail.record(probes);
    }
    span.arg("probes", probes);
    span.arg("acquired", record.acquired ? 1 : 0);
  }
}

}  // namespace sqs
