// The isolated-call layer suite of a traced run: each layer's public entry
// point timed alone, on inputs drawn from the run's seed. These are the
// per_layer metrics of BENCHMARK.json, which every traced run reports; the
// stage metrics of the engine a workload drives come from its own traced
// reps and appear on that workload only.

#include <algorithm>
#include <vector>

#include "bench.h"
#include "core/batch.h"
#include "core/constructions.h"
#include "mismatch/batch.h"
#include "runtime/scratch.h"
#include "service/load_gen.h"
#include "service/message.h"
#include "service/replica.h"
#include "sim/transport.h"
#include "uqs/paths.h"

namespace sqs::e2e {
namespace {

constexpr int kPasses = 5;

// Keeps measured results observable so the timed loops are not elided.
volatile std::uint64_t g_sink = 0;

// Median over kPasses passes of the seconds one pass of `fn` takes, per
// `calls` calls, in nanoseconds. `fn` returns a value folded into g_sink.
template <typename Fn>
double ns_per_call(const char* span_name, double calls, Fn&& fn) {
  ScopedSpan span(span_name);
  std::vector<double> ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point start = Clock::now();
    g_sink = g_sink + fn();
    ns.push_back(seconds_since(start) * 1e9 / calls);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

void measure_codec(std::uint64_t n, std::uint64_t seed, Metrics& out) {
  // The read mix of serve_read_1t.
  LoadGenConfig load;
  load.rate = 750.0;
  load.duration = static_cast<double>(n) / load.rate;
  load.read_fraction = 0.8;
  load.num_clients = 64;
  load.seed = seed;
  TrialOptions opts;
  opts.threads = 1;
  const std::vector<std::uint8_t> wire = generate_load(load, opts);
  std::vector<Request> decoded(n);
  out.add("service.codec.decode_ns",
          ns_per_call("codec.decode", static_cast<double>(n), [&] {
            std::uint64_t ok = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              decoded[i] = decode_request(wire.data() + i * kRequestWireSize);
              ok += decoded[i].valid && decoded[i].cert == request_cert(decoded[i]);
            }
            return ok;
          }),
          "ns");
  std::vector<Reply> replies(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    replies[i].seq = decoded[i].seq;
    replies[i].kind = decoded[i].kind;
    replies[i].ok = true;
    replies[i].value = decoded[i].value;
    replies[i].ts = Timestamp{i + 1, static_cast<int>(decoded[i].client)};
    replies[i].latency_us = 40000 + i % 1000;
    replies[i].probes = 2;
  }
  std::vector<std::uint8_t> encoded(n * kReplyWireSize);
  out.add("service.codec.encode_ns",
          ns_per_call("codec.encode", static_cast<double>(n), [&] {
            for (std::uint64_t i = 0; i < n; ++i)
              encode_reply(replies[i], encoded.data() + i * kReplyWireSize);
            return static_cast<std::uint64_t>(encoded[n * kReplyWireSize / 2]);
          }),
          "ns");
}

// Replica and transport calls advance their clocks like served traffic at
// the workloads' rate: one op every 1/750 s, a few probes per op.
void measure_replica_transport(std::uint64_t n, const Rng& base, Metrics& out) {
  const double step = 1.0 / 750.0;
  out.add("service.replica.serve_read_ns",
          ns_per_call("replica.serve_read", static_cast<double>(n), [&] {
            ServiceReplica replica(0, ServerConfig{}, base.split("replica"));
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              const double now = static_cast<double>(i) * step;
              if (auto r = replica.serve_read(0, now, now, static_cast<int>(i % 64)))
                acc += r->cert;
            }
            return acc;
          }),
          "ns");
  out.add("service.replica.serve_write_ns",
          ns_per_call("replica.serve_write", static_cast<double>(n), [&] {
            ServiceReplica replica(0, ServerConfig{}, base.split("replica"));
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              const double now = static_cast<double>(i) * step;
              if (replica.serve_write(Timestamp{i + 1, static_cast<int>(i % 64)},
                                      i, 0, now, now))
                ++acc;
            }
            return acc;
          }),
          "ns");
  out.add("sim.transport.attempt_ns",
          ns_per_call("transport.attempt", static_cast<double>(n), [&] {
            Transport transport(64, 12, NetworkConfig{}, base.split("transport"));
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              const double now = static_cast<double>(i) * step / 4.0;
              acc += transport
                         .attempt(static_cast<int>(i % 64),
                                  static_cast<int>(i % 12), now)
                         .delivered;
            }
            return acc;
          }),
          "ns");
}

void measure_probe(std::uint64_t trials, const Rng& base, Metrics& out) {
  const OptDFamily family(12, 2);
  const std::unique_ptr<ProbeStrategy> strategy = family.make_probe_strategy();
  // Reachability of every (trial, server), 10% misses: the served regime.
  std::vector<char> reach(trials * 12);
  Rng draw = base.split("reach");
  for (char& r : reach) r = draw.bernoulli(0.1) ? 0 : 1;
  std::uint64_t steps = 0;
  Rng rng = base.split("probe");
  for (std::uint64_t t = 0; t < trials; ++t) {
    strategy->reset(&rng);
    while (strategy->status() == ProbeStatus::kInProgress) {
      const int s = strategy->next_server();
      strategy->observe(s, reach[t * 12 + static_cast<std::size_t>(s)] != 0);
      ++steps;
    }
  }
  out.add("probe.optd_step_ns",
          ns_per_call("probe.optd_step", static_cast<double>(steps), [&] {
            Rng pass_rng = base.split("probe");
            std::uint64_t acquired = 0;
            for (std::uint64_t t = 0; t < trials; ++t) {
              strategy->reset(&pass_rng);
              while (strategy->status() == ProbeStatus::kInProgress) {
                const int s = strategy->next_server();
                strategy->observe(s,
                                  reach[t * 12 + static_cast<std::size_t>(s)] != 0);
              }
              acquired += strategy->status() == ProbeStatus::kAcquired;
            }
            return acquired;
          }),
          "ns");
}

void measure_kernels(std::uint64_t trials, const Rng& base, Metrics& out) {
  WorkerScratch& scratch = WorkerScratch::for_thread();
  const double t = static_cast<double>(trials);
  WorldBatch worlds;
  out.add("core.sample_ns_per_trial",
          ns_per_call("core.sample_worlds_into", t, [&] {
            Rng rng = base.split("sample");
            sample_worlds_into(24, 0.1, trials, rng, scratch, worlds);
            return worlds.lanes(0)[0];
          }),
          "ns");

  const std::size_t lane_words = worlds.num_lane_words();
  std::vector<std::uint64_t> rows(lane_words * kBatchLaneBits);
  Rng row_rng = base.split("rows");
  for (std::uint64_t& r : rows) r = row_rng.next_u64() & ((1ull << 24) - 1);
  out.add("core.transpose_ns_per_word",
          ns_per_call("core.load_rows", static_cast<double>(lane_words), [&] {
            worlds.reshape(24, trials);
            for (std::size_t w = 0; w < lane_words; ++w)
              worlds.load_rows(w, rows.data() + w * kBatchLaneBits, kBatchLaneBits);
            return worlds.lanes(lane_words - 1)[23];
          }),
          "ns");

  const PathsFamily paths(8);
  Rng paths_rng = base.split("paths");
  sample_worlds_into(paths.universe_size(), 0.3, trials, paths_rng, scratch,
                     worlds);
  Bitset accepted;
  out.add("core.accepts_batch_ns_per_trial",
          ns_per_call("core.accepts_batch", t, [&] {
            paths.accepts_batch(worlds, accepted);
            return static_cast<std::uint64_t>(accepted.count());
          }),
          "ns");

  MismatchModel model;
  model.p = 0.1;
  model.link_miss = 0.2;
  TwoClientWorldBatch pair;
  out.add("mismatch.sample_ns_per_trial",
          ns_per_call("mismatch.sample_two_client_worlds_into", t, [&] {
            Rng rng = base.split("pair");
            sample_two_client_worlds_into(24, model, trials, rng, scratch, pair);
            return pair.reach1.lanes(0)[0];
          }),
          "ns");

  const OptDFamily optd(24, 2);
  out.add("mismatch.nonint_ns_per_trial",
          ns_per_call("mismatch.nonintersection_chunk_batched", t, [&] {
            TrialContext ctx;
            ctx.chunk.end = trials;
            ctx.arena = &scratch;
            ctx.batch = BatchPolicy::kBatched;
            Rng rng = base.split("nonint");
            NonintersectionCounts acc;
            nonintersection_chunk_batched(optd, model, ctx, rng, acc);
            return static_cast<std::uint64_t>(acc.nonintersection.successes);
          }),
          "ns");
}

}  // namespace

void measure_layers(std::uint64_t seed, bool quick, Metrics& out) {
  ScopedSpan span("layers");
  const std::uint64_t scale = quick ? 20 : 1;
  const Rng base = Rng(seed).split("layers");
  measure_codec(200000 / scale, seed, out);
  measure_replica_transport(400000 / scale, base, out);
  measure_probe(200000 / scale, base, out);
  measure_kernels(131072 / scale, base, out);
  if (out.find("service.solo_ns_per_op") == nullptr) return;

  // On a serve workload: the solo stage minus what its isolated calls cost
  // at the per-op counts the served run made, the residual of audit sets,
  // histograms, flight calls and per-op vectors. Probe counts bound the
  // replica reads from above, so the residual is a lower bound.
  out.add("service.solo_other_ns_per_op",
          out.get("service.solo_ns_per_op") -
              out.get("service.attempts_per_op") * out.get("sim.transport.attempt_ns") -
              out.get("service.probes_per_op") *
                  (out.get("service.replica.serve_read_ns") +
                   out.get("probe.optd_step_ns")) -
              out.get("service.write_acks_per_op") *
                  out.get("service.replica.serve_write_ns"),
          "ns");
}

}  // namespace sqs::e2e
