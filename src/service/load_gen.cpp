#include "service/load_gen.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/recorder.h"

namespace sqs {

std::uint64_t LoadGenConfig::total_ops() const {
  if (!(rate > 0.0) || !(duration > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(rate * duration));
}

bool LoadGenConfig::validate() const {
  bool ok = true;
  const auto reject = [&ok](const char* what, double value) {
    std::fprintf(stderr, "LoadGenConfig: invalid %s %g\n", what, value);
    ok = false;
  };
  if (!(rate > 0.0) || !std::isfinite(rate)) reject("rate", rate);
  if (!(duration > 0.0) || !std::isfinite(duration))
    reject("duration", duration);
  if (!(read_fraction >= 0.0 && read_fraction <= 1.0))
    reject("read_fraction", read_fraction);
  if (num_clients < 1) reject("num_clients", num_clients);
  if (ok && total_ops() == 0) {
    std::fprintf(stderr, "LoadGenConfig: rate * duration rounds to zero ops\n");
    ok = false;
  }
  return ok;
}

std::vector<std::uint8_t> generate_load(const LoadGenConfig& config,
                                        const TrialOptions& opts) {
  assert(config.validate());
  const std::uint64_t n = config.total_ops();
  std::vector<std::uint8_t> wire(n * kRequestWireSize);
  std::uint8_t* base = wire.data();

  // Chunks write disjoint record ranges, so the shared buffer needs no
  // synchronization; all randomness comes from the chunk rng, so the bytes
  // are identical for any thread count. Arrival (i + u_i) / rate with
  // u_i in [0, 1) is strictly increasing in i.
  run_trial_chunks(
      n, Rng(config.seed).split("loadgen"), 0,
      [&](int&, const TrialContext& ctx, Rng& rng) {
        for (std::uint64_t i = ctx.chunk.begin; i < ctx.chunk.end; ++i) {
          const double u = rng.next_double();
          const std::uint32_t client = static_cast<std::uint32_t>(
              rng.next_below(static_cast<std::uint64_t>(config.num_clients)));
          const bool is_read = rng.bernoulli(config.read_fraction);
          Request req;
          req.seq = i;
          req.arrival_us = static_cast<std::uint64_t>(
              (static_cast<double>(i) + u) / config.rate * 1e6);
          req.client = client;
          req.kind = is_read ? OpKind::kRead : OpKind::kWrite;
          req.value = is_read ? 0 : i + 1;  // nonzero, unique per write
          encode_request(req, base + i * kRequestWireSize);
          obs::flight(obs::FlightKind::kGenerated,
                      obs::make_op_id(obs::kServiceStream, i), req.arrival_us,
                      -1, client);
        }
      },
      [](int&, int&&) {}, opts);

  return wire;
}

double parse_positive_double(const char* flag, const char* text) {
  const auto reject = [flag, text]() {
    std::fprintf(stderr, "%s: invalid value '%s' (want a positive number)\n",
                 flag, text == nullptr ? "" : text);
    return 0.0;
  };
  if (text == nullptr || *text == '\0') return reject();
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return reject();
  if (!std::isfinite(v) || !(v > 0.0)) return reject();
  return v;
}

}  // namespace sqs
