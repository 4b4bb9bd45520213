#include "util/rng.h"

#include <cmath>

#include "util/rng_lanes.h"

namespace sqs {

double Rng::exponential(double rate) {
  // Avoid log(0) by mapping the (measure-zero) draw 0 to the next float up.
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

int Rng::binomial(int n, double q) {
  // Direct summation: n is small (server counts) everywhere we call this.
  int successes = 0;
  for (int i = 0; i < n; ++i)
    if (bernoulli(q)) ++successes;
  return successes;
}

namespace {

int detect_rng_lanes() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
  return 1;
}

}  // namespace

bool rng_lanes_supported(int width) {
  return width == 1 ||
         ((width == 4 || width == 8) && width <= host_rng_lanes());
}

int host_rng_lanes() {
  static const int detected = detect_rng_lanes();
  return detected;
}

int rng_lanes_for(int streams) {
  const int host = host_rng_lanes();
  if (streams <= 1 || host == 1) return 1;
  return streams <= 4 ? 4 : host;
}

}  // namespace sqs
