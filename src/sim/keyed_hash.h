// Keyed-FNV primitives behind every certificate in the model.
//
// A certificate is hmac32 under a per-principal key: a keyed-FNV stand-in
// for the unforgeable signatures of the Byzantine model, with the interface
// shape of the real construction. Only unforgeability-in-model matters, not
// cryptography. The replica signs its stored state with these (sim/
// replica.h replica_cert); the wire format (service/message.h) signs its
// records with them and fuses their chains with its checksums.

#pragma once

#include <cstddef>
#include <cstdint>

namespace sqs {

inline constexpr std::uint32_t kFnvBasis = 2166136261u;

// One FNV-1a step. Every hash of the codec — hmac32, the record checksum
// and the fused decode/encode chains — is a sequence of these, so the fused
// chains are byte-for-byte the separate ones by construction.
constexpr std::uint32_t fnv_step(std::uint32_t h, std::uint8_t byte) {
  return (h ^ byte) * 16777619u;
}

// Absorbs the 8 key bytes, little-endian, into an FNV chain.
constexpr std::uint32_t absorb_key(std::uint32_t h, std::uint64_t key) {
  for (int i = 0; i < 8; ++i)
    h = fnv_step(h, static_cast<std::uint8_t>(key >> (8 * i)));
  return h;
}

// MurmurHash3's 64-bit finalizer: a bijective avalanche mix.
constexpr std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// Per-principal signing key (the principal id mixed with a baked-in secret
// — the model's stand-in for a key distribution scheme).
constexpr std::uint64_t cert_key(std::uint64_t principal) {
  return fmix64(principal ^ 0xC2B2AE3D27D4EB4Full);
}

// A signing key with its key schedule precomputed: the chain state after
// hmac32's leading key absorb, which is the same for every message the key
// signs (the inner-state precomputation of RFC 2104 §4). A principal that
// signs repeatedly keeps one and skips cert_key and the leading absorb.
struct SigningKey {
  std::uint64_t key = 0;
  std::uint32_t start = absorb_key(kFnvBasis, 0);

  constexpr SigningKey() = default;
  constexpr explicit SigningKey(std::uint64_t k)
      : key(k), start(absorb_key(kFnvBasis, k)) {}
  // Completes a chain begun at `start`: hmac32's trailing key absorb.
  constexpr std::uint32_t finish(std::uint32_t h) const {
    return absorb_key(h, key);
  }
};

constexpr SigningKey signing_key(std::uint64_t principal) {
  return SigningKey(cert_key(principal));
}

// Keyed-FNV "HMAC" stand-in: absorbs the key, the data, then the key again
// (the sandwich shape of the real construction). Unforgeable in-model
// because lying code paths never call it with another principal's key.
inline std::uint32_t hmac32(const SigningKey& key, const std::uint8_t* data,
                            std::size_t n) {
  std::uint32_t h = key.start;
  for (std::size_t i = 0; i < n; ++i) h = fnv_step(h, data[i]);
  return key.finish(h);
}

inline std::uint32_t hmac32(std::uint64_t key, const std::uint8_t* data,
                            std::size_t n) {
  return hmac32(SigningKey(key), data, n);
}

}  // namespace sqs
