// Wire format of the replicated-register service.
//
// Requests and replies travel as fixed-size little-endian records so the
// staged runner can address request i at offset i * kRequestWireSize with no
// framing pass, and so the stateless stages have real work: the prologue
// decodes and checksum-verifies every request in parallel, the epilogue
// encodes and checksums every reply in parallel, while the ordered solo
// stage touches only decoded structs. The checksum is FNV-1a over the
// record with the checksum field zeroed — a stand-in for the signature
// verification a WAN deployment would hoist into the prologue (dsnet hoists
// exactly that into its stateless stage).
//
// On top of the integrity checksum (anyone can recompute it) each record
// carries a keyed certificate — hmac32 under a per-principal key — modeling
// the unforgeable signatures of the Byzantine model: a request is signed by
// its client, a service reply by the service, and a replica's probe reply
// (Replica::ReadServed) by the replica *over its true stored state*.
// A Byzantine replica can corrupt the (ts, value) it reports but cannot
// forge a certificate for the fabricated contents, so cert verification in
// the runner strips lies off the quorum path before they can vote (the
// keyed-FNV primitives live in sim/keyed_hash.h).
//
// Reserved bytes are zero on encode AND enforced zero on decode, so a
// record with garbage padding is rejected even when its (public) checksum
// has been recomputed to match.

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/keyed_hash.h"
#include "sim/replica.h"  // Timestamp, replica_cert

namespace sqs {

inline constexpr std::uint32_t kRequestMagic = 0x51525153u;  // "SQRQ"
inline constexpr std::uint32_t kReplyMagic = 0x50525153u;    // "SQRP"
inline constexpr std::size_t kRequestWireSize = 48;
inline constexpr std::size_t kReplyWireSize = 56;

// Principal id the service signs its replies under (clients are principals
// 0..num_clients-1, replicas kReplicaPrincipalBase + id).
inline constexpr std::uint64_t kServicePrincipal = 0xFFFFFFFFull;

enum class OpKind : std::uint8_t { kRead = 0, kWrite = 1 };

// A decoded register-operation request. `arrival_us` is the open-loop
// schedule's virtual arrival time in integer microseconds (the service's
// whole timeline is virtual; see runner.h).
struct Request {
  std::uint64_t seq = 0;
  std::uint64_t arrival_us = 0;
  std::uint64_t value = 0;
  std::uint32_t client = 0;
  std::uint32_t cert = 0;  // client certificate as carried on the wire
  OpKind kind = OpKind::kRead;
  bool valid = false;  // decoded and checksum-verified (cert NOT verified
                       // here — the runner's prologue does that, so an
                       // impersonated request is observable as a cert
                       // reject rather than a generic decode failure)

  double arrival() const { return static_cast<double>(arrival_us) * 1e-6; }
};

// A decoded (or to-be-encoded) reply.
struct Reply {
  std::uint64_t seq = 0;
  std::uint64_t latency_us = 0;
  std::uint64_t value = 0;
  Timestamp ts;
  std::uint32_t probes = 0;
  std::uint32_t cert = 0;  // service certificate (filled by decode; encode
                           // computes it fresh from the record contents)
  OpKind kind = OpKind::kRead;
  bool ok = false;
};

// The certificate a well-behaved client attaches to a request: signs the
// semantic fields (seq, arrival_us, client, kind, value) under the client's
// key. encode_request computes and embeds it; the runner's prologue
// recomputes it from the decoded fields and rejects mismatches.
std::uint32_t request_cert(const Request& req);

// Encoders write exactly kRequestWireSize / kReplyWireSize bytes at `out`.
// encode_request signs with the request's client key; encode_reply signs
// with the service key. Both certificates are recomputed from the record
// contents (the structs' cert fields are outputs of decode, not inputs).
// encode_reply runs its certificate and checksum chains in one pass.
void encode_request(const Request& req, std::uint8_t* out);
void encode_reply(const Reply& rep, std::uint8_t* out);

// encode_request for `count` requests into consecutive records at `out`,
// several records per pass so their certificate and checksum chains
// overlap (encode_request is the one-record case of the same code).
void encode_requests(const Request* reqs, std::size_t count,
                     std::uint8_t* out);

// The reply-stream fingerprint (ServiceResult::reply_fingerprint): FNV-1a
// 64 over the encoded reply bytes in stream order, starting from
// kFingerprintBasis. fold_fingerprint advances `h` over `size` bytes.
inline constexpr std::uint64_t kFingerprintBasis = 14695981039346656037ull;
std::uint64_t fold_fingerprint(std::uint64_t h, const std::uint8_t* data,
                               std::size_t size);

// encode_reply for `count` replies into consecutive records at `out`,
// several records per pass so their hash chains overlap (encode_reply is
// the one-record case of the same code). A non-null `fingerprint` is
// advanced over the encoded bytes, in order, within the same pass.
void encode_replies(const Reply* reps, std::size_t count, std::uint8_t* out,
                    std::uint64_t* fingerprint = nullptr);

// Decoders verify magic + checksum + kind range + zero reserved bytes; the
// reply decoder additionally verifies a 0/1 ok byte and the service
// certificate. An accepted reply, or a decoded request whose carried cert
// equals `expected_cert`, re-encodes to exactly its wire bytes. On failure
// the result's `valid` flag (request) or the return value (reply) says so
// and other fields are unspecified. Request certs are intentionally NOT
// verified here (see Request::valid), but decode_request computes the
// certificate the record should carry in the same pass as its checksum: if
// `expected_cert` is non-null and the record decodes, it receives
// request_cert(result), which the runner's prologue compares with `cert`.
Request decode_request(const std::uint8_t* in,
                       std::uint32_t* expected_cert = nullptr);
bool decode_reply(const std::uint8_t* in, Reply* out);

// decode_request for `count` consecutive records at `in` into out[0..count)
// and expected_certs[0..count) (may be null), several records per pass;
// decode_request is the one-record case of the same code.
void decode_requests(const std::uint8_t* in, std::size_t count, Request* out,
                     std::uint32_t* expected_certs);

// Number of the `n` request records at `in` whose kind byte says write,
// read without decoding: a sizing hint, never a validated count.
std::uint64_t count_write_requests(const std::uint8_t* in, std::uint64_t n);

}  // namespace sqs
