#include "service/message.h"

#include <array>

namespace sqs {

namespace {

// All fields little-endian; offsets fixed by the layout tables below.
//
// Request (48 bytes):            Reply (56 bytes):
//   0  u32 magic "SQRQ"            0  u32 magic "SQRP"
//   4  u32 checksum                4  u32 checksum
//   8  u64 seq                     8  u64 seq
//  16  u64 arrival_us             16  u64 latency_us
//  24  u32 client                 24  u64 value
//  28  u8  kind                   32  u64 ts.counter
//  29  u8[3] reserved (zero)      40  i32 ts.writer
//  32  u64 value                  44  u32 probes
//  40  u32 cert (client key)      48  u8  kind
//  44  u8[4] reserved (zero)      49  u8  ok
//                                 50  u8[2] reserved (zero)
//                                 52  u32 cert (service key, bytes [8, 52))
//
// The checksum is FNV-1a over the record with bytes [4, 8) zeroed.
// Reserved bytes are enforced zero on decode (see header).

template <typename T>
void put(std::uint8_t* out, std::size_t offset, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out[offset + i] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(value) >> (8 * i));
}

template <typename T>
T get(const std::uint8_t* in, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<std::uint64_t>(in[offset + i]) << (8 * i);
  return static_cast<T>(v);
}

std::uint32_t record_checksum(const std::uint8_t* rec, std::size_t size) {
  std::uint32_t h = kFnvBasis;
  for (std::size_t i = 0; i < size; ++i)
    h = fnv_step(h, (i >= 4 && i < 8) ? 0 : rec[i]);
  return h;
}

// Records per pass of the batch codec: enough independent hash chains to
// keep the multiplier busy, few enough to stay in registers.
constexpr std::size_t kCodecGroup = 4;

constexpr std::uint64_t fingerprint_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * 1099511628211ull;
}

// Advances nothing: the fold slot of a pass that folds no earlier records.
struct NoFold {
  void operator()(std::size_t) const {}
};

// Advances the fingerprint over the K records before the ones a pass
// encodes, K bytes per record byte position, so all K * size bytes are
// folded in stream order by the end of the pass.
template <std::size_t K>
struct PreviousRecordsFold {
  std::uint64_t& h;
  const std::uint8_t* prev;  // K consecutive encoded records
  void operator()(std::size_t i) const {
    for (std::size_t k = 0; k < K; ++k) h = fingerprint_step(h, prev[i * K + k]);
  }
};

// The checksum and certificate chains of K records, advanced together one
// byte position at a time: each byte is loaded once, and the 2K
// independent multiply chains (plus the fold's, when a pass folds) overlap
// in the pipeline. Fed the same bytes in the same order, each record's
// chains equal record_checksum and hmac32 exactly (all are fnv_step runs).
// Every byte position of a record goes through exactly one of the three
// span calls, and the fold is called once per position.
template <std::size_t K, typename Fold = NoFold>
struct FusedChains {
  std::array<const std::uint8_t*, K> rec;
  std::array<std::uint32_t, K> sum;
  std::array<std::uint32_t, K> cert;  // callers start it past the key absorb
  Fold fold;

  // Bytes [begin, end) into the checksums only.
  void unsigned_bytes(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t k = 0; k < K; ++k) sum[k] = fnv_step(sum[k], rec[k][i]);
      fold(i);
    }
  }
  // Bytes [begin, end) into both chains.
  void signed_bytes(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t k = 0; k < K; ++k) {
        sum[k] = fnv_step(sum[k], rec[k][i]);
        cert[k] = fnv_step(cert[k], rec[k][i]);
      }
      fold(i);
    }
  }
  // The checksum field [4, 8), absorbed as zero.
  void checksum_field() {
    for (std::size_t i = 4; i < 8; ++i) {
      for (std::size_t k = 0; k < K; ++k) sum[k] = fnv_step(sum[k], 0);
      fold(i);
    }
  }
};

constexpr SigningKey kServiceKey = signing_key(kServicePrincipal);

// Client signing keys with their schedules precomputed, for the client ids
// a load generator hands out; larger ids derive theirs per record.
constexpr std::size_t kClientKeyTable = 256;
constexpr std::array<SigningKey, kClientKeyTable> kClientKeys = [] {
  std::array<SigningKey, kClientKeyTable> keys{};
  for (std::size_t c = 0; c < kClientKeyTable; ++c) keys[c] = signing_key(c);
  return keys;
}();

SigningKey client_key(std::uint32_t client) {
  return client < kClientKeyTable ? kClientKeys[client] : signing_key(client);
}

// True iff bytes [begin, end) are all zero.
bool zero_range(const std::uint8_t* rec, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i)
    if (rec[i] != 0) return false;
  return true;
}

// Decodes the K consecutive request records at `in`; see decode_request.
template <std::size_t K>
void decode_group(const std::uint8_t* in, Request* out,
                  std::uint32_t* expected_certs) {
  // request_cert's canonical signing buffer is exactly the wire bytes
  // [8, 29) and [32, 40), so the expected cert is one chain over them.
  std::array<SigningKey, K> keys;
  FusedChains<K> chains;
  for (std::size_t k = 0; k < K; ++k) {
    chains.rec[k] = in + k * kRequestWireSize;
    keys[k] = client_key(get<std::uint32_t>(chains.rec[k], 24));
    chains.sum[k] = kFnvBasis;
    chains.cert[k] = keys[k].start;
  }
  chains.unsigned_bytes(0, 4);
  chains.checksum_field();
  chains.signed_bytes(8, 29);
  chains.unsigned_bytes(29, 32);
  chains.signed_bytes(32, 40);
  chains.unsigned_bytes(40, kRequestWireSize);
  for (std::size_t k = 0; k < K; ++k) {
    const std::uint8_t* rec = chains.rec[k];
    Request& req = out[k];
    req = Request{};
    const std::uint8_t kind = get<std::uint8_t>(rec, 28);
    if (get<std::uint32_t>(rec, 0) != kRequestMagic ||
        get<std::uint32_t>(rec, 4) != chains.sum[k] ||
        kind > static_cast<std::uint8_t>(OpKind::kWrite) ||
        !zero_range(rec, 29, 32) || !zero_range(rec, 44, 48))
      continue;
    req.seq = get<std::uint64_t>(rec, 8);
    req.arrival_us = get<std::uint64_t>(rec, 16);
    req.client = get<std::uint32_t>(rec, 24);
    req.kind = static_cast<OpKind>(kind);
    req.value = get<std::uint64_t>(rec, 32);
    req.cert = get<std::uint32_t>(rec, 40);
    req.valid = true;
    if (expected_certs != nullptr)
      expected_certs[k] = keys[k].finish(chains.cert[k]);
  }
}

// Encodes the K requests at `reqs` into consecutive records at `out`; see
// encode_request.
template <std::size_t K>
void encode_request_group(const Request* reqs, std::uint8_t* out) {
  std::array<SigningKey, K> keys;
  FusedChains<K> chains;
  for (std::size_t k = 0; k < K; ++k) {
    const Request& req = reqs[k];
    std::uint8_t* rec = out + k * kRequestWireSize;
    std::memset(rec, 0, kRequestWireSize);
    put<std::uint32_t>(rec, 0, kRequestMagic);
    put<std::uint64_t>(rec, 8, req.seq);
    put<std::uint64_t>(rec, 16, req.arrival_us);
    put<std::uint32_t>(rec, 24, req.client);
    put<std::uint8_t>(rec, 28, static_cast<std::uint8_t>(req.kind));
    put<std::uint64_t>(rec, 32, req.value);
    keys[k] = client_key(req.client);
    chains.rec[k] = rec;
    chains.sum[k] = kFnvBasis;
    chains.cert[k] = keys[k].start;
  }
  // The client cert signs the wire bytes [8, 29) and [32, 40) (request_cert's
  // canonical buffer) and sits at [40, 44), so the checksum chain absorbs
  // it after it is finished.
  chains.unsigned_bytes(0, 4);
  chains.checksum_field();
  chains.signed_bytes(8, 29);
  chains.unsigned_bytes(29, 32);
  chains.signed_bytes(32, 40);
  for (std::size_t k = 0; k < K; ++k)
    put<std::uint32_t>(out + k * kRequestWireSize, 40,
                       keys[k].finish(chains.cert[k]));
  chains.unsigned_bytes(40, kRequestWireSize);
  for (std::size_t k = 0; k < K; ++k)
    put<std::uint32_t>(out + k * kRequestWireSize, 4, chains.sum[k]);
}

// Encodes the K replies at `reps` into consecutive records at `out`; see
// encode_reply. `fold` runs once per record byte position.
template <std::size_t K, typename Fold = NoFold>
void encode_group(const Reply* reps, std::uint8_t* out, Fold fold = {}) {
  FusedChains<K, Fold> chains{{}, {}, {}, fold};
  for (std::size_t k = 0; k < K; ++k) {
    const Reply& rep = reps[k];
    std::uint8_t* rec = out + k * kReplyWireSize;
    std::memset(rec, 0, kReplyWireSize);
    put<std::uint32_t>(rec, 0, kReplyMagic);
    put<std::uint64_t>(rec, 8, rep.seq);
    put<std::uint64_t>(rec, 16, rep.latency_us);
    put<std::uint64_t>(rec, 24, rep.value);
    put<std::uint64_t>(rec, 32, rep.ts.counter);
    put<std::uint32_t>(rec, 40, static_cast<std::uint32_t>(rep.ts.writer));
    put<std::uint32_t>(rec, 44, rep.probes);
    put<std::uint8_t>(rec, 48, static_cast<std::uint8_t>(rep.kind));
    put<std::uint8_t>(rec, 49, rep.ok ? 1 : 0);
    chains.rec[k] = rec;
    chains.sum[k] = kFnvBasis;
    chains.cert[k] = kServiceKey.start;
  }
  // Service signature over the semantic bytes [8, 52) — after the fields,
  // before the checksum, so the cert is itself checksummed: the checksum
  // chain absorbs the finished cert bytes last.
  chains.unsigned_bytes(0, 4);
  chains.checksum_field();
  chains.signed_bytes(8, 52);
  for (std::size_t k = 0; k < K; ++k)
    put<std::uint32_t>(out + k * kReplyWireSize, 52,
                       kServiceKey.finish(chains.cert[k]));
  chains.unsigned_bytes(52, kReplyWireSize);
  for (std::size_t k = 0; k < K; ++k)
    put<std::uint32_t>(out + k * kReplyWireSize, 4, chains.sum[k]);
}

}  // namespace

std::uint32_t request_cert(const Request& req) {
  // Canonical 29-byte signing buffer: the semantic fields in wire order.
  std::uint8_t buf[29];
  put<std::uint64_t>(buf, 0, req.seq);
  put<std::uint64_t>(buf, 8, req.arrival_us);
  put<std::uint32_t>(buf, 16, req.client);
  put<std::uint8_t>(buf, 20, static_cast<std::uint8_t>(req.kind));
  put<std::uint64_t>(buf, 21, req.value);
  return hmac32(client_key(req.client), buf, sizeof buf);
}

void encode_request(const Request& req, std::uint8_t* out) {
  encode_request_group<1>(&req, out);
}

void encode_requests(const Request* reqs, std::size_t count,
                     std::uint8_t* out) {
  std::size_t i = 0;
  for (; i + kCodecGroup <= count; i += kCodecGroup)
    encode_request_group<kCodecGroup>(reqs + i, out + i * kRequestWireSize);
  for (; i < count; ++i)
    encode_request_group<1>(reqs + i, out + i * kRequestWireSize);
}

Request decode_request(const std::uint8_t* in, std::uint32_t* expected_cert) {
  Request req;
  decode_group<1>(in, &req, expected_cert);
  return req;
}

void decode_requests(const std::uint8_t* in, std::size_t count, Request* out,
                     std::uint32_t* expected_certs) {
  std::size_t i = 0;
  for (; i + kCodecGroup <= count; i += kCodecGroup)
    decode_group<kCodecGroup>(
        in + i * kRequestWireSize, out + i,
        expected_certs != nullptr ? expected_certs + i : nullptr);
  for (; i < count; ++i)
    decode_group<1>(in + i * kRequestWireSize, out + i,
                    expected_certs != nullptr ? expected_certs + i : nullptr);
}

void encode_reply(const Reply& rep, std::uint8_t* out) {
  encode_group<1>(&rep, out);
}

std::uint64_t fold_fingerprint(std::uint64_t h, const std::uint8_t* data,
                               std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) h = fingerprint_step(h, data[i]);
  return h;
}

void encode_replies(const Reply* reps, std::size_t count, std::uint8_t* out,
                    std::uint64_t* fingerprint) {
  constexpr std::size_t kGroupBytes = kCodecGroup * kReplyWireSize;
  std::size_t i = 0;
  if (fingerprint == nullptr) {
    for (; i + kCodecGroup <= count; i += kCodecGroup)
      encode_group<kCodecGroup>(reps + i, out + i * kReplyWireSize);
    for (; i < count; ++i) encode_group<1>(reps + i, out + i * kReplyWireSize);
    return;
  }
  // Each pass after the first folds the group the pass before it encoded,
  // so the fingerprint chain runs beside the encode chains.
  std::uint64_t h = *fingerprint;
  for (; i + kCodecGroup <= count; i += kCodecGroup) {
    std::uint8_t* group = out + i * kReplyWireSize;
    if (i == 0) {
      encode_group<kCodecGroup>(reps, group);
    } else {
      encode_group<kCodecGroup>(
          reps + i, group,
          PreviousRecordsFold<kCodecGroup>{h, group - kGroupBytes});
    }
  }
  if (i > 0) h = fold_fingerprint(h, out + (i - kCodecGroup) * kReplyWireSize,
                                  kGroupBytes);
  for (; i < count; ++i) {
    encode_group<1>(reps + i, out + i * kReplyWireSize);
    h = fold_fingerprint(h, out + i * kReplyWireSize, kReplyWireSize);
  }
  *fingerprint = h;
}

std::uint64_t count_write_requests(const std::uint8_t* in, std::uint64_t n) {
  std::uint64_t writes = 0;
  for (std::uint64_t i = 0; i < n; ++i)
    writes += in[i * kRequestWireSize + 28] ==
              static_cast<std::uint8_t>(OpKind::kWrite);
  return writes;
}

bool decode_reply(const std::uint8_t* in, Reply* out) {
  if (get<std::uint32_t>(in, 0) != kReplyMagic) return false;
  if (get<std::uint32_t>(in, 4) != record_checksum(in, kReplyWireSize))
    return false;
  const std::uint8_t kind = get<std::uint8_t>(in, 48);
  if (kind > static_cast<std::uint8_t>(OpKind::kWrite)) return false;
  const std::uint8_t ok = get<std::uint8_t>(in, 49);
  if (ok > 1) return false;  // encode writes 0 or 1; anything else is
                             // not a canonical record
  if (!zero_range(in, 50, 52)) return false;
  if (get<std::uint32_t>(in, 52) != hmac32(kServiceKey, in + 8, 44))
    return false;
  out->seq = get<std::uint64_t>(in, 8);
  out->latency_us = get<std::uint64_t>(in, 16);
  out->value = get<std::uint64_t>(in, 24);
  out->ts.counter = get<std::uint64_t>(in, 32);
  out->ts.writer = static_cast<int>(get<std::uint32_t>(in, 40));
  out->probes = get<std::uint32_t>(in, 44);
  out->kind = static_cast<OpKind>(kind);
  out->cert = get<std::uint32_t>(in, 52);
  out->ok = ok != 0;
  return true;
}

}  // namespace sqs
