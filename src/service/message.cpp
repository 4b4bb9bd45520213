#include "service/message.h"

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

// The checksum and certificate chains of one record, advanced together in
// a single pass: each byte is loaded once, and the two independent multiply
// chains overlap in the pipeline. Fed the same bytes in the same order, the
// chains equal record_checksum and hmac32 exactly (both are fnv_step runs).
struct FusedChains {
  std::uint32_t sum = kFnvBasis;
  std::uint32_t cert = kFnvBasis;  // callers start it past the key absorb

  // Bytes [begin, end) into the checksum only.
  void unsigned_bytes(const std::uint8_t* rec, std::size_t begin,
                      std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum = fnv_step(sum, rec[i]);
  }
  // Bytes [begin, end) into both chains.
  void signed_bytes(const std::uint8_t* rec, std::size_t begin,
                    std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      sum = fnv_step(sum, rec[i]);
      cert = fnv_step(cert, rec[i]);
    }
  }
  // The checksum field [4, 8), absorbed as zero.
  void checksum_field() {
    for (int i = 0; i < 4; ++i) sum = fnv_step(sum, 0);
  }
};

constexpr std::uint64_t kServiceKey = cert_key(kServicePrincipal);
// The service chain after its leading key absorb — the same for every reply.
constexpr std::uint32_t kServiceCertStart = absorb_key(kFnvBasis, kServiceKey);

// True iff bytes [begin, end) are all zero.
bool zero_range(const std::uint8_t* rec, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i)
    if (rec[i] != 0) return false;
  return true;
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
  return hmac32(cert_key(req.client), buf, sizeof buf);
}

void encode_request(const Request& req, std::uint8_t* out) {
  std::memset(out, 0, kRequestWireSize);
  put<std::uint32_t>(out, 0, kRequestMagic);
  put<std::uint64_t>(out, 8, req.seq);
  put<std::uint64_t>(out, 16, req.arrival_us);
  put<std::uint32_t>(out, 24, req.client);
  put<std::uint8_t>(out, 28, static_cast<std::uint8_t>(req.kind));
  put<std::uint64_t>(out, 32, req.value);
  put<std::uint32_t>(out, 40, request_cert(req));
  put<std::uint32_t>(out, 4, record_checksum(out, kRequestWireSize));
}

Request decode_request(const std::uint8_t* in, std::uint32_t* expected_cert) {
  Request req;
  if (get<std::uint32_t>(in, 0) != kRequestMagic) return req;
  // request_cert's canonical signing buffer is exactly the wire bytes
  // [8, 29) and [32, 40), so the expected cert is one chain over them.
  const std::uint64_t key = cert_key(get<std::uint32_t>(in, 24));
  FusedChains chains{kFnvBasis, absorb_key(kFnvBasis, key)};
  chains.unsigned_bytes(in, 0, 4);
  chains.checksum_field();
  chains.signed_bytes(in, 8, 29);
  chains.unsigned_bytes(in, 29, 32);
  chains.signed_bytes(in, 32, 40);
  chains.unsigned_bytes(in, 40, kRequestWireSize);
  if (get<std::uint32_t>(in, 4) != chains.sum) return req;
  const std::uint8_t kind = get<std::uint8_t>(in, 28);
  if (kind > static_cast<std::uint8_t>(OpKind::kWrite)) return req;
  if (!zero_range(in, 29, 32) || !zero_range(in, 44, 48)) return req;
  req.seq = get<std::uint64_t>(in, 8);
  req.arrival_us = get<std::uint64_t>(in, 16);
  req.client = get<std::uint32_t>(in, 24);
  req.kind = static_cast<OpKind>(kind);
  req.value = get<std::uint64_t>(in, 32);
  req.cert = get<std::uint32_t>(in, 40);
  req.valid = true;
  if (expected_cert != nullptr) *expected_cert = absorb_key(chains.cert, key);
  return req;
}

void encode_reply(const Reply& rep, std::uint8_t* out) {
  std::memset(out, 0, kReplyWireSize);
  put<std::uint32_t>(out, 0, kReplyMagic);
  put<std::uint64_t>(out, 8, rep.seq);
  put<std::uint64_t>(out, 16, rep.latency_us);
  put<std::uint64_t>(out, 24, rep.value);
  put<std::uint64_t>(out, 32, rep.ts.counter);
  put<std::uint32_t>(out, 40, static_cast<std::uint32_t>(rep.ts.writer));
  put<std::uint32_t>(out, 44, rep.probes);
  put<std::uint8_t>(out, 48, static_cast<std::uint8_t>(rep.kind));
  put<std::uint8_t>(out, 49, rep.ok ? 1 : 0);
  // Service signature over the semantic bytes [8, 52) — after the fields,
  // before the checksum, so the cert is itself checksummed: the checksum
  // chain absorbs the finished cert bytes last.
  FusedChains chains{kFnvBasis, kServiceCertStart};
  chains.unsigned_bytes(out, 0, 4);
  chains.checksum_field();
  chains.signed_bytes(out, 8, 52);
  put<std::uint32_t>(out, 52, absorb_key(chains.cert, kServiceKey));
  chains.unsigned_bytes(out, 52, kReplyWireSize);
  put<std::uint32_t>(out, 4, chains.sum);
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
  out->ok = get<std::uint8_t>(in, 49) != 0;
  return true;
}

}  // namespace sqs
