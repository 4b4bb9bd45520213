// Tests of the staged replicated-register service (src/service): wire
// format, CLI flag parsing, open-loop load generation, the explicit-time
// replica, and the ServiceRunner's headline contracts — bit-identical
// results at any thread count, queueing delay that rises with offered
// rate, and no lost acked write under a FaultPlan partition.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/fault_plan.h"
#include "obs/recorder.h"
#include "runtime/thread_pool.h"
#include "service/load_gen.h"
#include "service/message.h"
#include "service/runner.h"
#include "sim/replica.h"
#include "uqs/majority.h"
#include "util/rng.h"

namespace sqs {
namespace {

// Recompute a record's checksum the way the codec does (FNV-1a with bytes
// [4, 8) zeroed) — lets tests forge records that pass the integrity check
// so the *semantic* rejections (kind range, reserved bytes, certificates)
// are what's actually under test.
std::uint32_t forge_checksum(const std::uint8_t* rec, std::size_t size) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint8_t byte = (i >= 4 && i < 8) ? 0 : rec[i];
    h ^= byte;
    h *= 16777619u;
  }
  return h;
}

void poke_u32(std::uint8_t* rec, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    rec[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t peek_u32(const std::uint8_t* rec, std::size_t offset) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(rec[offset + i]) << (8 * i);
  return v;
}

void fix_request_checksum(std::uint8_t* rec) {
  poke_u32(rec, 4, forge_checksum(rec, kRequestWireSize));
}

// Re-signs the reply with the service key and refreshes the checksum, so a
// tampered reply is internally consistent except for the field under test.
void resign_reply(std::uint8_t* rec) {
  poke_u32(rec, 52, hmac32(cert_key(kServicePrincipal), rec + 8, 44));
  poke_u32(rec, 4, forge_checksum(rec, kReplyWireSize));
}

// --- wire format ------------------------------------------------------------

TEST(ServiceWire, RequestRoundTrip) {
  Request req;
  req.seq = 0x1122334455667788ull;
  req.arrival_us = 987654321;
  req.value = 42;
  req.client = 63;
  req.kind = OpKind::kWrite;
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  const Request out = decode_request(buf);
  ASSERT_TRUE(out.valid);
  EXPECT_EQ(out.seq, req.seq);
  EXPECT_EQ(out.arrival_us, req.arrival_us);
  EXPECT_EQ(out.value, req.value);
  EXPECT_EQ(out.client, req.client);
  EXPECT_EQ(out.kind, req.kind);
  EXPECT_DOUBLE_EQ(out.arrival(), 987.654321);
}

TEST(ServiceWire, ReplyRoundTrip) {
  Reply rep;
  rep.seq = 7;
  rep.latency_us = 123456;
  rep.value = 99;
  rep.ts = Timestamp{12, 3};
  rep.probes = 5;
  rep.kind = OpKind::kRead;
  rep.ok = true;
  std::uint8_t buf[kReplyWireSize];
  encode_reply(rep, buf);
  Reply out;
  ASSERT_TRUE(decode_reply(buf, &out));
  EXPECT_EQ(out.seq, rep.seq);
  EXPECT_EQ(out.latency_us, rep.latency_us);
  EXPECT_EQ(out.value, rep.value);
  EXPECT_TRUE(out.ts == rep.ts);
  EXPECT_EQ(out.probes, rep.probes);
  EXPECT_EQ(out.kind, rep.kind);
  EXPECT_TRUE(out.ok);

  // Seeded random replies: encode_reply computes its cert and checksum in
  // one fused pass, which must equal the unfused definitions — hmac32 over
  // bytes [8, 52) and the record checksum — byte for byte.
  Rng rng(31);
  for (int k = 0; k < 500; ++k) {
    Reply r;
    r.seq = rng.next_u64();
    r.latency_us = rng.next_u64();
    r.value = rng.next_u64();
    r.ts = Timestamp{rng.next_u64(), static_cast<int>(rng.next_u64())};
    r.probes = static_cast<std::uint32_t>(rng.next_u64());
    r.kind = rng.bernoulli(0.5) ? OpKind::kRead : OpKind::kWrite;
    r.ok = rng.bernoulli(0.5);
    encode_reply(r, buf);
    EXPECT_EQ(peek_u32(buf, 52),
              hmac32(cert_key(kServicePrincipal), buf + 8, 44))
        << "record " << k;
    EXPECT_EQ(peek_u32(buf, 4), forge_checksum(buf, kReplyWireSize))
        << "record " << k;
    ASSERT_TRUE(decode_reply(buf, &out)) << "record " << k;
    EXPECT_EQ(out.value, r.value);
  }
}

TEST(ServiceWire, ChecksumCatchesCorruption) {
  Request req;
  req.seq = 5;
  req.arrival_us = 1000;
  req.kind = OpKind::kRead;
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  // Flipping any single bit outside the checksum field itself must be
  // caught (the checksum bytes live at [4, 8)).
  for (std::size_t i = 0; i < kRequestWireSize; ++i) {
    if (i >= 4 && i < 8) continue;
    buf[i] ^= 0x01;
    EXPECT_FALSE(decode_request(buf).valid) << "byte " << i;
    buf[i] ^= 0x01;
  }
  EXPECT_TRUE(decode_request(buf).valid);  // restored
}

TEST(ServiceWire, BadMagicAndBadKindRejected) {
  Request req;
  req.kind = OpKind::kWrite;
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  std::uint8_t mangled[kRequestWireSize];
  std::memcpy(mangled, buf, kRequestWireSize);
  mangled[0] ^= 0xFF;  // magic
  EXPECT_FALSE(decode_request(mangled).valid);

  Reply rep;
  std::uint8_t rbuf[kReplyWireSize];
  encode_reply(rep, rbuf);
  rbuf[0] ^= 0xFF;
  Reply out;
  EXPECT_FALSE(decode_reply(rbuf, &out));
}

TEST(ServiceWire, ReplyRejectsOutOfRangeKind) {
  // Regression: decode_reply used to accept any kind byte and hand back a
  // Reply whose OpKind was neither kRead nor kWrite. A forged record that
  // is otherwise fully consistent (valid cert, valid checksum) must fail
  // on the range check alone.
  Reply rep;
  rep.seq = 9;
  rep.ok = true;
  rep.kind = OpKind::kRead;
  std::uint8_t buf[kReplyWireSize];
  encode_reply(rep, buf);
  Reply out;
  for (const std::uint8_t kind : {2, 3, 200, 255}) {
    buf[48] = kind;
    resign_reply(buf);
    EXPECT_FALSE(decode_reply(buf, &out)) << "kind " << int(kind);
  }
  buf[48] = static_cast<std::uint8_t>(OpKind::kWrite);
  resign_reply(buf);
  EXPECT_TRUE(decode_reply(buf, &out));
}

TEST(ServiceWire, GarbageReservedBytesRejectedDespiteValidChecksum) {
  // Reserved bytes are zeroed on encode AND enforced on decode: garbage
  // there with a recomputed (matching) checksum must still fail, keeping
  // the bytes available for future protocol versions.
  Request req;
  req.seq = 3;
  req.kind = OpKind::kRead;
  std::uint8_t rbuf[kRequestWireSize];
  encode_request(req, rbuf);
  for (const std::size_t off : {std::size_t{29}, std::size_t{31},
                                std::size_t{44}, std::size_t{47}}) {
    rbuf[off] = 0xAB;
    fix_request_checksum(rbuf);
    EXPECT_FALSE(decode_request(rbuf).valid) << "reserved byte " << off;
    rbuf[off] = 0;
  }
  fix_request_checksum(rbuf);
  EXPECT_TRUE(decode_request(rbuf).valid);

  Reply rep;
  rep.kind = OpKind::kRead;
  std::uint8_t pbuf[kReplyWireSize];
  encode_reply(rep, pbuf);
  Reply out;
  for (const std::size_t off : {std::size_t{50}, std::size_t{51}}) {
    pbuf[off] = 0x5C;
    resign_reply(pbuf);
    EXPECT_FALSE(decode_reply(pbuf, &out)) << "reserved byte " << off;
    pbuf[off] = 0;
  }
  resign_reply(pbuf);
  EXPECT_TRUE(decode_reply(pbuf, &out));
}

TEST(ServiceWire, ReplyCertCatchesTamperingTheChecksumWouldAccept) {
  // Flip a payload byte and *fix the checksum*: only the service
  // certificate stands between the tampered record and acceptance.
  Reply rep;
  rep.value = 77;
  rep.kind = OpKind::kRead;
  std::uint8_t buf[kReplyWireSize];
  encode_reply(rep, buf);
  buf[24] ^= 0xFF;  // value field
  poke_u32(buf, 4, forge_checksum(buf, kReplyWireSize));
  Reply out;
  EXPECT_FALSE(decode_reply(buf, &out));
}

TEST(ServiceWire, RequestCertBindsClientAndContents) {
  Request req;
  req.seq = 11;
  req.client = 3;
  req.kind = OpKind::kWrite;
  req.value = 42;
  const std::uint32_t cert = request_cert(req);
  Request other = req;
  other.client = 4;  // different principal, different key
  EXPECT_NE(request_cert(other), cert);
  other = req;
  other.value = 43;  // different contents under the same key
  EXPECT_NE(request_cert(other), cert);
  // Round trip preserves the cert for the prologue to verify.
  std::uint8_t buf[kRequestWireSize];
  encode_request(req, buf);
  const Request decoded = decode_request(buf);
  ASSERT_TRUE(decoded.valid);
  EXPECT_EQ(decoded.cert, cert);

  // Seeded random requests: decode_request computes the expected cert in
  // the checksum's pass, which must equal request_cert of what it decoded —
  // for the record as sent, after one flipped byte in a signed range
  // (contents change, the expected cert follows them), and after one in an
  // unsigned range (the carried cert changes, the expected one does not).
  // Each mutant gets a recomputed checksum so it still decodes.
  Rng rng(37);
  for (int k = 0; k < 500; ++k) {
    Request r;
    r.seq = rng.next_u64();
    r.arrival_us = rng.next_u64();
    r.value = rng.next_u64();
    r.client = static_cast<std::uint32_t>(rng.next_u64());
    r.kind = rng.bernoulli(0.5) ? OpKind::kRead : OpKind::kWrite;
    encode_request(r, buf);
    std::uint32_t expected = 0;
    Request got = decode_request(buf, &expected);
    ASSERT_TRUE(got.valid) << "record " << k;
    EXPECT_EQ(expected, request_cert(got)) << "record " << k;
    EXPECT_EQ(expected, got.cert) << "record " << k;

    // Signed ranges: [8, 29) (seq, arrival_us, client, kind) and [32, 40)
    // (value). Flipping bit 0 of the kind byte keeps it in range.
    std::uint8_t mutant[kRequestWireSize];
    std::memcpy(mutant, buf, kRequestWireSize);
    const std::size_t pick = rng.next_below(29);
    const std::size_t at = pick < 21 ? 8 + pick : 32 + (pick - 21);
    mutant[at] ^= at == 28 ? 0x01
                           : static_cast<std::uint8_t>(1 + rng.next_below(255));
    fix_request_checksum(mutant);
    got = decode_request(mutant, &expected);
    ASSERT_TRUE(got.valid) << "record " << k << " signed byte " << at;
    EXPECT_EQ(expected, request_cert(got)) << "record " << k << " byte " << at;
    EXPECT_NE(expected, got.cert) << "record " << k << " byte " << at;

    // Unsigned range that still decodes: the carried cert [40, 44).
    std::memcpy(mutant, buf, kRequestWireSize);
    const std::size_t cert_at = 40 + rng.next_below(4);
    mutant[cert_at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    fix_request_checksum(mutant);
    got = decode_request(mutant, &expected);
    ASSERT_TRUE(got.valid) << "record " << k << " unsigned byte " << cert_at;
    EXPECT_EQ(expected, request_cert(got)) << "record " << k;
    EXPECT_EQ(expected, request_cert(r)) << "record " << k;
    EXPECT_NE(expected, got.cert) << "record " << k;
  }
}

TEST(ServiceWire, ReplicaCertBindsReplicaAndState) {
  const Timestamp ts{5, 2};
  const std::uint32_t cert = replica_cert(1, ts, 99);
  EXPECT_NE(replica_cert(2, ts, 99), cert);        // different replica key
  EXPECT_NE(replica_cert(1, ts, 100), cert);       // different value
  EXPECT_NE(replica_cert(1, Timestamp{6, 2}, 99), cert);  // different ts
  EXPECT_EQ(replica_cert(1, ts, 99), cert);        // deterministic
}

void poke_le(std::uint8_t* buf, std::size_t offset, std::uint64_t v,
             std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    buf[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// The certificates as they were signed before the key schedule existed:
// hmac32 under cert_key(principal), over each record type's signing
// buffer.
std::uint32_t unscheduled_replica_cert(int replica, const Timestamp& ts,
                                       std::uint64_t value) {
  std::uint8_t buf[20];
  poke_le(buf, 0, ts.counter, 8);
  poke_le(buf, 8, static_cast<std::uint32_t>(ts.writer), 4);
  poke_le(buf, 12, value, 8);
  return hmac32(cert_key(kReplicaPrincipalBase +
                         static_cast<std::uint64_t>(replica)),
                buf, sizeof buf);
}

std::uint32_t unscheduled_request_cert(const Request& req) {
  std::uint8_t buf[29];
  poke_le(buf, 0, req.seq, 8);
  poke_le(buf, 8, req.arrival_us, 8);
  poke_le(buf, 16, req.client, 4);
  poke_le(buf, 20, static_cast<std::uint8_t>(req.kind), 1);
  poke_le(buf, 21, req.value, 8);
  return hmac32(cert_key(req.client), buf, sizeof buf);
}

TEST(ServiceWire, KeyScheduleMatchesTheUnscheduledHmac) {
  // 10^5 seeded (principal, ts, value) triples: the keyed certificate
  // forms equal hmac32(cert_key(p), buf) over the signing buffers they
  // replaced, at the edges too (writer -1, counter 0 and 2^64-1, replica
  // and client ids far outside any precomputed table).
  Rng rng(2024);
  const std::uint64_t edge_counters[] = {0, 1, ~0ull};
  int mismatches = 0;
  for (int i = 0; i < 100000 && mismatches < 5; ++i) {
    int replica = 0;
    std::uint32_t client = 0;
    switch (i % 4) {
      case 0:
        replica = static_cast<int>(rng.next_below(64));
        client = static_cast<std::uint32_t>(rng.next_below(64));
        break;
      case 1:
        replica = 256 + static_cast<int>(rng.next_below(1u << 20));
        client = 256 + static_cast<std::uint32_t>(rng.next_below(1u << 20));
        break;
      case 2:
        replica = 0x7FFFFFFF - static_cast<int>(rng.next_below(16));
        client = 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.next_below(16));
        break;
      default:
        replica = static_cast<int>(rng.next_below(1u << 31));
        client = static_cast<std::uint32_t>(rng.next_u64());
    }
    const Timestamp ts{i % 7 < 3 ? edge_counters[i % 7] : rng.next_u64(),
                       i % 5 == 0 ? -1
                                  : static_cast<int>(rng.next_below(1u << 31))};
    const std::uint64_t value = rng.next_u64();
    const std::uint32_t expected = unscheduled_replica_cert(replica, ts, value);
    if (replica_cert(replica_signing_key(replica), ts, value) != expected ||
        replica_cert(replica, ts, value) != expected) {
      ADD_FAILURE() << "replica cert differs: replica " << replica << " ts ("
                    << ts.counter << ", " << ts.writer << ") value " << value;
      ++mismatches;
    }

    Request req;
    req.seq = rng.next_u64();
    req.arrival_us = i % 3 == 0 ? ~0ull : rng.next_u64();
    req.client = client;
    req.kind = i % 2 == 0 ? OpKind::kRead : OpKind::kWrite;
    req.value = value;
    std::uint8_t rec[kRequestWireSize];
    encode_request(req, rec);
    std::uint32_t decoded_expected = 0;
    const Request back = decode_request(rec, &decoded_expected);
    const std::uint32_t want = unscheduled_request_cert(req);
    if (request_cert(req) != want || peek_u32(rec, 40) != want ||
        !back.valid || decoded_expected != want) {
      ADD_FAILURE() << "request cert differs: client " << client;
      ++mismatches;
    }

    Reply rep;
    rep.seq = req.seq;
    rep.latency_us = rng.next_u64();
    rep.value = value;
    rep.ts = ts;
    rep.probes = static_cast<std::uint32_t>(rng.next_u64());
    rep.kind = req.kind;
    rep.ok = i % 3 != 0;
    std::uint8_t out[kReplyWireSize];
    encode_reply(rep, out);
    if (peek_u32(out, 52) != hmac32(cert_key(kServicePrincipal), out + 8, 44) ||
        peek_u32(out, 4) != forge_checksum(out, kReplyWireSize)) {
      ADD_FAILURE() << "reply cert or checksum differs at " << i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ServiceWire, BatchCodecMatchesTheOneRecordCodec) {
  // decode_requests / encode_replies run several records per pass; the
  // result must be record-for-record the one-record codec's, for counts
  // around the group size, with corrupt records mixed in, and the folded
  // fingerprint must be FNV-1a 64 over the encoded bytes.
  Rng rng(77);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{8}, std::size_t{13}, std::size_t{257}}) {
    std::vector<std::uint8_t> wire(count * kRequestWireSize);
    std::vector<Reply> replies(count);
    for (std::size_t i = 0; i < count; ++i) {
      Request req;
      req.seq = i;
      req.arrival_us = rng.next_u64();
      req.client = static_cast<std::uint32_t>(rng.next_below(300));
      req.kind = rng.bernoulli(0.5) ? OpKind::kRead : OpKind::kWrite;
      req.value = rng.next_u64();
      std::uint8_t* rec = wire.data() + i * kRequestWireSize;
      encode_request(req, rec);
      if (i % 5 == 2) rec[rng.next_below(kRequestWireSize)] ^= 0x10;
      if (i % 7 == 3) {  // a forged cert behind a valid checksum
        rec[40] ^= 0xFF;
        fix_request_checksum(rec);
      }
      Reply& rep = replies[i];
      rep.seq = i;
      rep.latency_us = rng.next_u64();
      rep.value = rng.next_u64();
      rep.ts = Timestamp{rng.next_u64(), static_cast<int>(rng.next_below(64)) - 1};
      rep.probes = static_cast<std::uint32_t>(rng.next_below(100));
      rep.kind = req.kind;
      rep.ok = rng.bernoulli(0.7);
    }

    std::vector<Request> batch(count);
    std::vector<std::uint32_t> certs(count, 0);
    decode_requests(wire.data(), count, batch.data(), certs.data());
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t cert = 0;
      const Request one = decode_request(wire.data() + i * kRequestWireSize, &cert);
      ASSERT_EQ(batch[i].valid, one.valid) << "count " << count << " i " << i;
      if (!one.valid) continue;
      EXPECT_EQ(batch[i].seq, one.seq);
      EXPECT_EQ(batch[i].arrival_us, one.arrival_us);
      EXPECT_EQ(batch[i].client, one.client);
      EXPECT_EQ(batch[i].kind, one.kind);
      EXPECT_EQ(batch[i].value, one.value);
      EXPECT_EQ(batch[i].cert, one.cert);
      EXPECT_EQ(certs[i], cert);
      EXPECT_EQ(cert, request_cert(one));
    }

    std::vector<std::uint8_t> single(count * kReplyWireSize);
    for (std::size_t i = 0; i < count; ++i)
      encode_reply(replies[i], single.data() + i * kReplyWireSize);
    std::vector<std::uint8_t> grouped(count * kReplyWireSize, 0xAB);
    encode_replies(replies.data(), count, grouped.data());
    EXPECT_EQ(grouped, single) << "count " << count;
    std::vector<std::uint8_t> folded(count * kReplyWireSize, 0xCD);
    std::uint64_t fingerprint = 12345;
    encode_replies(replies.data(), count, folded.data(), &fingerprint);
    EXPECT_EQ(folded, single) << "count " << count;
    std::uint64_t h = 12345;
    for (const std::uint8_t byte : single) h = (h ^ byte) * 1099511628211ull;
    EXPECT_EQ(fingerprint, h) << "count " << count;
    EXPECT_EQ(fold_fingerprint(12345, single.data(), single.size()), h);
  }
}

// The request record the wire layout specifies, built field by field with
// the unbatched request_cert and checksum: the reference encode_requests
// and encode_request must reproduce byte for byte.
std::vector<std::uint8_t> reference_request_record(const Request& req) {
  std::vector<std::uint8_t> rec(kRequestWireSize, 0);
  const auto poke = [&](std::size_t offset, std::uint64_t v, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i)
      rec[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  poke(0, kRequestMagic, 4);
  poke(8, req.seq, 8);
  poke(16, req.arrival_us, 8);
  poke(24, req.client, 4);
  poke(28, static_cast<std::uint8_t>(req.kind), 1);
  poke(32, req.value, 8);
  poke(40, request_cert(req), 4);
  fix_request_checksum(rec.data());
  return rec;
}

TEST(ServiceWire, BatchRequestEncoderMatchesTheWireLayout) {
  // encode_requests runs 4 records per pass; every record, at counts off
  // the group size, must be the reference record, for clients with
  // precomputed key schedules (< 256) and without, and both kinds.
  Rng rng(91);
  for (const std::size_t count :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{7}, std::size_t{9}, std::size_t{130}}) {
    std::vector<Request> reqs(count);
    for (std::size_t i = 0; i < count; ++i) {
      Request& req = reqs[i];
      req.seq = rng.next_u64();
      req.arrival_us = rng.next_u64();
      req.client = i % 3 == 0 ? static_cast<std::uint32_t>(rng.next_below(256))
                              : static_cast<std::uint32_t>(
                                    256 + rng.next_below(1u << 31));
      req.kind = i % 2 == 0 ? OpKind::kRead : OpKind::kWrite;
      req.value = req.kind == OpKind::kWrite ? rng.next_u64() : 0;
    }
    std::vector<std::uint8_t> grouped(count * kRequestWireSize, 0xAB);
    encode_requests(reqs.data(), count, grouped.data());
    for (std::size_t i = 0; i < count; ++i) {
      const std::vector<std::uint8_t> expected = reference_request_record(reqs[i]);
      const std::vector<std::uint8_t> got(
          grouped.begin() + static_cast<std::ptrdiff_t>(i * kRequestWireSize),
          grouped.begin() + static_cast<std::ptrdiff_t>((i + 1) * kRequestWireSize));
      EXPECT_EQ(got, expected) << "count " << count << " record " << i
                               << " client " << reqs[i].client;
      std::vector<std::uint8_t> one(kRequestWireSize, 0xCD);
      encode_request(reqs[i], one.data());
      EXPECT_EQ(one, expected) << "record " << i;
      std::uint32_t cert = 0;
      const Request decoded = decode_request(got.data(), &cert);
      ASSERT_TRUE(decoded.valid) << "record " << i;
      EXPECT_EQ(decoded.cert, cert) << "record " << i;
    }
  }
}

// One random edit of a wire record: replace a byte, truncate to a
// zero-padded buffer, or flip a bit.
void mutate_record(std::uint8_t* rec, std::size_t size, Rng& rng) {
  switch (rng.next_below(3)) {
    case 0:
      rec[rng.next_below(size)] = static_cast<std::uint8_t>(rng.next_u64());
      break;
    case 1: {
      const std::size_t keep = rng.next_below(size);
      std::memset(rec + keep, 0, size - keep);
      break;
    }
    default:
      rec[rng.next_below(size)] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      break;
  }
}

TEST(ServiceWire, FuzzedRecordsAreRejectedOrRoundTrip) {
  // 20k mutants of valid records. After the edit a mutant keeps its stale
  // checksum, gets a recomputed one, or is fully re-signed (checksum and
  // certificate, as a key holder could) — so the magic, kind, reserved-
  // byte, certificate and canonical-form checks are all reached, not just
  // the checksum. A mutant must be rejected, or decode to a record that
  // re-encodes to the mutant's exact bytes. A request counts as accepted
  // only if its carried certificate is the one decode computes, the check
  // the runner's prologue makes.
  Rng rng(0xf022c0de);
  int rejected = 0;
  int accepted = 0;
  int changed_and_accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const int resign = static_cast<int>(rng.next_below(3));
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    if (rng.bernoulli(0.5)) {
      Request req;
      req.seq = rng.next_u64();
      req.arrival_us = rng.next_u64();
      req.value = rng.next_u64();
      req.client = static_cast<std::uint32_t>(rng.next_below(64));
      req.kind = rng.bernoulli(0.5) ? OpKind::kRead : OpKind::kWrite;
      std::uint8_t original[kRequestWireSize];
      encode_request(req, original);
      std::uint8_t rec[kRequestWireSize];
      std::memcpy(rec, original, sizeof rec);
      for (int e = 0; e < edits; ++e) mutate_record(rec, sizeof rec, rng);
      if (resign >= 1) fix_request_checksum(rec);
      std::uint32_t expected = 0;
      if (resign == 2 && decode_request(rec, &expected).valid) {
        poke_u32(rec, 40, expected);
        fix_request_checksum(rec);
      }
      const Request got = decode_request(rec, &expected);
      if (!got.valid || got.cert != expected) {
        ++rejected;
        continue;
      }
      ++accepted;
      if (std::memcmp(rec, original, sizeof rec) != 0) ++changed_and_accepted;
      std::uint8_t again[kRequestWireSize];
      encode_request(got, again);
      ASSERT_EQ(std::memcmp(again, rec, sizeof rec), 0) << "mutant " << i;
    } else {
      Reply rep;
      rep.seq = rng.next_u64();
      rep.latency_us = rng.next_u64();
      rep.value = rng.next_u64();
      rep.ts = Timestamp{rng.next_u64(), static_cast<int>(rng.next_below(64))};
      rep.probes = static_cast<std::uint32_t>(rng.next_below(100));
      rep.kind = rng.bernoulli(0.5) ? OpKind::kRead : OpKind::kWrite;
      rep.ok = rng.bernoulli(0.5);
      std::uint8_t original[kReplyWireSize];
      encode_reply(rep, original);
      std::uint8_t rec[kReplyWireSize];
      std::memcpy(rec, original, sizeof rec);
      for (int e = 0; e < edits; ++e) mutate_record(rec, sizeof rec, rng);
      if (resign == 1) poke_u32(rec, 4, forge_checksum(rec, kReplyWireSize));
      if (resign == 2) resign_reply(rec);
      Reply got;
      if (!decode_reply(rec, &got)) {
        ++rejected;
        continue;
      }
      ++accepted;
      if (std::memcmp(rec, original, sizeof rec) != 0) ++changed_and_accepted;
      std::uint8_t again[kReplyWireSize];
      encode_reply(got, again);
      ASSERT_EQ(std::memcmp(again, rec, sizeof rec), 0) << "mutant " << i;
    }
  }
  // A mutator that never reaches an outcome tests too little: re-signed
  // edits of semantic fields must decode and round-trip.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(changed_and_accepted, 0);
  EXPECT_GE(accepted, changed_and_accepted);
}

// --- flag parsing -----------------------------------------------------------

TEST(ServiceFlags, ParsePositiveDoubleAccepts) {
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "2000"), 2000.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_positive_double("--duration", "1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--duration", "0.25"), 0.25);
}

TEST(ServiceFlags, ParsePositiveDoubleRejectsLoudly) {
  // Malformed input returns the 0.0 sentinel (and complains on stderr)
  // instead of silently defaulting — same contract as parse_thread_count.
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "bogus"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", ""), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "12x"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "-3"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "inf"), 0.0);
  EXPECT_DOUBLE_EQ(parse_positive_double("--rate", "nan"), 0.0);
}

// --- load generation --------------------------------------------------------

TEST(ServiceLoadGen, ConfigValidation) {
  LoadGenConfig good;
  EXPECT_TRUE(good.validate());
  LoadGenConfig bad = good;
  bad.rate = 0.0;
  EXPECT_FALSE(bad.validate());
  bad = good;
  bad.duration = -1.0;
  EXPECT_FALSE(bad.validate());
  bad = good;
  bad.read_fraction = 1.5;
  EXPECT_FALSE(bad.validate());
  bad = good;
  bad.num_clients = 0;
  EXPECT_FALSE(bad.validate());
}

LoadGenConfig small_load() {
  LoadGenConfig load;
  load.rate = 500.0;
  load.duration = 4.0;  // 2000 ops
  load.num_clients = 16;
  load.seed = 7;
  return load;
}

TEST(ServiceLoadGen, ByteIdenticalAcrossThreadCounts) {
  TrialOptions one, eight;
  one.threads = 1;
  eight.threads = 8;
  const std::vector<std::uint8_t> a = generate_load(small_load(), one);
  const std::vector<std::uint8_t> b = generate_load(small_load(), eight);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), small_load().total_ops() * kRequestWireSize);
}

TEST(ServiceLoadGen, ArrivalsMonotoneAndSchedulePlausible) {
  const LoadGenConfig load = small_load();
  const std::vector<std::uint8_t> bytes = generate_load(load);
  const std::uint64_t n = load.total_ops();
  std::uint64_t last = 0, reads = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Request req = decode_request(bytes.data() + i * kRequestWireSize);
    ASSERT_TRUE(req.valid) << "op " << i;
    EXPECT_EQ(req.seq, i);
    EXPECT_GE(req.arrival_us, last);  // arrival-sorted
    last = req.arrival_us;
    EXPECT_LT(req.client, static_cast<std::uint32_t>(load.num_clients));
    if (req.kind == OpKind::kRead) ++reads;
    // op i arrives inside its own rate slot: [i, i+1) / rate.
    EXPECT_GE(req.arrival(), static_cast<double>(i) / load.rate - 1e-6);
    EXPECT_LT(req.arrival(), static_cast<double>(i + 1) / load.rate);
  }
  // Read mix near the configured fraction (binomial, generous bounds).
  EXPECT_GT(reads, n * 7 / 10);
  EXPECT_LT(reads, n * 9 / 10);
  // The undecoded kind-byte count serve() sizes its audit set with.
  EXPECT_EQ(count_write_requests(bytes.data(), n), n - reads);
}

// --- explicit-time replica --------------------------------------------------

ServerConfig reliable_server() {
  ServerConfig config;
  config.mean_up = 1e12;
  config.mean_down = 1e-9;
  config.service_time = 0.001;
  return config;
}

TEST(ServiceReplicaTest, ServesAndQueuesOnTheArrivalClock) {
  Replica r(0, reliable_server(), Rng(1));
  // First op: no backlog, completion = delivery + service_time.
  const auto w1 = r.serve_write(Timestamp{1, 0}, 11, 0, 0.10, 0.10);
  ASSERT_TRUE(w1.has_value());
  EXPECT_DOUBLE_EQ(*w1, 0.101);
  // Second op arrives (qnow) before the first finishes: waits its turn.
  const auto w2 = r.serve_write(Timestamp{2, 0}, 22, 0, 0.1005, 0.1005);
  ASSERT_TRUE(w2.has_value());
  EXPECT_DOUBLE_EQ(*w2, 0.1005 + (0.101 - 0.1005) + 0.001);
  // Stale timestamp is acked but not applied.
  const auto w3 = r.serve_write(Timestamp{1, 0}, 99, 0, 0.2, 0.2);
  ASSERT_TRUE(w3.has_value());
  EXPECT_TRUE(r.timestamp(0) == (Timestamp{2, 0}));
  const auto rd = r.serve_read(0, 0.3, 0.3);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->value, 22u);
  EXPECT_EQ(r.ts_regressions(), 0u);
  EXPECT_GT(r.busy_seconds(), 0.0);
}

TEST(ServiceReplicaTest, ForcedCrashDropsRequests) {
  Replica r(0, reliable_server(), Rng(2));
  r.force_crash(1.0, 5.0);
  EXPECT_FALSE(r.up(3.0));
  EXPECT_FALSE(r.serve_read(0, 3.0, 3.0).has_value());
  EXPECT_FALSE(r.serve_write(Timestamp{1, 0}, 1, 0, 4.0, 4.0).has_value());
  EXPECT_EQ(r.dropped_requests(), 2u);
  EXPECT_TRUE(r.up(6.5));
  EXPECT_TRUE(r.serve_read(0, 6.5, 6.5).has_value());
}

TEST(ServiceReplicaTest, CachedCertMatchesFreshHashAcrossStateChanges) {
  // The replica re-signs its cell lazily, after writes, adopted state and
  // amnesia wipes. Oracle: every served read carries exactly the fresh
  // hash of the true stored state, lie windows included (a liar corrupts
  // the reported fields, never the signature over the truth).
  ServerConfig config;
  config.mean_up = 0.5;
  config.mean_down = 0.1;
  config.service_time = 0.0001;
  config.amnesia_on_recovery = true;
  const int id = 3;
  Replica r(id, config, Rng(11));
  Rng rng(12);
  double now = 0.0;
  std::uint64_t counter = 0;
  int reads = 0;
  for (int step = 0; step < 5000; ++step) {
    now += rng.exponential(200.0);
    const std::uint64_t value = rng.next_u64();
    const int writer = static_cast<int>(rng.next_below(8));
    switch (rng.next_below(6)) {
      case 0:  // a write; one in five repeats the last counter (often stale)
        r.serve_write(Timestamp{rng.bernoulli(0.2) ? counter : ++counter,
                                writer},
                      value, 0, now, now);
        break;
      case 1:  // epoch state transfer, sometimes behind the cell
        r.adopt_state(Timestamp{rng.bernoulli(0.2) ? counter / 2 : ++counter,
                                writer},
                      value);
        break;
      case 2:
        r.set_lie(static_cast<LieMode>(1 + rng.next_below(4)), now,
                  rng.exponential(50.0));
        break;
      default: {
        const auto served =
            r.serve_read(0, now, now, static_cast<int>(rng.next_below(4)));
        if (!served.has_value()) break;
        ++reads;
        EXPECT_EQ(served->cert, replica_cert(id, r.timestamp(0), r.value(0)))
            << "step " << step;
      }
    }
  }
  EXPECT_GT(reads, 1000);
  EXPECT_GT(r.lies_told(), 0u);
  // Reads served from a wiped cell below its high-water mark: amnesia
  // recoveries happened between reads.
  EXPECT_GT(r.ts_regressions(), 0u);
}

TEST(ServiceReplicaTest, GraySlowdownInflatesServiceTime) {
  Replica r(0, reliable_server(), Rng(3));
  r.set_gray(10.0, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(r.service_time(1.0), 0.010);
  EXPECT_DOUBLE_EQ(r.service_time(3.0), 0.001);  // window over
}

// --- the staged runner ------------------------------------------------------

ServiceConfig service_config() {
  ServiceConfig config;
  config.num_clients = 16;
  config.batch = 64;
  config.seed = 7;
  return config;
}

TEST(Service, ConfigValidation) {
  EXPECT_TRUE(service_config().validate(12));
  ServiceConfig bad = service_config();
  bad.batch = 0;
  EXPECT_FALSE(bad.validate(12));
  bad = service_config();
  bad.probe_timeout = -1.0;
  EXPECT_FALSE(bad.validate(12));
  bad = service_config();
  bad.num_clients = 0;
  EXPECT_FALSE(bad.validate(12));
  bad = service_config();
  bad.threads = -2;
  EXPECT_FALSE(bad.validate(12));
}

TEST(Service, BitIdenticalAcrossThreadCounts) {
  // Every thread count and batch size serves the same op order, so the
  // whole result is one deterministic function of (requests, config minus
  // threads and batch): reply bytes, fingerprint, every counter, the
  // latency histogram. Corrupt and forged records sit on both sides of
  // the batch boundaries (batch 1 makes every record a boundary).
  const OptDFamily family(12, 2);
  std::vector<std::uint8_t> requests = generate_load(small_load());
  const std::size_t n = requests.size() / kRequestWireSize;
  const std::size_t corrupt[] = {0, 6, 7, 255, 256, n - 1};
  const std::size_t forged[] = {13, 14, 511, 512, n - 2};
  for (const std::size_t i : corrupt)
    requests[i * kRequestWireSize + 32] ^= 0xFF;  // payload; checksum fails
  for (const std::size_t i : forged) {
    std::uint8_t* rec = requests.data() + i * kRequestWireSize;
    rec[40] ^= 0xFF;  // cert field
    fix_request_checksum(rec);
  }
  ServiceResult first;
  std::vector<std::uint8_t> first_replies;
  bool have_first = false;
  for (const int batch : {1, 7, 256}) {
    for (const int threads : {1, 2, 3, 4, 8}) {
      ServiceConfig config = service_config();
      config.batch = batch;
      config.threads = threads;
      ServiceRunner runner(family, config);
      std::vector<std::uint8_t> replies;
      const ServiceResult r = runner.serve(requests, &replies);
      EXPECT_EQ(r.requests, small_load().total_ops());
      EXPECT_EQ(r.decode_failures, std::size(corrupt));
      EXPECT_EQ(r.cert_rejects, std::size(forged));
      EXPECT_EQ(r.reads + r.writes + r.decode_failures + r.cert_rejects,
                r.requests);
      EXPECT_EQ(r.reply_fingerprint,
                fold_fingerprint(kFingerprintBasis, replies.data(),
                                 replies.size()));
      if (!have_first) {
        first = r;
        first_replies = std::move(replies);
        have_first = true;
        continue;
      }
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(replies, first_replies);
      EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
      EXPECT_EQ(r.reads_ok, first.reads_ok);
      EXPECT_EQ(r.writes_ok, first.writes_ok);
      EXPECT_EQ(r.stale_reads, first.stale_reads);
      EXPECT_EQ(r.probes, first.probes);
      EXPECT_EQ(r.write_acks, first.write_acks);
      EXPECT_EQ(r.net_delivered, first.net_delivered);
      EXPECT_EQ(r.net_dropped, first.net_dropped);
      EXPECT_EQ(r.latency_us.counts, first.latency_us.counts);
      EXPECT_EQ(r.latency_us.sum, first.latency_us.sum);
    }
  }
  for (const std::size_t i : corrupt) {
    Reply rep;
    ASSERT_TRUE(decode_reply(first_replies.data() + i * kReplyWireSize, &rep));
    EXPECT_EQ(rep.seq, i);
    EXPECT_FALSE(rep.ok);
  }
}

TEST(Service, FingerprintAndCountersIndependentOfTheReplyStream) {
  // With no reply stream requested, batches are encoded in ring slots and
  // folded there: the fingerprint and every counter match a run that
  // materializes the stream.
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  for (const int threads : {1, 4}) {
    ServiceConfig config = service_config();
    config.threads = threads;
    ServiceRunner with_stream(family, config);
    ServiceRunner without(family, config);
    std::vector<std::uint8_t> replies;
    const ServiceResult a = with_stream.serve(requests, &replies);
    const ServiceResult b = without.serve(requests);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(replies.size(), requests.size() / kRequestWireSize * kReplyWireSize);
    EXPECT_EQ(a.reply_fingerprint, b.reply_fingerprint);
    EXPECT_EQ(a.reads_ok, b.reads_ok);
    EXPECT_EQ(a.writes_ok, b.writes_ok);
    EXPECT_EQ(a.stale_reads, b.stale_reads);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.write_acks, b.write_acks);
    EXPECT_EQ(a.latency_us.counts, b.latency_us.counts);
  }
}

TEST(Service, SuccessiveServeCallsContinueTheStream) {
  // Two serve() calls on one runner (ring reused, audit set reserved
  // twice) answer exactly what one call over the whole stream answers, at
  // any thread count.
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  const std::size_t split = 777 * kRequestWireSize;
  const std::vector<std::uint8_t> head(requests.begin(),
                                       requests.begin() + split);
  const std::vector<std::uint8_t> tail(requests.begin() + split,
                                       requests.end());
  ServiceRunner whole_runner(family, service_config());
  std::vector<std::uint8_t> whole;
  const ServiceResult once = whole_runner.serve(requests, &whole);
  for (const int threads : {1, 3, 4}) {
    ServiceConfig config = service_config();
    config.threads = threads;
    ServiceRunner runner(family, config);
    std::vector<std::uint8_t> first, second;
    runner.serve(head, &first);
    const ServiceResult r = runner.serve(tail, &second);
    first.insert(first.end(), second.begin(), second.end());
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(first, whole);
    EXPECT_EQ(r.requests, once.requests);
    EXPECT_EQ(r.call_requests, tail.size() / kRequestWireSize);
    EXPECT_EQ(r.reply_fingerprint,
              fold_fingerprint(kFingerprintBasis, second.data(), second.size()));
    EXPECT_EQ(r.reads_ok, once.reads_ok);
    EXPECT_EQ(r.writes_ok, once.writes_ok);
    EXPECT_EQ(r.latency_us.counts, once.latency_us.counts);
  }
}

TEST(Service, ServeInsideAPoolWorkerRunsInline) {
  // A serve() on a pool thread must not wait on the pool it runs on: it
  // runs its stages inline and answers what a top-level call answers.
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  ServiceConfig config = service_config();
  config.threads = 4;
  ServiceRunner top(family, config);
  const ServiceResult expected = top.serve(requests);
  ServiceResult nested[2];
  ThreadPool::global(1).for_each_chunk(2, 2, [&](std::uint64_t c) {
    ServiceRunner runner(family, config);
    nested[c] = runner.serve(requests);
  });
  for (const ServiceResult& r : nested) {
    EXPECT_EQ(r.requests, expected.requests);
    EXPECT_EQ(r.reply_fingerprint, expected.reply_fingerprint);
    EXPECT_EQ(r.latency_us.counts, expected.latency_us.counts);
  }
}

TEST(Service, CorruptRequestCountedAndAnsweredNotOk) {
  const OptDFamily family(12, 2);
  std::vector<std::uint8_t> requests = generate_load(small_load());
  requests[5 * kRequestWireSize + 32] ^= 0xFF;  // corrupt op 5's payload
  ServiceRunner runner(family, service_config());
  std::vector<std::uint8_t> replies;
  const ServiceResult r = runner.serve(requests, &replies);
  EXPECT_EQ(r.decode_failures, 1u);
  EXPECT_EQ(r.requests, small_load().total_ops());
  Reply rep;
  ASSERT_TRUE(decode_reply(replies.data() + 5 * kReplyWireSize, &rep));
  EXPECT_EQ(rep.seq, 5u);
  EXPECT_FALSE(rep.ok);
}

TEST(Service, QueueingRaisesTailLatencyTowardSaturation) {
  // OPT_d probes sequentially, so server 0 sees every op: its capacity
  // (1/service_time = 1000 ops/s) caps the service. Offered load well past
  // that must show up as queueing delay in the tail; a trickle must not.
  const OptDFamily family(12, 2);
  LoadGenConfig trickle = small_load();
  trickle.rate = 100.0;
  trickle.duration = 20.0;  // 2000 ops
  LoadGenConfig flood = small_load();
  flood.rate = 5000.0;
  flood.duration = 1.0;  // 5000 ops in one virtual second
  ServiceRunner slow(family, service_config());
  ServiceRunner fast(family, service_config());
  const ServiceResult low = slow.serve(generate_load(trickle));
  const ServiceResult high = fast.serve(generate_load(flood));
  EXPECT_GT(high.latency_us.p99(), 2.0 * low.latency_us.p99());
  EXPECT_GT(high.latency_us.p50(), low.latency_us.p50());
}

TEST(Service, PartitionPreservesEveryAckedWrite) {
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());

  ServiceRunner plain_runner(family, service_config());
  const ServiceResult plain = plain_runner.serve(requests);

  // Cut server 0 (OPT_d's first probe target, so every op feels it) off
  // from every client for half the run.
  ServiceConfig partitioned = service_config();
  partitioned.plan.server_partition(1.0, 0, 2.0);
  ServiceRunner part_runner(family, partitioned);
  const ServiceResult part = part_runner.serve(requests);

  // The fault bit: ops during the window burn the probe timeout on server
  // 0, so total latency strictly grows and the reply stream differs.
  EXPECT_GT(part.latency_us.sum, plain.latency_us.sum);
  EXPECT_NE(part.reply_fingerprint, plain.reply_fingerprint);
  // The invariant: partitions delay and redirect, they do not destroy
  // state — every acked write stays readable on both runs.
  EXPECT_EQ(plain.lost_acked_writes, 0u);
  EXPECT_EQ(part.lost_acked_writes, 0u);
  EXPECT_GT(part.writes_ok, 0u);
}

TEST(Service, ForgedRequestCertRejectedInPrologue) {
  // An impersonated request (valid checksum, wrong client certificate) is
  // rejected by the parallel verify prologue before the solo stage: counted
  // as a cert reject, answered not-ok, never a decode failure.
  const OptDFamily family(12, 2);
  std::vector<std::uint8_t> requests = generate_load(small_load());
  std::uint8_t* rec = requests.data() + 7 * kRequestWireSize;
  rec[40] ^= 0xFF;  // cert field
  fix_request_checksum(rec);
  ServiceRunner runner(family, service_config());
  std::vector<std::uint8_t> replies;
  const ServiceResult r = runner.serve(requests, &replies);
  EXPECT_EQ(r.decode_failures, 0u);
  EXPECT_EQ(r.cert_rejects, 1u);
  Reply rep;
  ASSERT_TRUE(decode_reply(replies.data() + 7 * kReplyWireSize, &rep));
  EXPECT_EQ(rep.seq, 7u);
  EXPECT_FALSE(rep.ok);
}

// --- Byzantine replicas on the served path ----------------------------------

ServiceConfig byzantine_config(int n, int liars, int lie_tolerance) {
  ServiceConfig config = service_config();
  config.plan = make_byzantine_plan(n, liars, 0.5, 3.0);
  config.policy.lie_tolerance = lie_tolerance;
  return config;
}

TEST(ServiceByzantine, CertVerificationStripsLiesOffTheQuorumPath) {
  // Liars attach the truthful certificate to fabricated contents
  // (signatures are unforgeable in-model), so the verifying runner drops
  // every corrupted reply: cert rejects accumulate, fabrications never
  // reach a client.
  const MajorityFamily family(9);
  ServiceRunner runner(family, byzantine_config(9, 1, 0));
  const ServiceResult r = runner.serve(generate_load(small_load()));
  EXPECT_GT(r.cert_rejects, 0u);
  EXPECT_EQ(r.fabricated_reads, 0u);
  EXPECT_GT(r.reads_ok, 0u);
}

TEST(ServiceByzantine, AlternatingLieWindowsAreAllRejected) {
  // Replica 0 — OPT_d's first probe, so it answers every op — lies for
  // 2 ms of every 4 ms (about every other op at 500 ops/s) while writes
  // keep changing its register. The runner's verification memo sees
  // honest and fabricated reports interleaved; every lie must still miss
  // it and be rejected. Links and replicas never fail here, so every lie
  // reply is timely and cert_rejects counts exactly the lies told; hops
  // take ~0.2 ms so a probe lands inside the window its op arrived in.
  const OptDFamily family(12, 2);
  ServiceConfig config = service_config();
  config.network.base_latency = 1e-4;
  config.network.jitter_mean = 1e-4;
  config.network.link_mean_up = 1e12;
  config.network.link_mean_down = 1e-9;
  config.server = reliable_server();
  for (int k = 0; k < 1000; ++k)
    config.plan.lie(0.004 * k, 0, LieMode::kWrongValue, 0.002);
  ServiceRunner runner(family, config);
  const ServiceResult r = runner.serve(generate_load(small_load()));
  const std::uint64_t lies = runner.replica(0).lies_told();
  EXPECT_GT(lies, r.requests / 4);
  EXPECT_LT(lies, r.requests * 3 / 4);
  EXPECT_EQ(r.cert_rejects, lies);
  EXPECT_EQ(r.fabricated_reads, 0u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_GT(r.writes_ok, 0u);
  EXPECT_EQ(r.reads_ok, r.reads);
}

TEST(ServiceByzantine, UnverifiedUnvotedServiceReturnsFabrications) {
  // The designed-to-fail control: no cert verification and no masking vote
  // lets the boosted fabricated timestamps win the max fold.
  const MajorityFamily family(9);
  ServiceConfig config = byzantine_config(9, 1, 0);
  config.verify_replica_certs = false;
  ServiceRunner runner(family, config);
  const ServiceResult r = runner.serve(generate_load(small_load()));
  EXPECT_EQ(r.cert_rejects, 0u);
  EXPECT_GT(r.fabricated_reads, 0u);
}

TEST(ServiceByzantine, MaskingVoteAloneStopsFabrications) {
  // Even with certificates off, a masking family's b+1 vote cannot be
  // assembled by b liars (fabricated values are distinct per liar): zero
  // fabricated reads and no lost acked write.
  const MaskingThresholdFamily family(9, 1);
  ServiceConfig config = byzantine_config(9, 1, family.masking_b());
  config.verify_replica_certs = false;
  ServiceRunner runner(family, config);
  const ServiceResult r = runner.serve(generate_load(small_load()));
  EXPECT_EQ(r.fabricated_reads, 0u);
  EXPECT_EQ(r.lost_acked_writes, 0u);
  EXPECT_GT(r.reads_ok, 0u);
}

TEST(ServiceByzantine, BitIdenticalAcrossThreadCounts) {
  // The byzantine serve path (lie application, cert rejection, the masking
  // vote) lives entirely in the solo stage: replies stay byte-equal at any
  // thread count.
  const MaskingThresholdFamily family(9, 1);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  ServiceResult first;
  std::vector<std::uint8_t> first_replies;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config = byzantine_config(9, 1, family.masking_b());
    config.threads = threads;
    ServiceRunner runner(family, config);
    std::vector<std::uint8_t> replies;
    const ServiceResult r = runner.serve(requests, &replies);
    if (!have_first) {
      first = r;
      first_replies = std::move(replies);
      have_first = true;
      continue;
    }
    EXPECT_EQ(replies, first_replies) << "threads=" << threads;
    EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
    EXPECT_EQ(r.cert_rejects, first.cert_rejects);
    EXPECT_EQ(r.fabricated_reads, first.fabricated_reads);
    EXPECT_EQ(r.reads_ok, first.reads_ok);
    EXPECT_EQ(r.writes_ok, first.writes_ok);
    EXPECT_EQ(r.latency_us.counts, first.latency_us.counts);
  }
}

// --- The audit turn ----------------------------------------------------------

// Enables the flight recorder with rings large enough that no run here
// wraps, and restores the previous telemetry config on exit.
class FlightRecorderOn {
 public:
  FlightRecorderOn() : saved_(obs::current_config()) {
    obs::TelemetryConfig tc = saved_;
    tc.recorder = true;
    tc.flight_events = 1u << 17;
    obs::configure(tc);
    obs::reset_flight_recorder();
  }
  ~FlightRecorderOn() {
    obs::configure(saved_);
    obs::reset_flight_recorder();
  }

 private:
  obs::TelemetryConfig saved_;
};

using FlightKey = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t, int,
                             std::int32_t, std::uint64_t>;

std::vector<FlightKey> flight_keys() {
  std::vector<FlightKey> keys;
  for (const obs::FlightEvent& e : obs::collect_flight_events())
    keys.emplace_back(e.run, e.time_us, e.op, static_cast<int>(e.kind),
                      e.replica, e.payload);
  return keys;
}

std::uint64_t count_kind(const std::vector<FlightKey>& keys,
                         obs::FlightKind kind) {
  std::uint64_t n = 0;
  for (const FlightKey& k : keys)
    if (std::get<3>(k) == static_cast<int>(kind)) ++n;
  return n;
}

TEST(ServiceAudit, ViolationsIdenticalAcrossThreadCountsAndBatches) {
  // The audit (completed-write frontier, stale- and fabricated-read checks,
  // audit set, latency histogram, their flight events) runs behind the
  // sequencer on whichever thread holds the audit turn. Runs that trip both
  // checks must report the same counters, histogram and black box at every
  // thread count and batch size. The pinned counts are the single-pass
  // runner's, before the audit left the solo stage.
  struct Case {
    const char* name;
    std::shared_ptr<const QuorumFamily> family;
    ServiceConfig config;
    std::uint64_t stale_reads, fabricated_reads;
  };
  // Stale reads: writes during a partition of OPT_d's first four probe
  // targets land on the rest of the fleet; after it heals, reads acquire
  // among the four and return below the completed-write frontier.
  ServiceConfig partition = service_config();
  for (int s = 0; s < 4; ++s) partition.plan.server_partition(1.0, s, 1.0);
  // Fabricated reads: the unverified, unvoted Byzantine control.
  ServiceConfig liars = byzantine_config(9, 1, 0);
  liars.verify_replica_certs = false;
  const Case cases[] = {
      {"partition", std::make_shared<OptDFamily>(12, 2), partition, 97, 0},
      {"liars", std::make_shared<MajorityFamily>(9), liars, 0, 306},
  };
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  const FlightRecorderOn recorder;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ServiceResult first;
    std::vector<FlightKey> first_events;
    bool have_first = false;
    for (const int batch : {1, 7, 256}) {
      for (const int threads : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE("batch=" + std::to_string(batch) +
                     " threads=" + std::to_string(threads));
        ServiceConfig config = c.config;
        config.batch = batch;
        config.threads = threads;
        obs::reset_flight_recorder();
        ServiceRunner runner(*c.family, config);
        const ServiceResult r = runner.serve(requests);
        const std::vector<FlightKey> events = flight_keys();
        ASSERT_EQ(obs::flight_recorder_stats().overwritten, 0u);
        EXPECT_EQ(count_kind(events, obs::FlightKind::kStaleRead),
                  r.stale_reads);
        EXPECT_EQ(count_kind(events, obs::FlightKind::kFabricatedRead),
                  r.fabricated_reads);
        EXPECT_EQ(count_kind(events, obs::FlightKind::kOpDone),
                  r.reads + r.writes);
        if (!have_first) {
          EXPECT_EQ(r.stale_reads, c.stale_reads);
          EXPECT_EQ(r.fabricated_reads, c.fabricated_reads);
          first = r;
          first_events = events;
          have_first = true;
          continue;
        }
        EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
        EXPECT_EQ(r.stale_reads, first.stale_reads);
        EXPECT_EQ(r.fabricated_reads, first.fabricated_reads);
        EXPECT_EQ(r.reads_ok, first.reads_ok);
        EXPECT_EQ(r.writes_ok, first.writes_ok);
        EXPECT_EQ(r.lost_acked_writes, first.lost_acked_writes);
        EXPECT_EQ(r.latency_us.counts, first.latency_us.counts);
        EXPECT_EQ(r.latency_us.sum, first.latency_us.sum);
        EXPECT_EQ(r.latency_us.min, first.latency_us.min);
        EXPECT_EQ(r.latency_us.max, first.latency_us.max);
        EXPECT_TRUE(events == first_events);
      }
    }
  }
}

TEST(Service, LifetimeTotalsAccumulateAcrossServeCalls) {
  const OptDFamily family(12, 2);
  LoadGenConfig load = small_load();
  load.duration = 1.0;  // 500 ops
  const std::vector<std::uint8_t> requests = generate_load(load);
  ServiceRunner runner(family, service_config());
  const ServiceResult once = runner.serve(requests);
  const ServiceResult twice = runner.serve(requests);
  EXPECT_EQ(once.requests, load.total_ops());
  EXPECT_EQ(twice.requests, 2 * load.total_ops());
  EXPECT_GE(twice.probes, once.probes);
  // Throughput is per call: wall_ms covers only the second call, so its
  // numerator must too (the lifetime count would report double).
  ASSERT_GT(twice.wall_ms, 0.0);
  EXPECT_DOUBLE_EQ(twice.wall_ops_per_sec(),
                   static_cast<double>(load.total_ops()) /
                       (twice.wall_ms / 1e3));
  EXPECT_EQ(twice.call_requests, load.total_ops());
}

}  // namespace
}  // namespace sqs
