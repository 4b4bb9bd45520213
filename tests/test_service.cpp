// Tests of the staged replicated-register service (src/service): wire
// format, CLI flag parsing, open-loop load generation, the explicit-time
// replica, and the ServiceRunner's headline contracts — bit-identical
// results at any thread count, queueing delay that rises with offered
// rate, and no lost acked write under a FaultPlan partition.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/constructions.h"
#include "core/masking.h"
#include "faults/fault_plan.h"
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
  const OptDFamily family(12, 2);
  const std::vector<std::uint8_t> requests = generate_load(small_load());
  ServiceResult first;
  std::vector<std::uint8_t> first_replies;
  bool have_first = false;
  for (const int threads : {1, 2, 8}) {
    ServiceConfig config = service_config();
    config.threads = threads;
    ServiceRunner runner(family, config);
    std::vector<std::uint8_t> replies;
    const ServiceResult r = runner.serve(requests, &replies);
    EXPECT_EQ(r.requests, small_load().total_ops());
    EXPECT_EQ(r.decode_failures, 0u);
    EXPECT_EQ(r.reads + r.writes, r.requests);
    if (!have_first) {
      first = r;
      first_replies = std::move(replies);
      have_first = true;
      continue;
    }
    // The whole result is a deterministic function of (requests, config):
    // reply bytes, fingerprint, every counter, the latency histogram.
    EXPECT_EQ(replies, first_replies) << "threads=" << threads;
    EXPECT_EQ(r.reply_fingerprint, first.reply_fingerprint);
    EXPECT_EQ(r.reads_ok, first.reads_ok);
    EXPECT_EQ(r.writes_ok, first.writes_ok);
    EXPECT_EQ(r.stale_reads, first.stale_reads);
    EXPECT_EQ(r.probes, first.probes);
    EXPECT_EQ(r.net_delivered, first.net_delivered);
    EXPECT_EQ(r.net_dropped, first.net_dropped);
    EXPECT_EQ(r.latency_us.counts, first.latency_us.counts);
    EXPECT_EQ(r.latency_us.sum, first.latency_us.sum);
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
  config.lie_tolerance = lie_tolerance;
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
