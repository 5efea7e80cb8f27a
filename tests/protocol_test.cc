#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "core/flat.h"
#include "core/haar_hrr.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/wire.h"

namespace ldp {
namespace {

using protocol::FlatHrrClient;
using protocol::FlatHrrServer;
using protocol::HaarHrrClient;
using protocol::HaarHrrReport;
using protocol::HaarHrrServer;
using protocol::ParseHaarHrrReport;
using protocol::ParseHrrReport;
using protocol::SerializeHaarHrrReport;
using protocol::SerializeHrrReport;
using protocol::WireReader;

TEST(Wire, RoundTripIntegers) {
  std::vector<uint8_t> buf;
  protocol::AppendU8(buf, 0xAB);
  protocol::AppendU32(buf, 0xDEADBEEF);
  protocol::AppendU64(buf, 0x0123456789ABCDEFULL);
  WireReader reader(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFULL);
}

TEST(Wire, ReaderRejectsShortBuffers) {
  std::vector<uint8_t> buf = {1, 2, 3};
  WireReader reader(buf);
  uint64_t v = 0;
  EXPECT_FALSE(reader.ReadU64(&v));
  EXPECT_FALSE(reader.AtEnd());
  // A failed reader stays failed.
  uint8_t b = 0;
  EXPECT_FALSE(reader.ReadU8(&b));
}

TEST(Wire, TrailingBytesFailAtEnd) {
  std::vector<uint8_t> buf = {1, 2};
  WireReader reader(buf);
  uint8_t b = 0;
  EXPECT_TRUE(reader.ReadU8(&b));
  EXPECT_FALSE(reader.AtEnd());
}

TEST(Wire, RemainingTracksConsumption) {
  std::vector<uint8_t> buf(13, 0);
  WireReader reader(buf);
  EXPECT_EQ(reader.Remaining(), 13u);
  uint32_t u32 = 0;
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_EQ(reader.Remaining(), 9u);
  uint64_t u64 = 0;
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_EQ(reader.Remaining(), 1u);
  EXPECT_FALSE(reader.AtEnd());
  uint8_t u8 = 0;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_EQ(reader.Remaining(), 0u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(Wire, FailedReaderStaysFailedAndFreezesPosition) {
  // The AtEnd() footgun this pins: a failed reader must never "recover"
  // — every later read of any width fails, ok() stays false, Remaining()
  // is frozen at the failure point, and AtEnd() can never become true.
  std::vector<uint8_t> buf = {1, 2, 3};
  WireReader reader(buf);
  EXPECT_TRUE(reader.ok());
  uint64_t v = 0;
  EXPECT_FALSE(reader.ReadU64(&v));  // 8 > 3: fails without consuming
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.Remaining(), 3u);
  uint8_t b = 0;
  EXPECT_FALSE(reader.ReadU8(&b));  // would fit, but the reader is dead
  uint32_t u32 = 0;
  EXPECT_FALSE(reader.ReadU32(&u32));
  std::span<const uint8_t> bytes;
  EXPECT_FALSE(reader.ReadBytes(1, &bytes));
  EXPECT_FALSE(reader.ReadVarU64(&v));
  EXPECT_EQ(reader.Remaining(), 3u);
  EXPECT_FALSE(reader.AtEnd());
}

TEST(Wire, ReadBytesBorrowsAndBoundsChecks) {
  std::vector<uint8_t> buf = {10, 20, 30, 40};
  WireReader reader(buf);
  std::span<const uint8_t> head;
  ASSERT_TRUE(reader.ReadBytes(3, &head));
  ASSERT_EQ(head.size(), 3u);
  EXPECT_EQ(head[0], 10);
  EXPECT_EQ(head[2], 30);
  std::span<const uint8_t> tail;
  EXPECT_FALSE(reader.ReadBytes(2, &tail));  // only 1 left
  EXPECT_FALSE(reader.ok());
}

TEST(Wire, LengthPrefixedBytesRejectForgedLengths) {
  std::vector<uint8_t> buf;
  std::vector<uint8_t> payload = {7, 8, 9};
  protocol::AppendLengthPrefixedBytes(buf, payload);
  {
    WireReader reader(buf);
    std::span<const uint8_t> out;
    ASSERT_TRUE(reader.ReadLengthPrefixedBytes(&out));
    EXPECT_TRUE(reader.AtEnd());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1], 8);
  }
  // Forge the length field up to UINT32_MAX: must fail cleanly.
  std::vector<uint8_t> forged = buf;
  forged[0] = 0xFF;
  forged[1] = 0xFF;
  forged[2] = 0xFF;
  forged[3] = 0xFF;
  WireReader reader(forged);
  std::span<const uint8_t> out;
  EXPECT_FALSE(reader.ReadLengthPrefixedBytes(&out));
  EXPECT_FALSE(reader.ok());
}

TEST(Wire, VarintRejectsOverflowAndUnterminated) {
  // 11 continuation bytes: unterminated.
  std::vector<uint8_t> unterminated(11, 0x80);
  {
    WireReader reader(unterminated);
    uint64_t v = 0;
    EXPECT_FALSE(reader.ReadVarU64(&v));
  }
  // 10th byte carrying bits above 2^64.
  std::vector<uint8_t> overflow(9, 0x80);
  overflow.push_back(0x02);
  {
    WireReader reader(overflow);
    uint64_t v = 0;
    EXPECT_FALSE(reader.ReadVarU64(&v));
  }
  // UINT64_MAX itself is fine: 9 x 0xFF then 0x01.
  std::vector<uint8_t> max_bytes(9, 0xFF);
  max_bytes.push_back(0x01);
  WireReader reader(max_bytes);
  uint64_t v = 0;
  ASSERT_TRUE(reader.ReadVarU64(&v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ProtocolSerialization, HrrReportRoundTrip) {
  for (int sign : {-1, +1}) {
    HrrReport report{123456789ULL, static_cast<int8_t>(sign)};
    HrrReport back;
    ASSERT_TRUE(ParseHrrReport(SerializeHrrReport(report), &back));
    EXPECT_EQ(back.coefficient_index, report.coefficient_index);
    EXPECT_EQ(back.sign, report.sign);
  }
}

TEST(ProtocolSerialization, HaarReportRoundTrip) {
  HaarHrrReport report;
  report.level = 7;
  report.inner = {42, -1};
  HaarHrrReport back;
  ASSERT_TRUE(ParseHaarHrrReport(SerializeHaarHrrReport(report), &back));
  EXPECT_EQ(back.level, 7u);
  EXPECT_EQ(back.inner.coefficient_index, 42u);
  EXPECT_EQ(back.inner.sign, -1);
}

TEST(ProtocolSerialization, RejectsMalformedBuffers) {
  HaarHrrReport report;
  report.level = 3;
  report.inner = {5, +1};
  HaarHrrReport out;
  std::vector<uint8_t> good = SerializeHaarHrrReport(report);
  // The payload starts after the 8-byte envelope header.
  const size_t body = 8;
  // Truncations at every length.
  for (size_t len = 0; len < good.size(); ++len) {
    std::vector<uint8_t> cut(good.begin(), good.begin() + len);
    EXPECT_FALSE(ParseHaarHrrReport(cut, &out)) << "len=" << len;
  }
  // Trailing garbage.
  std::vector<uint8_t> extended = good;
  extended.push_back(0);
  EXPECT_FALSE(ParseHaarHrrReport(extended, &out));
  // Wrong leading (magic) byte.
  std::vector<uint8_t> wrong_magic = good;
  wrong_magic[0] = 0x7F;
  EXPECT_FALSE(ParseHaarHrrReport(wrong_magic, &out));
  // Bad sign byte.
  std::vector<uint8_t> bad_sign = good;
  bad_sign.back() = 2;
  EXPECT_FALSE(ParseHaarHrrReport(bad_sign, &out));
  // Level zero is invalid.
  std::vector<uint8_t> bad_level = good;
  bad_level[body] = 0;
  EXPECT_FALSE(ParseHaarHrrReport(bad_level, &out));
}

TEST(ProtocolSerialization, FuzzedBuffersNeverCrash) {
  // Random byte soup must be parsed or rejected, never crash; and
  // byte-flipped valid reports must never produce an out-of-spec report.
  Rng rng(99);
  HrrReport flat_out;
  HaarHrrReport haar_out;
  for (int i = 0; i < 3000; ++i) {
    size_t len = rng.UniformInt(16);
    std::vector<uint8_t> junk(len);
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.UniformInt(256));
    }
    if (ParseHrrReport(junk, &flat_out)) {
      EXPECT_TRUE(flat_out.sign == 1 || flat_out.sign == -1);
    }
    if (ParseHaarHrrReport(junk, &haar_out)) {
      EXPECT_GE(haar_out.level, 1u);
      EXPECT_TRUE(haar_out.inner.sign == 1 || haar_out.inner.sign == -1);
    }
  }
}

// Served and simulated answers come from the same estimator: value and
// stddev agree bit for bit, not merely within rounding.
bool SameBits(const RangeEstimate& served, const RangeEstimate& simulated) {
  return std::memcmp(&served, &simulated, sizeof(RangeEstimate)) == 0;
}

TEST(HaarProtocol, EndToEndMatchesInProcessMechanism) {
  // Same seed, same submission order: the wire path and the in-process
  // mechanism must produce bit-identical estimates and stddevs.
  const uint64_t d = 64;
  const double eps = 1.1;
  Rng rng_wire(7);
  Rng rng_mech(7);
  HaarHrrClient client(d, eps);
  HaarHrrServer server(d, eps);
  HaarHrrMechanism mech(d, eps);
  for (int i = 0; i < 20000; ++i) {
    uint64_t value = (i * 13) % d;
    ASSERT_TRUE(server.AbsorbSerialized(
        client.EncodeSerialized(value, rng_wire)));
    mech.EncodeUser(value, rng_mech);
  }
  server.Finalize();
  Rng finalize_rng(1);
  mech.Finalize(finalize_rng);
  EXPECT_EQ(server.accepted_reports(), 20000u);
  EXPECT_EQ(server.rejected_reports(), 0u);
  for (uint64_t a = 0; a < d; a += 5) {
    for (uint64_t b = a; b < d; b += 9) {
      EXPECT_EQ(server.RangeQuery(a, b), mech.RangeQuery(a, b))
          << "[" << a << "," << b << "]";
      EXPECT_TRUE(SameBits(server.RangeQueryWithUncertainty(a, b),
                           mech.RangeQueryWithUncertainty(a, b)))
          << "[" << a << "," << b << "]";
    }
  }
  EXPECT_EQ(server.EstimateFrequencies(), mech.EstimateFrequencies());
  EXPECT_EQ(server.QuantileQuery(0.5), mech.QuantileQuery(0.5));
}

TEST(HaarProtocol, ServerRejectsOutOfRangeReports) {
  HaarHrrServer server(64, 1.0);  // height 6
  HaarHrrReport report;
  report.level = 7;  // too deep
  report.inner = {0, +1};
  EXPECT_FALSE(server.Absorb(report));
  report.level = 2;
  report.inner = {16, +1};  // level 2 has 64/4 = 16 coefficients: 0..15
  EXPECT_FALSE(server.Absorb(report));
  report.inner = {15, +1};
  EXPECT_TRUE(server.Absorb(report));
  EXPECT_EQ(server.rejected_reports(), 2u);
  EXPECT_EQ(server.accepted_reports(), 1u);
}

TEST(HaarProtocol, PoisonedStreamDoesNotPreventService) {
  // A malicious or buggy minority of clients sends garbage; the server
  // keeps serving and the honest majority's signal survives.
  const uint64_t d = 64;
  const double eps = 60.0;  // near-noiseless honest reports
  Rng rng(11);
  HaarHrrClient client(d, eps);
  HaarHrrServer server(d, eps);
  for (int i = 0; i < 30000; ++i) {
    if (i % 10 == 0) {
      std::vector<uint8_t> junk(11);
      for (uint8_t& b : junk) {
        b = static_cast<uint8_t>(rng.UniformInt(256));
      }
      server.AbsorbSerialized(junk);  // mostly rejected
    }
    server.AbsorbSerialized(client.EncodeSerialized(20, rng));
  }
  server.Finalize();
  EXPECT_GT(server.rejected_reports(), 0u);
  // Honest mass sits at item 20; estimate should be near 1 despite the
  // few accepted-but-random forged reports.
  EXPECT_NEAR(server.RangeQuery(16, 23), 1.0, 0.1);
}

TEST(FlatProtocol, EndToEndAccuracy) {
  const uint64_t d = 32;
  const double eps = 60.0;
  Rng rng(13);
  FlatHrrClient client(d, eps);
  FlatHrrServer server(d, eps);
  for (int i = 0; i < 60000; ++i) {
    ASSERT_TRUE(server.AbsorbSerialized(
        client.EncodeSerialized(i % 2 == 0 ? 3 : 28, rng)));
  }
  server.Finalize();
  EXPECT_NEAR(server.RangeQuery(3, 3), 0.5, 0.03);
  EXPECT_NEAR(server.RangeQuery(28, 28), 0.5, 0.03);
  EXPECT_NEAR(server.RangeQuery(0, 31), 1.0, 0.05);
  EXPECT_NEAR(server.RangeQuery(8, 20), 0.0, 0.03);
}

TEST(FlatProtocol, EndToEndMatchesInProcessMechanism) {
  // The flat twin of the Haar test above: FlatMechanism over HRR draws
  // exactly what FlatHrrClient encodes, so the two answer bit for bit.
  const uint64_t d = 100;
  const double eps = 1.1;
  Rng rng_wire(9);
  Rng rng_mech(9);
  FlatHrrClient client(d, eps);
  FlatHrrServer server(d, eps);
  FlatMechanism mech(d, eps, OracleKind::kHrr);
  for (int i = 0; i < 20000; ++i) {
    uint64_t value = (i * 17) % d;
    ASSERT_TRUE(server.AbsorbSerialized(
        client.EncodeSerialized(value, rng_wire)));
    mech.EncodeUser(value, rng_mech);
  }
  server.Finalize();
  Rng finalize_rng(1);
  mech.Finalize(finalize_rng);
  for (uint64_t a = 0; a < d; a += 7) {
    for (uint64_t b = a; b < d; b += 11) {
      EXPECT_TRUE(SameBits(server.RangeQueryWithUncertainty(a, b),
                           mech.RangeQueryWithUncertainty(a, b)))
          << "[" << a << "," << b << "]";
    }
  }
  EXPECT_EQ(server.EstimateFrequencies(), mech.EstimateFrequencies());
}

TEST(FlatProtocol, ReportSizesArePinnedPerVersion) {
  Rng rng(17);
  FlatHrrClient client(1 << 20, 1.0);
  HaarHrrClient haar_client(1 << 20, 1.0);
  // v2: 8-byte envelope + fixed payload.
  EXPECT_EQ(client.EncodeSerialized(12345, rng).size(), 17u);
  EXPECT_EQ(haar_client.EncodeSerialized(12345, rng).size(), 18u);
  // Batch framing amortizes the envelope: header + count varint + 9
  // bytes per report.
  std::vector<uint64_t> values(200, 5);
  EXPECT_EQ(client.EncodeUsersSerialized(values, rng).size(),
            8u + 2u + 200u * 9u);  // count 200 is a 2-byte varint
}

TEST(FlatProtocol, ServerCountsRejections) {
  FlatHrrServer server(16, 1.0);
  std::vector<uint8_t> junk = {1, 2, 3};
  EXPECT_FALSE(server.AbsorbSerialized(junk));
  HrrReport out_of_range{999, +1};
  EXPECT_FALSE(server.Absorb(out_of_range));
  EXPECT_EQ(server.rejected_reports(), 2u);
}

TEST(ProtocolLdp, ClientReportIsEpsLdp) {
  // For any two inputs and any concrete report, the likelihood ratio of a
  // HaarHRR client report is bounded by e^eps: the level and coefficient
  // index are sampled independently of the value, and the sign bit is
  // binary RR with p/(1-p) = e^eps.
  const double eps = 0.7;
  const uint64_t d = 16;
  HaarHrrClient client(d, eps);
  // Empirically: fix the report (level, index, sign) and compare the
  // frequency it is emitted under two different inputs.
  Rng rng(19);
  const int n = 400000;
  auto count_report = [&](uint64_t value) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      HaarHrrReport r = client.Encode(value, rng);
      if (r.level == 1 && r.inner.coefficient_index == 0 &&
          r.inner.sign == +1) {
        ++hits;
      }
    }
    return static_cast<double>(hits) / n;
  };
  double p0 = count_report(0);   // value 0: coefficient (1,0) is +1
  double p1 = count_report(1);   // value 1: coefficient (1,0) is -1
  ASSERT_GT(p1, 0.0);
  EXPECT_LE(p0 / p1, std::exp(eps) * 1.15);  // 15% Monte-Carlo slack
  EXPECT_GE(p0 / p1, std::exp(eps) * 0.85);  // GRR-style: bound is tight
}

}  // namespace
}  // namespace ldp
