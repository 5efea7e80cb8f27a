// Property tests for the v2 wire protocol: Encode -> Serialize ->
// Parse identity must hold for every report shape — the three deployable
// protocols (flat/haar/tree HRR) and the four plain oracle report
// formats (GRR, OUE, SUE, OLH) — across randomized (eps, D, seed) drawn
// from a seeded generator.
// Extends the oracle_property_test.cc style to the serialization layer.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"

namespace ldp {
namespace {

using protocol::MechanismTag;
using protocol::ParseError;

constexpr int kTrials = 200;

// Random protocol parameters with wide dynamic range: D in [2, 2^20],
// eps in (0, ~8].
struct RandomParams {
  uint64_t domain;
  double eps;
};

RandomParams DrawParams(Rng& rng) {
  uint64_t domain = 2 + rng.UniformInt((uint64_t{1} << 20) - 2);
  double eps = 0.05 + 8.0 * rng.UniformDouble();
  return {domain, eps};
}

TEST(WireProperty, FlatHrrRoundTripIdentity) {
  Rng rng(1001);
  for (int t = 0; t < kTrials; ++t) {
    RandomParams p = DrawParams(rng);
    protocol::FlatHrrClient client(p.domain, p.eps);
    uint64_t value = rng.UniformInt(p.domain);
    HrrReport report = client.Encode(value, rng);
    std::vector<uint8_t> bytes = protocol::SerializeHrrReport(report);
    HrrReport back;
    ASSERT_EQ(protocol::ParseHrrReportDetailed(bytes, &back), ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back.coefficient_index, report.coefficient_index);
    EXPECT_EQ(back.sign, report.sign);
  }
}

TEST(WireProperty, HaarHrrRoundTripIdentity) {
  Rng rng(1002);
  for (int t = 0; t < kTrials; ++t) {
    RandomParams p = DrawParams(rng);
    protocol::HaarHrrClient client(p.domain, p.eps);
    uint64_t value = rng.UniformInt(p.domain);
    protocol::HaarHrrReport report = client.Encode(value, rng);
    std::vector<uint8_t> bytes = protocol::SerializeHaarHrrReport(report);
    protocol::HaarHrrReport back;
    ASSERT_EQ(protocol::ParseHaarHrrReportDetailed(bytes, &back),
              ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back.level, report.level);
    EXPECT_EQ(back.inner.coefficient_index, report.inner.coefficient_index);
    EXPECT_EQ(back.inner.sign, report.inner.sign);
  }
}

TEST(WireProperty, TreeHrrRoundTripIdentity) {
  Rng rng(1003);
  for (int t = 0; t < kTrials; ++t) {
    RandomParams p = DrawParams(rng);
    uint64_t fanout = 2 + rng.UniformInt(15);
    protocol::TreeHrrClient client(p.domain, fanout, p.eps);
    uint64_t value = rng.UniformInt(p.domain);
    protocol::TreeHrrReport report = client.Encode(value, rng);
    std::vector<uint8_t> bytes = protocol::SerializeTreeHrrReport(report);
    protocol::TreeHrrReport back;
    ASSERT_EQ(protocol::ParseTreeHrrReportDetailed(bytes, &back),
              ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back.level, report.level);
    EXPECT_EQ(back.inner.coefficient_index, report.inner.coefficient_index);
    EXPECT_EQ(back.inner.sign, report.inner.sign);
  }
}

TEST(WireProperty, GrrRoundTripIdentity) {
  Rng rng(2001);
  for (int t = 0; t < kTrials; ++t) {
    RandomParams p = DrawParams(rng);
    uint64_t value = rng.UniformInt(p.domain);
    protocol::GrrWireReport report =
        protocol::EncodeGrrReport(p.domain, p.eps, value, rng);
    EXPECT_LT(report.value, p.domain);
    protocol::GrrWireReport back;
    ASSERT_EQ(protocol::ParseGrrReport(protocol::SerializeGrrReport(report),
                                       &back),
              ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back, report);
  }
}

TEST(WireProperty, OueRoundTripIdentity) {
  Rng rng(2002);
  for (int t = 0; t < kTrials; ++t) {
    // Smaller domains: OUE reports are D bits each.
    uint64_t domain = 1 + rng.UniformInt(uint64_t{1} << 12);
    double eps = 0.05 + 8.0 * rng.UniformDouble();
    uint64_t value = rng.UniformInt(domain);
    protocol::UnaryWireReport report =
        protocol::EncodeOueReport(domain, eps, value, rng);
    EXPECT_EQ(report.num_bits, domain);
    protocol::UnaryWireReport back;
    ASSERT_EQ(protocol::ParseUnaryReport(
                  MechanismTag::kOue,
                  protocol::SerializeUnaryReport(MechanismTag::kOue, report),
                  &back),
              ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back, report);
  }
}

TEST(WireProperty, SueRoundTripIdentity) {
  Rng rng(2003);
  for (int t = 0; t < kTrials; ++t) {
    uint64_t domain = 1 + rng.UniformInt(uint64_t{1} << 12);
    double eps = 0.05 + 8.0 * rng.UniformDouble();
    uint64_t value = rng.UniformInt(domain);
    protocol::UnaryWireReport report =
        protocol::EncodeSueReport(domain, eps, value, rng);
    protocol::UnaryWireReport back;
    ASSERT_EQ(protocol::ParseUnaryReport(
                  MechanismTag::kSue,
                  protocol::SerializeUnaryReport(MechanismTag::kSue, report),
                  &back),
              ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back, report);
  }
}

TEST(WireProperty, OueAndSueEnvelopesDoNotCrossParse) {
  Rng rng(2004);
  protocol::UnaryWireReport report =
      protocol::EncodeOueReport(64, 1.0, 7, rng);
  std::vector<uint8_t> bytes =
      protocol::SerializeUnaryReport(MechanismTag::kOue, report);
  protocol::UnaryWireReport back;
  EXPECT_EQ(protocol::ParseUnaryReport(MechanismTag::kSue, bytes, &back),
            ParseError::kBadPayload);
}

TEST(WireProperty, OlhRoundTripIdentity) {
  Rng rng(2005);
  for (int t = 0; t < kTrials; ++t) {
    RandomParams p = DrawParams(rng);
    uint64_t value = rng.UniformInt(p.domain);
    protocol::OlhWireReport report =
        protocol::EncodeOlhReport(p.domain, p.eps, value, rng);
    protocol::OlhWireReport back;
    ASSERT_EQ(protocol::ParseOlhReport(protocol::SerializeOlhReport(report),
                                       &back),
              ParseError::kOk)
        << "trial " << t;
    EXPECT_EQ(back, report);
  }
}

TEST(WireProperty, VarintRoundTripIdentity) {
  Rng rng(3001);
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (uint64_t{1} << 63) - 1,
                                  uint64_t{1} << 63, UINT64_MAX};
  for (int t = 0; t < 500; ++t) {
    // Bias toward small values but cover the full width.
    int shift = static_cast<int>(rng.UniformInt(64));
    values.push_back(rng.Next() >> shift);
  }
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    protocol::AppendVarU64(buf, v);
    EXPECT_LE(buf.size(), 10u);
    EXPECT_EQ(protocol::VarU64Size(v), buf.size()) << v;
    protocol::WireReader reader(buf);
    uint64_t back = 0;
    ASSERT_TRUE(reader.ReadVarU64(&back)) << v;
    EXPECT_TRUE(reader.AtEnd()) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(WireProperty, U64ArrayMatchesPerElementCodec) {
  // The bulk state codec is a pure speedup: AppendU64Array writes exactly
  // the bytes of an AppendU64 loop (after whatever the buffer already
  // holds), and ReadU64Array reads them back, at every length.
  Rng rng(3002);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{1000}}) {
    std::vector<uint64_t> values(n);
    for (uint64_t& v : values) {
      v = rng.Next() >> static_cast<int>(rng.UniformInt(64));
    }
    if (n > 1) {
      values[0] = 0;
      values[1] = UINT64_MAX;
    }
    std::vector<uint8_t> loop = {0xEE};
    std::vector<uint8_t> bulk = loop;
    for (uint64_t v : values) protocol::AppendU64(loop, v);
    protocol::AppendU64Array(bulk, values);
    EXPECT_EQ(bulk, loop) << n;
    protocol::WireReader reader(bulk);
    uint8_t prefix = 0;
    std::vector<uint64_t> back(n, 1);
    ASSERT_TRUE(reader.ReadU8(&prefix));
    ASSERT_TRUE(reader.ReadU64Array(n, back.data())) << n;
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(back, values);
  }
}

// Batch framing: the serialized batch must decode to exactly the reports
// the unserialized EncodeUsers path produces for the same Rng stream,
// and a server fed the framed bytes must end up in a bit-identical state
// to one fed the structs.
TEST(WireProperty, FlatBatchRoundTripMatchesEncodeUsers) {
  Rng rng_a(4001);
  Rng rng_b(4001);
  protocol::FlatHrrClient client(300, 1.1);
  std::vector<uint64_t> values;
  Rng vals(1);
  for (int i = 0; i < 500; ++i) values.push_back(vals.UniformInt(300));

  std::vector<HrrReport> direct = client.EncodeUsers(values, rng_a);
  std::vector<uint8_t> framed = client.EncodeUsersSerialized(values, rng_b);

  std::vector<HrrReport> parsed;
  uint64_t malformed = 7;
  ASSERT_EQ(protocol::ParseHrrReportBatch(framed, &parsed, &malformed),
            ParseError::kOk);
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(parsed.size(), direct.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].coefficient_index, direct[i].coefficient_index);
    EXPECT_EQ(parsed[i].sign, direct[i].sign);
  }

  protocol::FlatHrrServer from_structs(300, 1.1);
  protocol::FlatHrrServer from_wire(300, 1.1);
  for (const HrrReport& report : direct) {
    EXPECT_TRUE(from_structs.Absorb(report));
  }
  uint64_t accepted = 0;
  ASSERT_EQ(from_wire.AbsorbBatchSerialized(framed, &accepted),
            ParseError::kOk);
  EXPECT_EQ(accepted, direct.size());
  from_structs.Finalize();
  from_wire.Finalize();
  for (uint64_t a = 0; a < 300; a += 37) {
    EXPECT_DOUBLE_EQ(from_wire.RangeQuery(a, 299),
                     from_structs.RangeQuery(a, 299));
  }
}

TEST(WireProperty, HaarBatchRoundTripMatchesEncodeUsers) {
  Rng rng_a(4002);
  Rng rng_b(4002);
  protocol::HaarHrrClient client(256, 0.8);
  std::vector<uint64_t> values;
  Rng vals(2);
  for (int i = 0; i < 500; ++i) values.push_back(vals.UniformInt(256));

  std::vector<protocol::HaarHrrReport> direct =
      client.EncodeUsers(values, rng_a);
  std::vector<uint8_t> framed = client.EncodeUsersSerialized(values, rng_b);

  protocol::HaarHrrServer from_structs(256, 0.8);
  protocol::HaarHrrServer from_wire(256, 0.8);
  for (const protocol::HaarHrrReport& report : direct) {
    EXPECT_TRUE(from_structs.Absorb(report));
  }
  uint64_t accepted = 0;
  ASSERT_EQ(from_wire.AbsorbBatchSerialized(framed, &accepted),
            ParseError::kOk);
  EXPECT_EQ(accepted, direct.size());
  from_structs.Finalize();
  from_wire.Finalize();
  for (uint64_t a = 0; a < 256; a += 31) {
    EXPECT_DOUBLE_EQ(from_wire.RangeQuery(a, 255),
                     from_structs.RangeQuery(a, 255));
  }
}

TEST(WireProperty, TreeBatchRoundTripMatchesEncodeUsers) {
  Rng rng_a(4003);
  Rng rng_b(4003);
  protocol::TreeHrrClient client(256, 4, 1.1);
  std::vector<uint64_t> values;
  Rng vals(3);
  for (int i = 0; i < 500; ++i) values.push_back(vals.UniformInt(256));

  std::vector<protocol::TreeHrrReport> direct =
      client.EncodeUsers(values, rng_a);
  std::vector<uint8_t> framed = client.EncodeUsersSerialized(values, rng_b);

  protocol::TreeHrrServer from_structs(256, 4, 1.1);
  protocol::TreeHrrServer from_wire(256, 4, 1.1);
  for (const protocol::TreeHrrReport& report : direct) {
    EXPECT_TRUE(from_structs.Absorb(report));
  }
  uint64_t accepted = 0;
  ASSERT_EQ(from_wire.AbsorbBatchSerialized(framed, &accepted),
            ParseError::kOk);
  EXPECT_EQ(accepted, direct.size());
  from_structs.Finalize();
  from_wire.Finalize();
  for (uint64_t a = 0; a < 256; a += 31) {
    EXPECT_DOUBLE_EQ(from_wire.RangeQuery(a, 255),
                     from_structs.RangeQuery(a, 255));
  }
}

}  // namespace
}  // namespace ldp
