#include "protocol/tree_protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/method.h"
#include "decode_reference.h"
#include "frequency/hrr.h"

namespace ldp {
namespace {

using protocol::ParseTreeHrrReport;
using protocol::SerializeTreeHrrReport;
using protocol::TreeHrrClient;
using protocol::TreeHrrReport;
using protocol::TreeHrrServer;

TEST(TreeProtocol, SerializationRoundTrip) {
  TreeHrrReport report;
  report.level = 5;
  report.inner = {1234, -1};
  TreeHrrReport back;
  ASSERT_TRUE(ParseTreeHrrReport(SerializeTreeHrrReport(report), &back));
  EXPECT_EQ(back.level, 5u);
  EXPECT_EQ(back.inner.coefficient_index, 1234u);
  EXPECT_EQ(back.inner.sign, -1);
}

TEST(TreeProtocol, SerializationRejectsTagsOfOtherProtocols) {
  TreeHrrReport report;
  report.level = 1;
  report.inner = {0, +1};
  TreeHrrReport out;
  // The mechanism tag lives at offset 3 of the envelope header.
  std::vector<uint8_t> bytes = SerializeTreeHrrReport(report);
  for (uint8_t tag : {0x01, 0x02, 0x00, 0xFF}) {
    bytes[3] = tag;
    EXPECT_FALSE(ParseTreeHrrReport(bytes, &out)) << "tag " << int(tag);
  }
}

TEST(TreeProtocol, EndToEndMatchesInProcessTreeHrr) {
  // Same RNG stream and submission order: the wire path must agree with
  // HierarchicalMechanism over HRR bit for bit — value and stddev, with
  // consistency on and off — since both answer through
  // HierarchicalEstimate.
  const uint64_t d = 64;
  const uint64_t fanout = 4;
  const double eps = 1.1;
  for (bool consistency : {true, false}) {
    SCOPED_TRACE(consistency ? "consistency" : "raw");
    Rng rng_wire(3);
    Rng rng_mech(3);
    TreeHrrClient client(d, fanout, eps);
    TreeHrrServer server(d, fanout, eps, consistency);
    std::unique_ptr<RangeMechanism> mech = MakeMechanism(
        MethodSpec::Hh(fanout, OracleKind::kHrr, consistency), d, eps);
    for (int i = 0; i < 30000; ++i) {
      uint64_t value = (i * 11) % d;
      ASSERT_TRUE(server.AbsorbSerialized(
          client.EncodeSerialized(value, rng_wire)));
      mech->EncodeUser(value, rng_mech);
    }
    server.Finalize();
    Rng finalize_rng(1);
    mech->Finalize(finalize_rng);
    for (uint64_t a = 0; a < d; a += 7) {
      for (uint64_t b = a; b < d; b += 6) {
        const RangeEstimate served = server.RangeQueryWithUncertainty(a, b);
        const RangeEstimate simulated = mech->RangeQueryWithUncertainty(a, b);
        EXPECT_EQ(std::memcmp(&served, &simulated, sizeof(RangeEstimate)), 0)
            << "[" << a << "," << b << "]";
      }
    }
    EXPECT_EQ(server.EstimateFrequencies(), mech->EstimateFrequencies());
  }
}

TEST(TreeProtocol, NoiselessAccuracy) {
  const uint64_t d = 256;
  Rng rng(4);
  TreeHrrClient client(d, 4, 60.0);
  TreeHrrServer server(d, 4, 60.0);
  for (int i = 0; i < 120000; ++i) {
    server.AbsorbSerialized(
        client.EncodeSerialized(i % 2 == 0 ? 17 : 200, rng));
  }
  server.Finalize();
  EXPECT_NEAR(server.RangeQuery(0, 63), 0.5, 0.03);
  EXPECT_NEAR(server.RangeQuery(192, 255), 0.5, 0.03);
  EXPECT_NEAR(server.RangeQuery(0, 255), 1.0, 1e-9);
  EXPECT_NEAR(server.RangeQuery(64, 191), 0.0, 0.03);
  EXPECT_EQ(server.QuantileQuery(0.25), 17u);
}

TEST(TreeProtocol, RejectsOutOfRangeLevelsAndIndices) {
  TreeHrrServer server(256, 4, 1.0);  // height 4; level l has 4^l nodes
  TreeHrrReport report;
  report.level = 5;
  report.inner = {0, +1};
  EXPECT_FALSE(server.Absorb(report));
  report.level = 2;                // 16 nodes, HRR pads to 16
  report.inner = {16, +1};
  EXPECT_FALSE(server.Absorb(report));
  report.inner = {15, +1};
  EXPECT_TRUE(server.Absorb(report));
  EXPECT_EQ(server.rejected_reports(), 2u);
  EXPECT_EQ(server.accepted_reports(), 1u);
}

TEST(TreeProtocol, ConsistencyTogglesParentChildAgreement) {
  Rng rng(5);
  const uint64_t d = 64;
  TreeHrrClient client(d, 2, 1.0);
  TreeHrrServer with_ci(d, 2, 1.0, /*consistency=*/true);
  for (int i = 0; i < 20000; ++i) {
    with_ci.AbsorbSerialized(client.EncodeSerialized(i % d, rng));
  }
  with_ci.Finalize();
  // After CI any assembly of the same range agrees: compare B-adic path
  // with leaf sums.
  std::vector<double> leaves = with_ci.EstimateFrequencies();
  double leaf_sum = 0.0;
  for (uint64_t z = 10; z <= 42; ++z) {
    leaf_sum += leaves[z];
  }
  EXPECT_NEAR(with_ci.RangeQuery(10, 42), leaf_sum, 1e-9);
}

TEST(TreeProtocol, FinalizeMatchesReferenceDecodeAtLargeDomain) {
  // D = 2^20, B = 4: the leaf level's transform and the two lowest
  // consistency steps cross the parallel floors, so this covers the
  // blocked, per-tier, threaded decode end to end against a reference
  // rebuilt here from the same reports.
  const uint64_t d = uint64_t{1} << 20;
  const uint64_t fanout = 4;
  const double eps = 1.0;
  TreeHrrClient client(d, fanout, eps);
  const uint32_t height = client.shape().height();
  Rng rng(15);
  std::vector<uint64_t> values(200000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (i * i * 2654435761ULL) % d;
  }
  const std::vector<TreeHrrReport> reports = client.EncodeUsers(values, rng);

  // Reference raw estimates: per-level +/-1 sums, converted to double,
  // radix-2 FWHT, then the HRR debias factor.
  const double keep = HrrOracle(1, eps).KeepProbability();
  std::vector<std::vector<int64_t>> sums(height + 1);
  std::vector<uint64_t> counts(height + 1, 0);
  for (uint32_t l = 1; l <= height; ++l) {
    sums[l].assign(client.shape().NodesAtLevel(l), 0);
  }
  for (const TreeHrrReport& r : reports) {
    sums[r.level][r.inner.coefficient_index] += r.inner.sign;
    ++counts[r.level];
  }
  std::vector<std::vector<double>> raw(height + 1);
  raw[0] = {1.0};
  for (uint32_t l = 1; l <= height; ++l) {
    ASSERT_GT(counts[l], 0u);
    raw[l].assign(sums[l].begin(), sums[l].end());
    testing_reference::Radix2Fwht(raw[l]);
    const double scale =
        1.0 / (static_cast<double>(counts[l]) * (2.0 * keep - 1.0));
    for (double& v : raw[l]) v *= scale;
  }

  for (bool consistency : {true, false}) {
    std::vector<std::vector<double>> expected = raw;
    if (consistency) {
      testing_reference::SerialConsistency(expected, fanout, 1.0);
    }
    TreeHrrServer server(d, fanout, eps, consistency);
    for (const TreeHrrReport& report : reports) {
      ASSERT_TRUE(server.Absorb(report));
    }
    server.Finalize();
    const std::vector<double> leaves = server.EstimateFrequencies();
    ASSERT_EQ(leaves.size(), d);
    EXPECT_EQ(std::memcmp(leaves.data(), expected[height].data(),
                          d * sizeof(double)),
              0)
        << "consistency=" << consistency;
    Rng query_rng(16);
    for (int q = 0; q < 500; ++q) {
      uint64_t a = query_rng.UniformInt(d);
      uint64_t b = query_rng.UniformInt(d);
      if (a > b) std::swap(a, b);
      double want = 0.0;
      for (const TreeNode& node : client.shape().Decompose(a, b)) {
        want += expected[node.level][node.index];
      }
      EXPECT_EQ(server.RangeQuery(a, b), want)
          << "[" << a << "," << b << "] consistency=" << consistency;
    }
  }
}

TEST(TreeProtocol, FuzzedBytesNeverCrashServer) {
  Rng rng(6);
  TreeHrrServer server(128, 2, 1.0);
  for (int i = 0; i < 5000; ++i) {
    size_t len = rng.UniformInt(16);
    std::vector<uint8_t> junk(len);
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.UniformInt(256));
    }
    server.AbsorbSerialized(junk);
  }
  server.Finalize();
  // Whatever was accepted, the server still serves queries.
  double answer = server.RangeQuery(0, 127);
  EXPECT_TRUE(std::isfinite(answer));
}

}  // namespace
}  // namespace ldp
