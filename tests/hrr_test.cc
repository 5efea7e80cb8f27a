#include "frequency/hrr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "frequency/frequency_oracle.h"
#include "protocol/wire.h"

namespace ldp {
namespace {

TEST(Hrr, KeepProbability) {
  HrrOracle oracle(8, std::log(3.0));
  EXPECT_NEAR(oracle.KeepProbability(), 0.75, 1e-12);
}

TEST(Hrr, PadsToNextPowerOfTwo) {
  HrrOracle oracle(100, 1.0);
  EXPECT_EQ(oracle.padded_domain(), 128u);
  EXPECT_EQ(oracle.domain_size(), 100u);
  EXPECT_EQ(oracle.EstimateFractions().size(), 100u);
}

TEST(Hrr, NoiselessRecoversDistribution) {
  // Huge eps: the reported coefficient is never flipped. With many users
  // the sampled-coefficient average converges to the true spectrum.
  Rng rng(1);
  HrrOracle oracle(8, 60.0);
  for (int i = 0; i < 60000; ++i) {
    oracle.SubmitValue(i % 2 == 0 ? 1 : 6, rng);
  }
  std::vector<double> est = oracle.EstimateFractions();
  EXPECT_NEAR(est[1], 0.5, 0.03);
  EXPECT_NEAR(est[6], 0.5, 0.03);
  EXPECT_NEAR(est[0], 0.0, 0.03);
  EXPECT_NEAR(est[4], 0.0, 0.03);
}

TEST(Hrr, EstimatesAreUnbiased) {
  const uint64_t d = 16;
  const double eps = 1.1;
  const int trials = 250;
  const int n = 2000;
  std::vector<double> mean(d, 0.0);
  Rng rng(2);
  for (int t = 0; t < trials; ++t) {
    HrrOracle oracle(d, eps);
    for (int i = 0; i < n; ++i) {
      oracle.SubmitValue(i % 4 == 0 ? 3 : 12, rng);
    }
    std::vector<double> est = oracle.EstimateFractions();
    for (uint64_t z = 0; z < d; ++z) {
      mean[z] += est[z] / trials;
    }
  }
  EXPECT_NEAR(mean[3], 0.25, 0.03);
  EXPECT_NEAR(mean[12], 0.75, 0.03);
  EXPECT_NEAR(mean[7], 0.0, 0.03);
}

TEST(Hrr, EmpiricalVarianceMatchesExactFormula) {
  // HRR's exact per-item variance is (e^eps+1)^2 / (N (e^eps-1)^2): the
  // perturbation variance the paper analyzes plus the coefficient-index
  // sampling term. Verify the exact formula, and that it sits within a
  // constant of the paper's shared bound V_F.
  const uint64_t d = 16;
  const double eps = 1.1;
  const int trials = 500;
  const int n = 500;
  RunningStat est_cold;
  Rng rng(3);
  for (int t = 0; t < trials; ++t) {
    HrrOracle oracle(d, eps);
    for (int i = 0; i < n; ++i) {
      oracle.SubmitValue(2, rng);
    }
    est_cold.Add(oracle.EstimateFractions()[9]);
  }
  double exact = HrrExactVariance(eps, n);
  EXPECT_NEAR(est_cold.variance(), exact, 0.2 * exact);
  double vf = OracleVariance(eps, n);
  EXPECT_GT(est_cold.variance(), vf);        // strictly above the bound
  EXPECT_LT(est_cold.variance(), 1.6 * vf);  // ... but by < 2x at eps=1.1
}

TEST(Hrr, ExactVarianceConvergesToSharedBoundAtSmallEps) {
  double ratio_small = HrrExactVariance(0.05, 1000) /
                       OracleVariance(0.05, 1000);
  double ratio_large = HrrExactVariance(2.0, 1000) /
                       OracleVariance(2.0, 1000);
  EXPECT_NEAR(ratio_small, 1.0, 0.01);
  EXPECT_GT(ratio_large, 1.5);
}

TEST(Hrr, SignedSubmissionsEstimateSignedHistogram) {
  // Mixing +e_1 and -e_3 with equal mass: the estimated "fractions" should
  // be +0.5 at 1 and -0.5 at 3 — exactly what HaarHRR's levels need.
  Rng rng(4);
  HrrOracle oracle(8, 60.0);
  for (int i = 0; i < 60000; ++i) {
    if (i % 2 == 0) {
      oracle.SubmitSignedValue(1, +1, rng);
    } else {
      oracle.SubmitSignedValue(3, -1, rng);
    }
  }
  std::vector<double> est = oracle.EstimateFractions();
  EXPECT_NEAR(est[1], 0.5, 0.03);
  EXPECT_NEAR(est[3], -0.5, 0.03);
  EXPECT_NEAR(est[0], 0.0, 0.03);
}

TEST(Hrr, DomainOneIsBinaryRandomizedResponse) {
  // The top Haar level has a single coefficient; HRR over a domain of one
  // item degenerates to 1-bit RR on the sign, as the paper notes.
  Rng rng(5);
  HrrOracle oracle(1, 1.0);
  EXPECT_EQ(oracle.padded_domain(), 1u);
  for (int i = 0; i < 3000; ++i) {
    oracle.SubmitSignedValue(0, (i % 4 == 0) ? -1 : +1, rng);
  }
  // True signed mean: 0.75 * (+1) + 0.25 * (-1) = 0.5.
  EXPECT_NEAR(oracle.EstimateFractions()[0], 0.5, 0.1);
}

TEST(Hrr, ReportLdpRatioIsExactlyExpEps) {
  // Any report (j, s) has probability p or (1-p) of matching the true
  // coefficient sign; the likelihood ratio between any two inputs is at
  // most p/(1-p) = e^eps.
  const double eps = 1.3;
  HrrOracle oracle(8, eps);
  double p = oracle.KeepProbability();
  EXPECT_NEAR(p / (1 - p), std::exp(eps), 1e-9);
}

TEST(Hrr, MergeMatchesSequential) {
  Rng rng1(6);
  Rng rng2(6);
  HrrOracle sequential(8, 1.0);
  HrrOracle shard_a(8, 1.0);
  HrrOracle shard_b(8, 1.0);
  for (int i = 0; i < 200; ++i) {
    sequential.SubmitValue(i % 8, rng1);
  }
  for (int i = 0; i < 200; ++i) {
    (i < 100 ? shard_a : shard_b).SubmitValue(i % 8, rng2);
  }
  shard_a.MergeFrom(shard_b);
  std::vector<double> a = shard_a.EstimateFractions();
  std::vector<double> s = sequential.EstimateFractions();
  for (uint64_t z = 0; z < 8; ++z) {
    EXPECT_DOUBLE_EQ(a[z], s[z]);
  }
  // The consuming merge into an empty oracle adopts the shard's sums:
  // bit-identical to adding them, and the shard is left empty.
  std::vector<uint8_t> merged_state;
  shard_a.AppendState(merged_state);
  HrrOracle adopted(8, 1.0);
  adopted.MergeFromShard(shard_a);
  std::vector<uint8_t> adopted_state;
  adopted.AppendState(adopted_state);
  EXPECT_EQ(adopted_state, merged_state);
  EXPECT_EQ(adopted.EstimateFractions(), a);
  EXPECT_EQ(shard_a.report_count(), 0u);
}

TEST(Hrr, ReportBitsIsLogDPlusOne) {
  HrrOracle oracle(1 << 16, 1.0);
  EXPECT_DOUBLE_EQ(oracle.ReportBits(), 17.0);
}

// --- HrrStateDecoder: one restore path, at any split ------------------

constexpr uint64_t kLevelDomains[] = {4, 16, 100};  // the last pads to 128

HrrLevels EmptyLevels() {
  HrrLevels levels;
  for (uint64_t domain : kLevelDomains) levels.AddLevel(domain, 1.0);
  return levels;
}

// A level stack with a different report count on every level.
std::vector<uint8_t> FilledLevelsBody(uint64_t seed) {
  HrrLevels levels = EmptyLevels();
  Rng rng(seed);
  for (size_t l = 0; l < levels.size(); ++l) {
    for (uint64_t i = 0; i < 70 * (l + 1); ++i) {
      levels[l].SubmitValue(i % kLevelDomains[l], rng);
    }
  }
  std::vector<uint8_t> body;
  levels.AppendState(body);
  EXPECT_EQ(body.size(), levels.StateBytes());
  return body;
}

// Feeds `body` to a fresh decoder in pieces of `piece` bytes, as socket
// reads would land them. Returns the verdict; `*state` receives the
// restored levels' state when it is true.
bool RestoreInPieces(std::span<const uint8_t> body, size_t piece,
                     std::vector<uint8_t>* state) {
  HrrLevels levels = EmptyLevels();
  HrrStateDecoder decoder(levels);
  bool fed = true;
  for (size_t at = 0; at < body.size() && fed; at += piece) {
    fed = decoder.Feed(body.subspan(at, std::min(piece, body.size() - at)));
  }
  if (!fed || !decoder.done()) return false;
  state->clear();
  levels.AppendState(*state);
  return true;
}

// Offset of level `k`'s report-count varint in a level-stack body.
size_t RecordOffset(std::span<const uint8_t> body, size_t k) {
  protocol::WireReader reader(body);
  uint64_t value = 0;
  EXPECT_TRUE(reader.ReadVarU64(&value));  // the level count
  for (size_t l = 0; l < k; ++l) {
    std::span<const uint8_t> sums;
    EXPECT_TRUE(reader.ReadVarU64(&value) && reader.ReadVarU64(&value) &&
                reader.ReadBytes(8 * value, &sums));
  }
  return body.size() - reader.Remaining();
}

constexpr size_t kPieces[] = {1, 2, 3, 7, 8, 9, 64, 1000, 1u << 20};

TEST(HrrStateDecoder, EverySplitRestoresTheSameState) {
  const std::vector<uint8_t> body = FilledLevelsBody(/*seed=*/11);
  for (size_t piece : kPieces) {
    SCOPED_TRACE(piece);
    std::vector<uint8_t> state;
    ASSERT_TRUE(RestoreInPieces(body, piece, &state));
    EXPECT_EQ(state, body);  // canonical: restore then append is identity
  }
  // The flat form: one record, no level count.
  HrrOracle filled(100, 1.0);
  Rng rng(12);
  for (int i = 0; i < 300; ++i) filled.SubmitValue(i % 100, rng);
  std::vector<uint8_t> record;
  filled.AppendState(record);
  for (size_t piece : kPieces) {
    SCOPED_TRACE(piece);
    HrrOracle restored(100, 1.0);
    HrrStateDecoder decoder(restored);
    for (size_t at = 0; at < record.size(); at += piece) {
      ASSERT_TRUE(decoder.Feed(std::span<const uint8_t>(record).subspan(
          at, std::min(piece, record.size() - at))));
    }
    ASSERT_TRUE(decoder.done());
    EXPECT_TRUE(decoder.Window().empty());
    std::vector<uint8_t> state;
    restored.AppendState(state);
    EXPECT_EQ(state, record);
    EXPECT_EQ(restored.EstimateFractions(), filled.EstimateFractions());
  }
}

TEST(HrrStateDecoder, RejectsEveryMalformedBodyAtEverySplit) {
  const std::vector<uint8_t> valid = FilledLevelsBody(/*seed=*/21);
  const size_t last = RecordOffset(valid, 2);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
  {
    std::vector<uint8_t> body = valid;
    body[0] = 4;  // one level more than the stack has
    cases.emplace_back("level_count", body);
  }
  {
    // The last level's padded domain: 128 (0x80 0x01) forged to 129.
    std::vector<uint8_t> body = valid;
    const size_t padded_at = last + protocol::VarU64Size(210);
    ASSERT_EQ(body[padded_at], 0x80);
    body[padded_at] = 0x81;
    cases.emplace_back("padded_mismatch", body);
  }
  {
    // Level 1's report count forged to 0 under its nonzero sums.
    std::vector<uint8_t> body = valid;
    const size_t at = RecordOffset(valid, 0);
    body.erase(body.begin() + static_cast<ptrdiff_t>(at),
               body.begin() +
                   static_cast<ptrdiff_t>(at + protocol::VarU64Size(70)));
    body.insert(body.begin() + static_cast<ptrdiff_t>(at), 0x00);
    cases.emplace_back("zero_reports_nonzero_sums", body);
  }
  {
    // A report count of eleven varint groups: past 2^64-1.
    std::vector<uint8_t> body = valid;
    const size_t at = RecordOffset(valid, 1);
    body.erase(body.begin() + static_cast<ptrdiff_t>(at),
               body.begin() +
                   static_cast<ptrdiff_t>(at + protocol::VarU64Size(140)));
    const uint8_t overlong[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                0xFF, 0xFF, 0xFF, 0xFF, 0x02};
    body.insert(body.begin() + static_cast<ptrdiff_t>(at),
                std::begin(overlong), std::end(overlong));
    cases.emplace_back("overlong_varint", body);
  }
  cases.emplace_back("truncated",
                     std::vector<uint8_t>(valid.begin(), valid.end() - 1));
  {
    std::vector<uint8_t> body = valid;
    body.push_back(0);
    cases.emplace_back("trailing_byte", body);
  }
  cases.emplace_back("empty", std::vector<uint8_t>());
  for (const auto& [name, body] : cases) {
    SCOPED_TRACE(name);
    HrrLevels levels = EmptyLevels();
    EXPECT_FALSE(HrrStateDecoder(levels).Restore(body));
    for (size_t piece : kPieces) {
      SCOPED_TRACE(piece);
      std::vector<uint8_t> state;
      EXPECT_FALSE(RestoreInPieces(body, piece, &state));
    }
  }
}

TEST(HrrStateDecoder, SizeRangeIsFixedByConfiguration) {
  HrrLevels levels = EmptyLevels();
  const HrrStateSize range = levels.StateSizeRange();
  // [levels varint] + per level [reports varint][padded varint][sums].
  size_t fixed = 1;
  for (uint64_t padded : {4u, 16u, 128u}) {
    fixed += protocol::VarU64Size(padded) + 8 * padded;
  }
  EXPECT_EQ(range.min, fixed + 3);
  EXPECT_EQ(range.max, fixed + 3 * protocol::kMaxVarU64Bytes);
  EXPECT_TRUE(range.Contains(levels.StateBytes()));
  EXPECT_TRUE(range.Contains(FilledLevelsBody(/*seed=*/31).size()));
  EXPECT_FALSE(range.Contains(range.max + 1));
  HrrOracle flat(1000, 1.0);
  EXPECT_EQ(flat.StateSizeRange().min, flat.StateBytes());
}

}  // namespace
}  // namespace ldp
