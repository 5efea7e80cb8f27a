// Batched/sharded ingestion pipeline: SubmitBatch and EncodeUsers must be
// bit-identical to their per-report loops for the same Rng stream, and the
// EncodeUsersSharded driver must be thread-count invariant for a fixed seed
// (its determinism contract) while agreeing statistically with the
// sequential path.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/flat.h"
#include "core/haar_hrr.h"
#include "core/hierarchical.h"
#include "core/method.h"
#include "data/dataset.h"
#include "data/distributions.h"
#include "data/workload.h"
#include "eval/experiment.h"
#include "frequency/hrr.h"
#include "protocol/tree_protocol.h"

namespace ldp {
namespace {

std::vector<uint64_t> TestValues(uint64_t n, uint64_t d) {
  std::vector<uint64_t> values(n);
  Rng rng(123);
  for (uint64_t& v : values) v = rng.UniformInt(d);
  return values;
}

std::vector<std::unique_ptr<RangeMechanism>> AllMechanisms(uint64_t d,
                                                           double eps) {
  std::vector<std::unique_ptr<RangeMechanism>> mechs;
  mechs.push_back(MakeMechanism(MethodSpec::Flat(OracleKind::kOueSimulated),
                                d, eps));
  mechs.push_back(MakeMechanism(MethodSpec::Flat(OracleKind::kOlh), d, eps));
  mechs.push_back(
      MakeMechanism(MethodSpec::Hh(4, OracleKind::kOueSimulated, true), d,
                    eps));
  mechs.push_back(MakeMechanism(MethodSpec::Haar(), d, eps));
  return mechs;
}

TEST(BatchIngest, SubmitBatchDefaultMatchesLoop) {
  // HRR has no SubmitBatch override: the base-class default must still
  // consume the identical Rng stream as the hand-written loop.
  const uint64_t d = 60;
  std::vector<uint64_t> values = TestValues(500, d);
  HrrOracle loop(d, 1.1);
  HrrOracle batch(d, 1.1);
  Rng rng_l(5);
  Rng rng_b(5);
  for (uint64_t v : values) loop.SubmitValue(v, rng_l);
  batch.SubmitBatch(values, rng_b);
  EXPECT_EQ(batch.report_count(), loop.report_count());
  EXPECT_EQ(batch.EstimateFractions(), loop.EstimateFractions());
}

TEST(BatchIngest, EncodeUsersMatchesEncodeUserLoop) {
  // Every mechanism override must draw exactly like the per-user loop.
  const uint64_t d = 128;
  const double eps = 1.1;
  std::vector<uint64_t> values = TestValues(2000, d);
  auto loop_mechs = AllMechanisms(d, eps);
  auto batch_mechs = AllMechanisms(d, eps);
  for (size_t m = 0; m < loop_mechs.size(); ++m) {
    Rng rng_l(17);
    Rng rng_b(17);
    for (uint64_t v : values) loop_mechs[m]->EncodeUser(v, rng_l);
    batch_mechs[m]->EncodeUsers(values, rng_b);
    Rng fin_l(99);
    Rng fin_b(99);
    loop_mechs[m]->Finalize(fin_l);
    batch_mechs[m]->Finalize(fin_b);
    EXPECT_EQ(batch_mechs[m]->user_count(), loop_mechs[m]->user_count());
    EXPECT_EQ(batch_mechs[m]->EstimateFrequencies(),
              loop_mechs[m]->EstimateFrequencies())
        << loop_mechs[m]->Name();
  }
}

TEST(BatchIngest, ShardedIngestionIsThreadCountInvariant) {
  // Fixed (seed); 1, 2 and 8 worker threads must produce bit-identical
  // estimates — the chunked Rng streams do not depend on the partitioning.
  const uint64_t d = 64;
  const double eps = 1.1;
  // Spans three logical chunks (chunk = 2^14), with a ragged tail.
  std::vector<uint64_t> values = TestValues(40000, d);
  for (size_t m = 0; m < AllMechanisms(d, eps).size(); ++m) {
    std::vector<std::vector<double>> freqs;
    std::string name;
    for (unsigned threads : {1u, 2u, 8u}) {
      auto mechs = AllMechanisms(d, eps);
      auto& mech = *mechs[m];
      name = mech.Name();
      EncodeUsersSharded(mech, values, /*seed=*/2024, threads);
      EXPECT_EQ(mech.user_count(), values.size());
      Rng fin(7);
      mech.Finalize(fin);
      freqs.push_back(mech.EstimateFrequencies());
    }
    EXPECT_EQ(freqs[0], freqs[1]) << name;
    EXPECT_EQ(freqs[0], freqs[2]) << name;
  }
}

TEST(BatchIngest, ShardedIngestionHandlesSmallAndEmptyInputs) {
  const uint64_t d = 16;
  FlatMechanism empty(d, 1.0, OracleKind::kOueSimulated);
  EncodeUsersSharded(empty, {}, 1, 4);
  EXPECT_EQ(empty.user_count(), 0u);

  std::vector<uint64_t> tiny = TestValues(10, d);  // single logical chunk
  FlatMechanism small(d, 1.0, OracleKind::kOueSimulated);
  EncodeUsersSharded(small, tiny, 1, 4);
  EXPECT_EQ(small.user_count(), tiny.size());
}

TEST(BatchIngest, ShardedEstimatesAgreeWithSequentialStatistically) {
  // The sharded stream differs from the sequential one, so estimates agree
  // only in distribution: both must land within a few predicted stddevs of
  // the truth.
  const uint64_t d = 64;
  const double eps = 1.1;
  const uint64_t n = 60000;
  std::vector<uint64_t> values(n, 10);  // point mass at 10
  for (uint64_t i = 0; i < n / 2; ++i) values[i] = 42;

  FlatMechanism sequential(d, eps, OracleKind::kOueSimulated);
  Rng rng(31);
  sequential.EncodeUsers(values, rng);
  Rng fin1(8);
  sequential.Finalize(fin1);

  FlatMechanism sharded(d, eps, OracleKind::kOueSimulated);
  EncodeUsersSharded(sharded, values, /*seed=*/31, /*threads=*/4);
  Rng fin2(8);
  sharded.Finalize(fin2);

  double sigma = std::sqrt(OracleVariance(eps, static_cast<double>(n)));
  EXPECT_NEAR(sequential.PointQuery(10), 0.5, 5 * sigma);
  EXPECT_NEAR(sharded.PointQuery(10), 0.5, 5 * sigma);
  EXPECT_NEAR(sequential.PointQuery(42), 0.5, 5 * sigma);
  EXPECT_NEAR(sharded.PointQuery(42), 0.5, 5 * sigma);
  EXPECT_NEAR(sharded.PointQuery(0), 0.0, 5 * sigma);
}

TEST(BatchIngest, ProtocolBatchRoundTripMatchesLoop) {
  // Wire-protocol layer: client EncodeUsers + one framed batch message
  // must be indistinguishable from the per-report Encode/Absorb loop.
  const uint64_t d = 100;
  const uint64_t fanout = 4;
  const double eps = 1.1;
  std::vector<uint64_t> values = TestValues(800, d);

  protocol::TreeHrrClient client(d, fanout, eps);
  protocol::TreeHrrServer loop_server(d, fanout, eps);
  protocol::TreeHrrServer batch_server(d, fanout, eps);

  Rng rng_l(13);
  for (uint64_t v : values) {
    loop_server.Absorb(client.Encode(v, rng_l));
  }
  Rng rng_b(13);
  uint64_t accepted = 0;
  ASSERT_EQ(batch_server.AbsorbBatchSerialized(
                client.EncodeUsersSerialized(values, rng_b), &accepted),
            protocol::ParseError::kOk);
  EXPECT_EQ(accepted, values.size());

  loop_server.Finalize();
  batch_server.Finalize();
  EXPECT_EQ(batch_server.accepted_reports(), loop_server.accepted_reports());
  EXPECT_EQ(batch_server.EstimateFrequencies(),
            loop_server.EstimateFrequencies());
}

TEST(BatchIngest, MergeFromRejectsIncompatibleMechanisms) {
  FlatMechanism flat(32, 1.0, OracleKind::kOueSimulated);
  HaarHrrMechanism haar(32, 1.0);
  EXPECT_DEATH(flat.MergeFrom(haar), "FlatMechanism");
}

TEST(BatchIngest, ExperimentRunsWithShardedEncoding) {
  // encode_threads > 1 routes trials through EncodeUsersSharded; the
  // experiment must stay well-behaved end to end.
  ExperimentConfig config;
  config.domain = 64;
  config.population = 20000;
  config.epsilon = 1.1;
  config.method = MethodSpec::Hh(4, OracleKind::kOueSimulated, true);
  config.trials = 2;
  config.threads = 1;
  config.encode_threads = 4;
  ZipfDistribution dist(config.domain, 1.1);
  ExperimentResult result =
      RunRangeExperiment(config, dist, QueryWorkload::Random(50, 3));
  EXPECT_TRUE(std::isfinite(result.mean_mse()));
  EXPECT_LT(result.mean_mse(), 0.05);
}

}  // namespace
}  // namespace ldp
