// Batched/sharded ingestion pipeline: SubmitBatch and EncodeUsers must be
// bit-identical to their per-report loops for the same Rng stream, and
// EncodePointsSharded must be thread-count invariant for a fixed seed
// (its determinism contract) while agreeing statistically with the
// sequential path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bit_util.h"
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
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"
#include "service/aggregator_server.h"

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
      EncodePointsSharded(mech, values, /*seed=*/2024, threads);
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
  EncodePointsSharded(empty, {}, 1, 4);
  EXPECT_EQ(empty.user_count(), 0u);

  std::vector<uint64_t> tiny = TestValues(10, d);  // single logical chunk
  FlatMechanism small(d, 1.0, OracleKind::kOueSimulated);
  EncodePointsSharded(small, tiny, 1, 4);
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
  EncodePointsSharded(sharded, values, /*seed=*/31, /*threads=*/4);
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

// --- The batch look-ahead, above and below its floor ------------------
//
// A flat, haar or tree server whose sums arrays hold more than
// kHrrLookAheadFloor counters absorbs a batch with the look-ahead
// (AggregatorServer::AbsorbReportSlots); up to the floor it runs the
// plain loop. Either way a batch must leave exactly what absorbing each
// of its slots as a single-report message leaves: the same accepted
// count, stats() and SerializeState() bytes.

constexpr uint64_t kLookAhead = service::AggregatorServer::kLookAheadSlots;

// One HRR family at one domain, with its slot layout:
// flat [index u64][sign u8], haar and tree [level u8][index u64][sign u8].
struct HrrFamily {
  std::string name;
  uint64_t counters = 0;  // in all its sums arrays
  uint32_t height = 0;    // levels; 0 for flat
  protocol::MechanismTag single_tag{};
  protocol::MechanismTag batch_tag{};
  std::function<std::unique_ptr<service::AggregatorServer>()> make;
  std::function<std::vector<uint8_t>(std::span<const uint64_t>, Rng&)>
      encode;
  // The padded size of the sums array a report at `level` adds to.
  std::function<uint64_t(uint32_t level)> padded_at;

  size_t item_size() const { return height == 0 ? 9 : 10; }
  size_t index_offset() const { return height == 0 ? 0 : 1; }
  size_t sign_offset() const { return height == 0 ? 8 : 9; }
};

HrrFamily FlatFamily(uint64_t d) {
  const uint64_t padded = NextPowerOfTwo(d);
  return {"flat", padded, 0, protocol::MechanismTag::kFlatHrr,
          protocol::MechanismTag::kFlatHrrBatch,
          [d] { return std::make_unique<protocol::FlatHrrServer>(d, 1.0); },
          [d](std::span<const uint64_t> values, Rng& rng) {
            return protocol::FlatHrrClient(d, 1.0).EncodeUsersSerialized(
                values, rng);
          },
          [padded](uint32_t) { return padded; }};
}

HrrFamily HaarFamily(uint64_t d) {
  const uint64_t padded = NextPowerOfTwo(d);
  return {"haar", padded - 1, Log2Floor(padded),
          protocol::MechanismTag::kHaarHrr,
          protocol::MechanismTag::kHaarHrrBatch,
          [d] { return std::make_unique<protocol::HaarHrrServer>(d, 1.0); },
          [d](std::span<const uint64_t> values, Rng& rng) {
            return protocol::HaarHrrClient(d, 1.0).EncodeUsersSerialized(
                values, rng);
          },
          [padded](uint32_t level) { return padded >> level; }};
}

HrrFamily TreeFamily(uint64_t d) {
  const TreeShape shape(d, 4);
  return {"tree", shape.TotalNodes() - 1, shape.height(),
          protocol::MechanismTag::kTreeHrr,
          protocol::MechanismTag::kTreeHrrBatch,
          [d] { return std::make_unique<protocol::TreeHrrServer>(d, 4, 1.0); },
          [d](std::span<const uint64_t> values, Rng& rng) {
            return protocol::TreeHrrClient(d, 4, 1.0).EncodeUsersSerialized(
                values, rng);
          },
          [shape](uint32_t level) {
            return NextPowerOfTwo(shape.NodesAtLevel(level));
          }};
}

// Every family at D = 2^20, above the floor, and at D = 1000, below it.
std::vector<std::pair<HrrFamily, bool>> FamiliesAroundTheFloor() {
  std::vector<std::pair<HrrFamily, bool>> families;
  for (uint64_t d : {uint64_t{1} << 20, uint64_t{1000}}) {
    const bool above = d > 1000;
    families.emplace_back(FlatFamily(d), above);
    families.emplace_back(HaarFamily(d), above);
    families.emplace_back(TreeFamily(d), above);
  }
  return families;
}

// Overwrites a slot's index field (little-endian u64 at `at`).
void StoreIndex(uint8_t* at, uint64_t index) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<uint8_t>(index >> (8 * i));
}

// Absorbs `msg` as one batch into `server`, and slot by slot, each
// re-framed as a single-report message, into `twin`: the accepted count
// and stats() must agree.
void ExpectBatchMatchesPerReport(const HrrFamily& family,
                                 service::AggregatorServer& server,
                                 service::AggregatorServer& twin,
                                 std::span<const uint8_t> msg) {
  uint64_t accepted = 0;
  ASSERT_EQ(server.AbsorbBatchSerialized(msg, &accepted),
            protocol::ParseError::kOk);
  protocol::ReportBatch batch;
  ASSERT_EQ(protocol::OpenReportBatch(msg, family.batch_tag,
                                      family.item_size(), &batch),
            protocol::ParseError::kOk);
  uint64_t want = 0;
  for (uint64_t i = 0; i < batch.count; ++i) {
    std::span<const uint8_t> slot(batch.slots + i * family.item_size(),
                                  family.item_size());
    want += twin.AbsorbSerialized(
        protocol::EncodeEnvelope(family.single_tag, slot));
  }
  EXPECT_EQ(accepted, want);
  EXPECT_EQ(server.stats(), twin.stats());
}

TEST(BatchIngest, LookAheadBatchesMatchPerReportAbsorbAtEverySize) {
  for (const auto& [family, above] : FamiliesAroundTheFloor()) {
    SCOPED_TRACE(family.name + (above ? " above" : " below") + " the floor");
    EXPECT_EQ(family.counters > kHrrLookAheadFloor, above);
    auto server = family.make();
    auto twin = family.make();
    Rng rng(31);
    for (uint64_t n : {uint64_t{0}, uint64_t{1}, kLookAhead - 1, kLookAhead,
                       kLookAhead + 1, uint64_t{2000}}) {
      ExpectBatchMatchesPerReport(family, *server, *twin,
                                  family.encode(TestValues(n, 1000), rng));
    }
    EXPECT_EQ(server->accepted_reports(),
              1 + 3 * kLookAhead + 2000);
    EXPECT_EQ(server->SerializeState(), twin->SerializeState());
  }
}

TEST(BatchIngest, LookAheadSkipsMalformedSlotsAtEveryOffset) {
  // One malformed slot at each offset of a (k + 8)-slot batch, so it is
  // looked ahead at from the prologue and from the main loop: a sign byte
  // of 2, level 0, a level above the height, the index at its level's
  // padded size, and index 2^64 - 1.
  for (const auto& [family, above] : FamiliesAroundTheFloor()) {
    SCOPED_TRACE(family.name + (above ? " above" : " below") + " the floor");
    auto server = family.make();
    auto twin = family.make();
    Rng rng(37);
    const std::vector<uint8_t> valid =
        family.encode(TestValues(kLookAhead + 8, 1000), rng);
    protocol::ReportBatch batch;
    ASSERT_EQ(protocol::OpenReportBatch(valid, family.batch_tag,
                                        family.item_size(), &batch),
              protocol::ParseError::kOk);
    const size_t first_slot = static_cast<size_t>(batch.slots - valid.data());

    using Corrupt = std::function<void(uint8_t* slot)>;
    std::vector<std::pair<std::string, Corrupt>> corruptions = {
        {"sign byte 2",
         [&](uint8_t* slot) { slot[family.sign_offset()] = 2; }},
        {"index at the padded size",
         [&](uint8_t* slot) {
           const uint64_t padded =
               family.padded_at(family.height == 0 ? 0 : slot[0]);
           StoreIndex(slot + family.index_offset(), padded);
         }},
        {"index 2^64 - 1", [&](uint8_t* slot) {
           StoreIndex(slot + family.index_offset(), UINT64_MAX);
         }}};
    if (family.height > 0) {
      corruptions.push_back({"level 0", [](uint8_t* slot) { slot[0] = 0; }});
      corruptions.push_back({"level above the height", [&](uint8_t* slot) {
                               slot[0] =
                                   static_cast<uint8_t>(family.height + 1);
                             }});
    }
    uint64_t rejected = 0;
    for (const auto& [what, corrupt] : corruptions) {
      for (uint64_t offset = 0; offset < batch.count; ++offset) {
        SCOPED_TRACE(what + " at slot " + std::to_string(offset));
        std::vector<uint8_t> msg = valid;
        corrupt(msg.data() + first_slot + offset * family.item_size());
        ExpectBatchMatchesPerReport(family, *server, *twin, msg);
        ++rejected;
      }
    }
    EXPECT_EQ(server->rejected_reports(), rejected);
    EXPECT_EQ(server->SerializeState(), twin->SerializeState());
  }
}

TEST(BatchIngest, MergeFromRejectsIncompatibleMechanisms) {
  FlatMechanism flat(32, 1.0, OracleKind::kOueSimulated);
  HaarHrrMechanism haar(32, 1.0);
  EXPECT_DEATH(flat.MergeFrom(haar), "FlatMechanism");
}

TEST(BatchIngest, ExperimentRunsWithShardedEncoding) {
  // encode_threads > 1 routes trials through EncodePointsSharded; the
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
