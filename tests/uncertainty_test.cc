// Validation of RangeQueryWithUncertainty: the reported stddev must match
// (or conservatively bound) the empirical spread of the estimates, and
// standard Gaussian coverage must hold — for the core mechanisms and for
// the stddev the flat, haar and tree servers ship in kRangeQueryResponse.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/method.h"
#include "eval/experiment.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

struct UncertaintyCase {
  MethodSpec spec;
  // Whether the predicted stddev is exact (flat/Haar) or an upper bound
  // with slack (consistent HH applies the Lemma 4.6 node factor, an
  // upper bound per node).
  bool exact;
};

class UncertaintyTest : public ::testing::TestWithParam<UncertaintyCase> {};

TEST_P(UncertaintyTest, PredictedStddevMatchesEmpirical) {
  const uint64_t d = 256;
  const double eps = 1.1;
  const int n = 2000;
  const int trials = 300;
  const uint64_t qa = 37;
  const uint64_t qb = 171;
  RunningStat estimates;
  RunningStat predicted;
  for (int t = 0; t < trials; ++t) {
    Rng rng(900 + t);
    auto mech = MakeMechanism(GetParam().spec, d, eps);
    for (int i = 0; i < n; ++i) {
      mech->EncodeUser(static_cast<uint64_t>(i) % d, rng);
    }
    mech->Finalize(rng);
    RangeEstimate est = mech->RangeQueryWithUncertainty(qa, qb);
    EXPECT_DOUBLE_EQ(est.value, mech->RangeQuery(qa, qb));
    estimates.Add(est.value);
    predicted.Add(est.stddev);
  }
  double empirical_sd = estimates.sample_stddev();
  double mean_predicted = predicted.mean();
  if (GetParam().exact) {
    EXPECT_NEAR(mean_predicted, empirical_sd, 0.25 * empirical_sd)
        << GetParam().spec.Name();
  } else {
    // Upper bound, but not vacuous: within 3x.
    EXPECT_GE(mean_predicted, empirical_sd * 0.75)
        << GetParam().spec.Name();
    EXPECT_LE(mean_predicted, empirical_sd * 3.0)
        << GetParam().spec.Name();
  }
}

TEST_P(UncertaintyTest, ThreeSigmaCoverage) {
  const uint64_t d = 128;
  const double eps = 0.8;
  const int n = 1500;
  const int trials = 200;
  int covered = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(4000 + t);
    auto mech = MakeMechanism(GetParam().spec, d, eps);
    for (int i = 0; i < n; ++i) {
      mech->EncodeUser(static_cast<uint64_t>(i) % d, rng);
    }
    mech->Finalize(rng);
    double truth = 48.0 / d;  // uniform data, range of 48 items
    RangeEstimate est = mech->RangeQueryWithUncertainty(40, 87);
    if (std::abs(est.value - truth) <= 3.0 * est.stddev) {
      ++covered;
    }
  }
  // 3-sigma Gaussian coverage is 99.7%; demand >= 97% to absorb noise.
  EXPECT_GE(covered, trials * 97 / 100) << GetParam().spec.Name();
}

std::string CaseName(const ::testing::TestParamInfo<UncertaintyCase>& info) {
  std::string name = info.param.spec.Name();
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, UncertaintyTest,
    ::testing::Values(
        UncertaintyCase{MethodSpec::Flat(OracleKind::kOueSimulated), true},
        UncertaintyCase{MethodSpec::Haar(), true},
        UncertaintyCase{MethodSpec::Hh(4, OracleKind::kOueSimulated, false),
                        true},
        UncertaintyCase{MethodSpec::Hh(4, OracleKind::kOueSimulated, true),
                        false},
        UncertaintyCase{MethodSpec::Hh(8, OracleKind::kSueSimulated, true),
                        false}),
    CaseName);

TEST(Uncertainty, LongerRangesWiderIntervalsForFlat) {
  Rng rng(5);
  auto mech = MakeMechanism(MethodSpec::Flat(OracleKind::kOueSimulated),
                            256, 1.1);
  for (int i = 0; i < 5000; ++i) {
    mech->EncodeUser(i % 256, rng);
  }
  mech->Finalize(rng);
  double sd_short = mech->RangeQueryWithUncertainty(0, 3).stddev;
  double sd_long = mech->RangeQueryWithUncertainty(0, 255).stddev;
  EXPECT_NEAR(sd_long / sd_short, std::sqrt(256.0 / 4.0), 0.01);
}

TEST(Uncertainty, HaarStddevInsensitiveToRangeLength) {
  Rng rng(6);
  auto mech = MakeMechanism(MethodSpec::Haar(), 256, 1.1);
  for (int i = 0; i < 5000; ++i) {
    mech->EncodeUser(i % 256, rng);
  }
  mech->Finalize(rng);
  double sd_short = mech->RangeQueryWithUncertainty(100, 107).stddev;
  double sd_long = mech->RangeQueryWithUncertainty(3, 220).stddev;
  EXPECT_LT(sd_long / sd_short, 2.0);
  EXPECT_GT(sd_long / sd_short, 0.5);
}

TEST(Uncertainty, FullDomainHaarQueryIsCertain) {
  Rng rng(7);
  auto mech = MakeMechanism(MethodSpec::Haar(), 128, 0.5);
  for (int i = 0; i < 1000; ++i) {
    mech->EncodeUser(i % 128, rng);
  }
  mech->Finalize(rng);
  RangeEstimate est = mech->RangeQueryWithUncertainty(0, 127);
  EXPECT_NEAR(est.value, 1.0, 1e-12);
  EXPECT_NEAR(est.stddev, 0.0, 1e-12);
}

// --- The served stddev (flat, haar and tree servers) -------------------

// Each served kind, named by the core method whose estimator its server
// answers through. All but the consistent tree ship an exact variance;
// Lemma 4.6's per-node factor makes that one an upper bound.
const MethodSpec kServed[] = {MethodSpec::Flat(OracleKind::kHrr),
                              MethodSpec::Haar(),
                              MethodSpec::Hh(4, OracleKind::kHrr, false),
                              MethodSpec::Hh(4, OracleKind::kHrr, true)};

std::unique_ptr<service::AggregatorServer> Server(const MethodSpec& method,
                                                  uint64_t domain,
                                                  double eps) {
  using service::ServerKind;
  service::ServerSpec spec;
  spec.kind = method.family == MethodFamily::kFlat   ? ServerKind::kFlat
              : method.family == MethodFamily::kHaar ? ServerKind::kHaar
                                                     : ServerKind::kTree;
  spec.domain = domain;
  spec.eps = eps;
  spec.consistency = method.consistency;
  return service::MakeAggregatorServer(spec);
}

// One framed batch of `values` through the method's client.
std::vector<uint8_t> Encode(const MethodSpec& method, uint64_t domain,
                            double eps, const std::vector<uint64_t>& values,
                            Rng& rng) {
  switch (method.family) {
    case MethodFamily::kFlat:
      return protocol::FlatHrrClient(domain, eps)
          .EncodeUsersSerialized(values, rng);
    case MethodFamily::kHaar:
      return protocol::HaarHrrClient(domain, eps)
          .EncodeUsersSerialized(values, rng);
    default:
      return protocol::TreeHrrClient(domain, method.fanout, eps)
          .EncodeUsersSerialized(values, rng);
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// D = 256 = 2^8 = 4^4: [0, 255] is exact for Haar (the average
// coefficient) and the tree (the root). One report reaches one level, and
// [3, 200] reads several Haar and tree levels.
TEST(ServedUncertainty, NoReportsAndOneReportNeverAnswerNaN) {
  const uint64_t d = 256;
  const double eps = 1.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (const MethodSpec& method : kServed) {
    for (size_t users : {0, 1}) {
      SCOPED_TRACE(::testing::Message() << method.Name() << " users=" << users);
      const std::vector<uint64_t> values(users, 10);
      service::AggregatorService svc;
      const uint64_t id = svc.AddServer(Server(method, d, eps));
      Rng client_rng(21);
      ASSERT_EQ(svc.server(id).AbsorbBatchSerialized(
                    Encode(method, d, eps, values, client_rng)),
                protocol::ParseError::kOk);
      ASSERT_TRUE(svc.FinalizeServer(id));
      // Same seed: the mechanism draws the reports the client drew.
      std::unique_ptr<RangeMechanism> mech = MakeMechanism(method, d, eps);
      Rng mech_rng(21);
      mech->EncodeUsers(values, mech_rng);
      mech->Finalize(mech_rng);

      service::RangeQueryRequest request{
          1, id, {{0, 255}, {0, 127}, {5, 5}, {3, 200}}};
      service::RangeQueryResponse response;
      ASSERT_EQ(service::ParseRangeQueryResponse(
                    svc.HandleMessage(
                        service::SerializeRangeQueryRequest(request)),
                    &response),
                protocol::ParseError::kOk);
      ASSERT_EQ(response.estimates.size(), request.intervals.size());
      for (size_t i = 0; i < request.intervals.size(); ++i) {
        const auto [lo, hi] = request.intervals[i];
        SCOPED_TRACE(::testing::Message() << "[" << lo << "," << hi << "]");
        const RangeEstimate served =
            svc.server(id).RangeQueryWithUncertainty(lo, hi);
        const RangeEstimate simulated = mech->RangeQueryWithUncertainty(lo, hi);
        EXPECT_FALSE(std::isnan(served.value));
        EXPECT_FALSE(std::isnan(simulated.stddev));
        EXPECT_EQ(Bits(served.value), Bits(simulated.value));
        EXPECT_EQ(Bits(served.stddev), Bits(simulated.stddev));
        EXPECT_EQ(Bits(response.estimates[i].estimate), Bits(served.value));
        EXPECT_EQ(Bits(response.estimates[i].variance),
                  Bits(served.stddev * served.stddev));
        const bool flat = method.family == MethodFamily::kFlat;
        if (!flat && hi - lo + 1 == d) {
          EXPECT_EQ(served.stddev, 0.0);
        } else if (users == 0 || (!flat && lo == 3)) {
          EXPECT_EQ(served.stddev, inf);
        } else if (flat) {
          EXPECT_TRUE(std::isfinite(served.stddev));
        }
      }
    }
  }
}

// Share of answers with |z| <= 1.96, z = (estimate - truth) / stddev, on
// skewed populations (half the users in one narrow band). The answers of
// one population share its noise, so the gate spends its budget on many
// populations (200) rather than many queries (10 each).
double ServedCoverage(const MethodSpec& method, double eps) {
  const uint64_t d = 1024;
  const uint64_t users = 5000;
  const int populations = 200;
  const int queries = 10;
  int covered = 0;
  for (int p = 0; p < populations; ++p) {
    Rng rng(7919 + p);
    std::vector<uint64_t> values(users);
    std::vector<uint64_t> prefix(d + 1, 0);
    for (uint64_t& v : values) {
      v = rng.Bernoulli(0.5) ? 100 + rng.UniformInt(d / 16) : rng.UniformInt(d);
      ++prefix[v + 1];
    }
    for (uint64_t i = 0; i < d; ++i) prefix[i + 1] += prefix[i];
    std::unique_ptr<service::AggregatorServer> server = Server(method, d, eps);
    EXPECT_EQ(
        server->AbsorbBatchSerialized(Encode(method, d, eps, values, rng)),
        protocol::ParseError::kOk);
    server->Finalize();
    for (int q = 0; q < queries; ++q) {
      uint64_t a = rng.UniformInt(d);
      uint64_t b = rng.UniformInt(d);
      if (a > b) std::swap(a, b);
      const double truth =
          static_cast<double>(prefix[b + 1] - prefix[a]) / users;
      const RangeEstimate answer = server->RangeQueryWithUncertainty(a, b);
      if (std::abs(answer.value - truth) <= 1.96 * answer.stddev) ++covered;
    }
  }
  return static_cast<double>(covered) / (populations * queries);
}

// Bands: every kind covers at least 92%, the exact kinds at most 98%. Over
// 40 other seed sets each cell averaged 94.8-95.3% with a standard
// deviation of at most 0.8 points, so both bands sit at least 3.8
// deviations out: a calibrated estimator fails this gate for fewer than 1
// in 1000 seed sets. The consistent tree reads about 99.6%. Envelopes at
// the OUE variance read 61-91% (flat, eps >= 1), above 98% (haar and tree,
// eps <= 1) and 83-88% (every kind, eps = 3).
TEST(ServedCalibration, CoverageIsNearNominalForEveryKindAndBudget) {
  for (const MethodSpec& method : kServed) {
    for (double eps : {0.5, 1.0, 2.0, 3.0}) {
      const double coverage = ServedCoverage(method, eps);
      SCOPED_TRACE(::testing::Message() << method.Name() << " eps=" << eps
                                        << " coverage=" << coverage);
      EXPECT_GE(coverage, 0.92);
      if (method.family != MethodFamily::kHierarchical ||
          !method.consistency) {
        EXPECT_LE(coverage, 0.98);
      }
    }
  }
}

}  // namespace
}  // namespace ldp
