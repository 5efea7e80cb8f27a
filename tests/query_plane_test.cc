// The query plane's wire formats and every typed error path: a client
// must get a parseable kRangeQueryResponse naming what went wrong —
// never a crash, never silence — for each failure it can provoke.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.h"
#include "protocol/flat_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using protocol::ParseError;
using service::AggregatorService;
using service::IntervalEstimate;
using service::MakeAggregatorServer;
using service::QueryInterval;
using service::QueryStatus;
using service::RangeQueryRequest;
using service::RangeQueryResponse;
using service::ServerKind;
using service::ServerSpec;

ServerSpec FlatSpec(uint64_t domain = 64) {
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = domain;
  spec.eps = 1.0;
  return spec;
}

RangeQueryResponse Ask(AggregatorService& svc, RangeQueryRequest request) {
  std::vector<uint8_t> bytes =
      svc.HandleMessage(SerializeRangeQueryRequest(request));
  RangeQueryResponse response;
  EXPECT_EQ(service::ParseRangeQueryResponse(bytes, &response),
            ParseError::kOk);
  return response;
}

// --- Wire round trips ---------------------------------------------------

TEST(QueryPlaneWire, RequestRoundTripsThroughBytes) {
  RangeQueryRequest request;
  request.query_id = 0xABCDEF0123456789ULL;
  request.server_id = 3;
  request.intervals = {{0, 0}, {17, 4095}, {uint64_t{1} << 40, (uint64_t{1} << 40) + 5}};
  std::vector<uint8_t> bytes = SerializeRangeQueryRequest(request);
  RangeQueryRequest back;
  ASSERT_EQ(service::ParseRangeQueryRequest(bytes, &back), ParseError::kOk);
  EXPECT_EQ(back, request);
}

TEST(QueryPlaneWire, ResponseRoundTripsIncludingSpecials) {
  RangeQueryResponse response;
  response.query_id = 42;
  response.status = QueryStatus::kOk;
  response.estimates = {
      {0.25, 0.0009765625},
      {-0.037, std::numeric_limits<double>::infinity()},
      {0.0, 0.0},
  };
  std::vector<uint8_t> bytes = SerializeRangeQueryResponse(response);
  RangeQueryResponse back;
  ASSERT_EQ(service::ParseRangeQueryResponse(bytes, &back), ParseError::kOk);
  EXPECT_EQ(back, response);  // f64 bit patterns survive exactly
}

TEST(QueryPlaneWire, TruncationAtEveryOffsetIsRejected) {
  RangeQueryRequest request;
  request.query_id = 9;
  request.server_id = 0;
  request.intervals = {{1, 5}, {7, 9}};
  std::vector<uint8_t> bytes = SerializeRangeQueryRequest(request);
  for (size_t len = 0; len < bytes.size(); ++len) {
    RangeQueryRequest out;
    EXPECT_NE(service::ParseRangeQueryRequest(
                  std::span<const uint8_t>(bytes.data(), len), &out),
              ParseError::kOk)
        << len;
  }
  RangeQueryResponse response;
  response.query_id = 9;
  response.estimates = {{0.5, 0.25}};
  std::vector<uint8_t> rbytes = SerializeRangeQueryResponse(response);
  for (size_t len = 0; len < rbytes.size(); ++len) {
    RangeQueryResponse out;
    EXPECT_NE(service::ParseRangeQueryResponse(
                  std::span<const uint8_t>(rbytes.data(), len), &out),
              ParseError::kOk)
        << len;
  }
}

TEST(QueryPlaneWire, ForgedCountsAndBadStatusAreRejected) {
  // A count far beyond the bytes present must fail before allocation.
  RangeQueryRequest request;
  request.query_id = 1;
  request.server_id = 0;
  request.intervals = {{1, 2}};
  std::vector<uint8_t> bytes = SerializeRangeQueryRequest(request);
  bytes[8 + 16] = 0xFF;  // the interval-count varint, now huge
  bytes[8 + 17] = 0x7F;
  RangeQueryRequest out;
  EXPECT_EQ(service::ParseRangeQueryRequest(bytes, &out),
            ParseError::kBadPayload);

  RangeQueryResponse response;
  response.query_id = 1;
  std::vector<uint8_t> rbytes = SerializeRangeQueryResponse(response);
  rbytes[8 + 8] = 99;  // unknown status byte
  RangeQueryResponse rout;
  EXPECT_EQ(service::ParseRangeQueryResponse(rbytes, &rout),
            ParseError::kBadPayload);
}

// --- Typed error paths over the live service ---------------------------

class QueryErrorPaths : public ::testing::Test {
 protected:
  QueryErrorPaths() {
    id_ = svc_.AddServer(MakeAggregatorServer(FlatSpec()));
  }

  // Absorbs a few real reports and finalizes in-process.
  void FinalizeServer() {
    protocol::FlatHrrClient client(64, 1.0);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
      svc_.server(id_).AbsorbSerialized(client.EncodeSerialized(5, rng));
    }
    ASSERT_TRUE(svc_.FinalizeServer(id_));
  }

  AggregatorService svc_;
  uint64_t id_ = 0;
};

TEST_F(QueryErrorPaths, QueryBeforeFinalizeReturnsNotFinalized) {
  RangeQueryRequest request;
  request.query_id = 1;
  request.server_id = id_;
  request.intervals = {{0, 10}};
  RangeQueryResponse response = Ask(svc_, request);
  EXPECT_EQ(response.status, QueryStatus::kNotFinalized);
  EXPECT_EQ(response.query_id, 1u);
  EXPECT_TRUE(response.estimates.empty());
}

TEST_F(QueryErrorPaths, UnknownServerIsTyped) {
  FinalizeServer();
  RangeQueryRequest request;
  request.query_id = 2;
  request.server_id = 55;
  request.intervals = {{0, 10}};
  EXPECT_EQ(Ask(svc_, request).status, QueryStatus::kUnknownServer);
}

TEST_F(QueryErrorPaths, EmptyIntervalListIsTyped) {
  FinalizeServer();
  RangeQueryRequest request;
  request.query_id = 3;
  request.server_id = id_;
  EXPECT_EQ(Ask(svc_, request).status, QueryStatus::kEmptyIntervalList);
}

TEST_F(QueryErrorPaths, IntervalOutOfDomainIsTyped) {
  FinalizeServer();
  RangeQueryRequest request;
  request.query_id = 4;
  request.server_id = id_;
  request.intervals = {{0, 5}, {10, 64}};  // hi == domain is out of range
  EXPECT_EQ(Ask(svc_, request).status, QueryStatus::kIntervalOutOfDomain);
}

TEST_F(QueryErrorPaths, ReversedIntervalIsTyped) {
  FinalizeServer();
  RangeQueryRequest request;
  request.query_id = 5;
  request.server_id = id_;
  request.intervals = {{9, 2}};
  EXPECT_EQ(Ask(svc_, request).status, QueryStatus::kIntervalReversed);
}

TEST_F(QueryErrorPaths, MalformedRequestBytesStillGetAResponse) {
  FinalizeServer();
  // A kRangeQueryRequest envelope whose payload is truncated mid-field.
  RangeQueryRequest request;
  request.query_id = 6;
  request.server_id = id_;
  request.intervals = {{0, 1}};
  std::vector<uint8_t> bytes = SerializeRangeQueryRequest(request);
  std::vector<uint8_t> payload(bytes.begin() + 8, bytes.end() - 1);
  std::vector<uint8_t> mangled =
      protocol::EncodeEnvelope(protocol::MechanismTag::kRangeQueryRequest,
                               payload);
  std::vector<uint8_t> reply = svc_.HandleMessage(mangled);
  RangeQueryResponse response;
  ASSERT_EQ(service::ParseRangeQueryResponse(reply, &response),
            ParseError::kOk);
  EXPECT_EQ(response.status, QueryStatus::kMalformedRequest);
}

TEST_F(QueryErrorPaths, HappyPathAnswersWithFiniteVariance) {
  FinalizeServer();
  RangeQueryRequest request;
  request.query_id = 8;
  request.server_id = id_;
  request.intervals = {{0, 63}, {5, 5}};
  RangeQueryResponse response = Ask(svc_, request);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.estimates.size(), 2u);
  for (const IntervalEstimate& e : response.estimates) {
    EXPECT_TRUE(std::isfinite(e.estimate));
    EXPECT_TRUE(std::isfinite(e.variance));
    EXPECT_GE(e.variance, 0.0);
  }
  EXPECT_EQ(response.query_id, 8u);
  EXPECT_EQ(svc_.stats().queries_answered, 1u);
}

}  // namespace
}  // namespace ldp
