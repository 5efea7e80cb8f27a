// The multidimensional wire path end to end: report/batch encodings are
// total over adversarial bytes, the sharded client encoder is
// bit-identical for every thread count, and a rectangle query answered
// over the wire (streamed batches -> kMultiDimQuery) matches the
// in-process aggregate bit for bit.

#include "protocol/multidim_protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "protocol/envelope.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using protocol::MultiDimClient;
using protocol::MultiDimReport;
using protocol::MultiDimServer;
using protocol::ParseError;
using service::AggregatorService;
using service::MakeAggregatorServer;
using service::QueryBox;
using service::QueryStatus;
using service::ServerKind;
using service::ServerSpec;

MultiDimReport Report(std::vector<uint8_t> levels, uint64_t seed,
                      uint32_t cell) {
  MultiDimReport report;
  report.levels = std::move(levels);
  report.seed = seed;
  report.cell = cell;
  return report;
}

// --- Single-report wire format ------------------------------------------

TEST(MultiDimReportWire, RoundTrips) {
  const MultiDimReport report = Report({3, 0, 5}, 0x1122334455667788ULL, 41);
  std::vector<uint8_t> bytes = SerializeMultiDimReport(report);
  MultiDimReport back;
  ASSERT_EQ(ParseMultiDimReport(bytes, &back), ParseError::kOk);
  EXPECT_EQ(back, report);
}

TEST(MultiDimReportWire, TruncationAtEveryOffsetIsRejected) {
  std::vector<uint8_t> bytes =
      SerializeMultiDimReport(Report({1, 2}, 99, 3));
  MultiDimReport out;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_NE(ParseMultiDimReport(
                  std::span<const uint8_t>(bytes.data(), len), &out),
              ParseError::kOk)
        << "accepted a " << len << "-byte prefix";
  }
}

TEST(MultiDimReportWire, RejectsForgedDimsAndAllRootTuple) {
  std::vector<uint8_t> bytes = SerializeMultiDimReport(Report({1, 2}, 7, 0));
  const size_t payload = protocol::kEnvelopeHeaderSize;
  MultiDimReport out;

  std::vector<uint8_t> zero_dims = bytes;
  zero_dims[payload] = 0;
  EXPECT_EQ(ParseMultiDimReport(zero_dims, &out), ParseError::kBadPayload);

  std::vector<uint8_t> too_many = bytes;
  too_many[payload] = protocol::kMaxWireDimensions + 1;
  EXPECT_EQ(ParseMultiDimReport(too_many, &out), ParseError::kBadPayload);

  // The all-root tuple carries no report by construction.
  std::vector<uint8_t> all_root = bytes;
  all_root[payload + 1] = 0;
  all_root[payload + 2] = 0;
  EXPECT_EQ(ParseMultiDimReport(all_root, &out), ParseError::kBadPayload);

  // Wrong tag for this parser.
  EXPECT_EQ(ParseMultiDimReport(
                SerializeMultiDimReportBatch(
                    2, std::vector<MultiDimReport>{Report({1, 2}, 7, 0)}),
                &out),
            ParseError::kBadPayload);
}

// --- Batch wire format --------------------------------------------------

TEST(MultiDimBatchWire, RoundTripsIncludingEmpty) {
  const std::vector<MultiDimReport> reports = {
      Report({1, 0}, 11, 0), Report({0, 4}, 22, 9),
      Report({2, 2}, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFu)};
  std::vector<uint8_t> bytes = SerializeMultiDimReportBatch(2, reports);
  std::vector<MultiDimReport> back;
  uint64_t malformed = 5;
  ASSERT_EQ(ParseMultiDimReportBatch(bytes, &back, &malformed),
            ParseError::kOk);
  EXPECT_EQ(back, reports);
  EXPECT_EQ(malformed, 0u);

  std::vector<uint8_t> empty =
      SerializeMultiDimReportBatch(3, std::span<const MultiDimReport>());
  ASSERT_EQ(ParseMultiDimReportBatch(empty, &back, &malformed),
            ParseError::kOk);
  EXPECT_TRUE(back.empty());
}

TEST(MultiDimBatchWire, SkipsAndCountsMalformedItems) {
  // Corrupt the middle item's levels to the all-root tuple: the batch
  // still parses, the bad slot is counted, and the parser stays aligned
  // on the items after it.
  const std::vector<MultiDimReport> reports = {
      Report({1, 0}, 11, 1), Report({0, 4}, 22, 2), Report({3, 3}, 33, 3)};
  std::vector<uint8_t> bytes = SerializeMultiDimReportBatch(2, reports);
  // Header, dims byte, count varint (1 byte for 3), then item 0 (2 + 12
  // bytes); item 1's levels start right after.
  const size_t item1_levels = protocol::kEnvelopeHeaderSize + 2 + 14;
  bytes[item1_levels] = 0;
  bytes[item1_levels + 1] = 0;
  std::vector<MultiDimReport> back;
  uint64_t malformed = 0;
  ASSERT_EQ(ParseMultiDimReportBatch(bytes, &back, &malformed),
            ParseError::kOk);
  EXPECT_EQ(malformed, 1u);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], reports[0]);
  EXPECT_EQ(back[1], reports[2]);
}

TEST(MultiDimBatchWire, RejectsForgedCountsAndTruncation) {
  const std::vector<MultiDimReport> reports = {Report({1, 1}, 5, 0)};
  std::vector<uint8_t> bytes = SerializeMultiDimReportBatch(2, reports);
  std::vector<MultiDimReport> back;

  // A count that promises more items than the bytes can hold.
  std::vector<uint8_t> forged = bytes;
  forged[protocol::kEnvelopeHeaderSize + 1] = 200;
  EXPECT_EQ(ParseMultiDimReportBatch(forged, &back, nullptr),
            ParseError::kBadPayload);

  // Trailing garbage after the declared items.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_NE(ParseMultiDimReportBatch(padded, &back, nullptr), ParseError::kOk);

  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_NE(ParseMultiDimReportBatch(
                  std::span<const uint8_t>(bytes.data(), len), &back, nullptr),
              ParseError::kOk)
        << "accepted a " << len << "-byte prefix";
  }
}

// --- Client <-> server --------------------------------------------------

TEST(MultiDimClientServer, RecoversRectangleMass) {
  const uint64_t kDomain = 32;
  const double kEps = 60.0;  // near-noiseless
  MultiDimClient client(kDomain, 2, kEps);
  MultiDimServer server(kDomain, 2, kEps);
  ASSERT_EQ(client.hash_range(), server.hash_range());
  Rng rng(31);
  const int n = 150000;
  std::vector<uint64_t> coords;
  coords.reserve(2 * n);
  for (int i = 0; i < n; ++i) {
    // Half at (5, 9), half uniform in [16, 31] x [0, 15].
    if (i % 2 == 0) {
      coords.insert(coords.end(), {5, 9});
    } else {
      coords.insert(coords.end(),
                    {16 + static_cast<uint64_t>((i / 2) % 16),
                     static_cast<uint64_t>((i / 2) % 16)});
    }
  }
  for (const MultiDimReport& report : client.EncodeUsers(coords, rng)) {
    ASSERT_TRUE(server.Absorb(report));
  }
  EXPECT_EQ(server.accepted_reports(), static_cast<uint64_t>(n));
  server.Finalize();
  const AxisInterval point[2] = {{5, 5}, {9, 9}};
  const AxisInterval quadrant[2] = {{16, 31}, {0, 15}};
  const AxisInterval all[2] = {{0, 31}, {0, 31}};
  EXPECT_NEAR(server.BoxQuery(point), 0.5, 0.05);
  EXPECT_NEAR(server.BoxQuery(quadrant), 0.5, 0.05);
  EXPECT_NEAR(server.BoxQuery(all), 1.0, 1e-9);
  RangeEstimate est = server.BoxQueryWithUncertainty(quadrant);
  EXPECT_EQ(est.value, server.BoxQuery(quadrant));
  EXPECT_GT(est.stddev, 0.0);
}

TEST(MultiDimClientServer, ShardedEncodeBitIdenticalAcrossThreads) {
  MultiDimClient client(64, 2, 1.1);
  std::vector<uint64_t> coords;
  for (int i = 0; i < 40000; ++i) {
    coords.push_back(static_cast<uint64_t>((i * 7) % 64));
    coords.push_back(static_cast<uint64_t>((i * 13) % 64));
  }
  const std::vector<MultiDimReport> reference =
      client.EncodeUsersSharded(coords, /*seed=*/55, /*threads=*/1);
  ASSERT_EQ(reference.size(), 40000u);
  for (unsigned threads : {0u, 3u, 8u}) {
    EXPECT_EQ(client.EncodeUsersSharded(coords, 55, threads), reference)
        << threads << " threads";
  }
}

TEST(MultiDimClientServer, RejectsInvalidReportsWithAccounting) {
  MultiDimServer server(16, 2, 1.0);
  const uint64_t g = server.hash_range();
  EXPECT_TRUE(server.Absorb(Report({1, 0}, 7, 0)));
  // Wrong arity, all-root tuple, level past the tree height, cell >= g.
  EXPECT_FALSE(server.Absorb(Report({1}, 7, 0)));
  EXPECT_FALSE(server.Absorb(Report({1, 0, 2}, 7, 0)));
  EXPECT_FALSE(server.Absorb(Report({0, 0}, 7, 0)));
  EXPECT_FALSE(server.Absorb(Report({200, 0}, 7, 0)));
  EXPECT_FALSE(server.Absorb(Report({1, 0}, 7, static_cast<uint32_t>(g))));
  EXPECT_EQ(server.accepted_reports(), 1u);
  EXPECT_EQ(server.rejected_reports(), 5u);

  // Serialized single-report path: garbage bytes are a counted reject.
  EXPECT_FALSE(server.AbsorbSerialized(std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(server.rejected_reports(), 6u);
}

TEST(MultiDimClientServer, ServerIsV2Only) {
  // A message under any other version byte is refused before its payload
  // is read, and counted once.
  MultiDimServer server(16, 2, 1.0);
  MultiDimClient client(16, 2, 1.0);
  Rng rng(33);
  const std::vector<uint64_t> coords = {1, 2, 3, 4};
  std::vector<uint8_t> batch = client.EncodeUsersSerialized(coords, rng);
  ASSERT_EQ(batch[2], protocol::kWireVersionV2);
  batch[2] = 1;
  EXPECT_EQ(server.AbsorbBatchSerialized(batch),
            ParseError::kUnsupportedVersion);
  EXPECT_EQ(server.accepted_reports(), 0u);
  EXPECT_EQ(server.rejected_reports(), 1u);
}

// --- Query plane wire structs -------------------------------------------

TEST(MultiDimQueryWire, RequestRoundTrips) {
  service::MultiDimQueryRequest request;
  request.query_id = 0xFEDCBA9876543210ULL;
  request.server_id = 2;
  request.dimensions = 3;
  QueryBox a;
  a.axes = {{0, 0}, {17, 4095}, {uint64_t{1} << 40, (uint64_t{1} << 40) + 5}};
  QueryBox b;
  b.axes = {{1, 2}, {3, 4}, {5, 6}};
  request.boxes = {a, b};
  std::vector<uint8_t> bytes = SerializeMultiDimQueryRequest(request);
  service::MultiDimQueryRequest back;
  ASSERT_EQ(ParseMultiDimQueryRequest(bytes, &back), ParseError::kOk);
  EXPECT_EQ(back, request);

  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_NE(ParseMultiDimQueryRequest(
                  std::span<const uint8_t>(bytes.data(), len), &back),
              ParseError::kOk);
  }
}

TEST(MultiDimQueryWire, ResponseRoundTrips) {
  service::MultiDimQueryResponse response;
  response.query_id = 77;
  response.status = QueryStatus::kDimensionMismatch;
  response.estimates = {{0.25, 0.0009765625}, {-0.01, 0.5}};
  std::vector<uint8_t> bytes = SerializeMultiDimQueryResponse(response);
  service::MultiDimQueryResponse back;
  ASSERT_EQ(ParseMultiDimQueryResponse(bytes, &back), ParseError::kOk);
  EXPECT_EQ(back, response);
}

// --- The full wire path -------------------------------------------------

ServerSpec GridSpec(uint64_t domain, uint32_t dims, double eps) {
  ServerSpec spec;
  spec.kind = ServerKind::kGrid;
  spec.domain = domain;
  spec.eps = eps;
  spec.fanout = 2;
  spec.dimensions = dims;
  return spec;
}

service::MultiDimQueryResponse AskBox(AggregatorService& svc,
                                      uint64_t server_id, uint64_t query_id,
                                      std::vector<QueryBox> boxes,
                                      uint32_t dims = 2) {
  service::MultiDimQueryRequest request;
  request.query_id = query_id;
  request.server_id = server_id;
  request.dimensions = dims;
  request.boxes = std::move(boxes);
  std::vector<uint8_t> bytes =
      svc.HandleMessage(SerializeMultiDimQueryRequest(request));
  service::MultiDimQueryResponse response;
  EXPECT_EQ(ParseMultiDimQueryResponse(bytes, &response), ParseError::kOk);
  EXPECT_EQ(response.query_id, query_id);
  return response;
}

TEST(MultiDimService, StreamedIngestMatchesInProcessBitForBit) {
  // The acceptance flow: one sharded encode, absorbed once in process and
  // once as streamed kMultiDimReportBatch chunks through the service;
  // every rectangle answered over the wire must match the in-process
  // estimate bit for bit.
  const uint64_t kDomain = 64;
  const double kEps = 1.1;
  MultiDimClient client(kDomain, 2, kEps);
  std::vector<uint64_t> coords;
  for (int i = 0; i < 30000; ++i) {
    coords.push_back(static_cast<uint64_t>((i * 11) % 64));
    coords.push_back(static_cast<uint64_t>((i * 5) % 64));
  }
  const std::vector<MultiDimReport> reports =
      client.EncodeUsersSharded(coords, /*seed=*/17);

  MultiDimServer in_process(kDomain, 2, kEps);
  for (const MultiDimReport& report : reports) {
    ASSERT_TRUE(in_process.Absorb(report));
  }
  in_process.Finalize();

  const std::vector<std::pair<AxisInterval, AxisInterval>> rects = {
      {{0, 63}, {0, 63}}, {{10, 37}, {22, 41}}, {{0, 0}, {63, 63}}};

  AggregatorService service;
  const uint64_t server_id =
      service.AddServer(MakeAggregatorServer(GridSpec(kDomain, 2, kEps)));
  const uint64_t kSession = 4242;
  service.HandleMessage(service::SerializeStreamBegin({kSession, server_id}));
  const size_t kPerChunk = 7000;
  uint64_t sequence = 0;
  for (size_t begin = 0; begin < reports.size(); begin += kPerChunk) {
    const size_t count = std::min(kPerChunk, reports.size() - begin);
    service.HandleMessage(service::SerializeStreamChunk(
        kSession, sequence++,
        SerializeMultiDimReportBatch(
            2, std::span<const MultiDimReport>(reports).subspan(begin,
                                                                count))));
  }
  service.HandleMessage(service::SerializeStreamEnd(
      {kSession, sequence, service::kStreamFlagFinalize}));
  service.Drain();
  ASSERT_TRUE(service.server_finalized(server_id));
  EXPECT_EQ(service.server(server_id).accepted_reports(), reports.size());

  for (size_t r = 0; r < rects.size(); ++r) {
    QueryBox box;
    box.axes = {{rects[r].first.lo, rects[r].first.hi},
                {rects[r].second.lo, rects[r].second.hi}};
    service::MultiDimQueryResponse response =
        AskBox(service, server_id, r + 1, {box});
    ASSERT_EQ(response.status, QueryStatus::kOk);
    ASSERT_EQ(response.estimates.size(), 1u);
    const AxisInterval direct[2] = {rects[r].first, rects[r].second};
    RangeEstimate expected = in_process.BoxQueryWithUncertainty(direct);
    EXPECT_EQ(response.estimates[0].estimate, expected.value)
        << "rect " << r;
    EXPECT_EQ(response.estimates[0].variance,
              expected.stddev * expected.stddev);
  }
}

TEST(MultiDimService, QueryErrorLadder) {
  AggregatorService service;
  const uint64_t grid_id =
      service.AddServer(MakeAggregatorServer(GridSpec(16, 2, 1.0)));
  ServerSpec flat;
  flat.kind = ServerKind::kFlat;
  flat.domain = 16;
  flat.eps = 1.0;
  const uint64_t flat_id = service.AddServer(MakeAggregatorServer(flat));

  QueryBox box2d;
  box2d.axes = {{0, 3}, {0, 3}};
  QueryBox box1d;
  box1d.axes = {{0, 3}};

  // Not finalized yet.
  EXPECT_EQ(AskBox(service, grid_id, 1, {box2d}).status,
            QueryStatus::kNotFinalized);
  // Unknown server id.
  EXPECT_EQ(AskBox(service, 99, 2, {box2d}).status,
            QueryStatus::kUnknownServer);

  ASSERT_TRUE(service.FinalizeServer(grid_id));
  ASSERT_TRUE(service.FinalizeServer(flat_id));

  // Dimension mismatches both ways.
  EXPECT_EQ(AskBox(service, grid_id, 3, {box1d}, /*dims=*/1).status,
            QueryStatus::kDimensionMismatch);
  EXPECT_EQ(AskBox(service, flat_id, 4, {box2d}, /*dims=*/2).status,
            QueryStatus::kDimensionMismatch);

  // A dims == 1 box query to a classic 1-D server works (the BoxQuery
  // default forwards it to RangeQuery).
  service::MultiDimQueryResponse flat_ok =
      AskBox(service, flat_id, 5, {box1d}, /*dims=*/1);
  EXPECT_EQ(flat_ok.status, QueryStatus::kOk);
  ASSERT_EQ(flat_ok.estimates.size(), 1u);

  // Empty box list, reversed interval, out-of-domain interval.
  EXPECT_EQ(AskBox(service, grid_id, 6, {}).status,
            QueryStatus::kEmptyIntervalList);
  QueryBox reversed;
  reversed.axes = {{3, 1}, {0, 3}};
  EXPECT_EQ(AskBox(service, grid_id, 7, {reversed}).status,
            QueryStatus::kIntervalReversed);
  QueryBox oob;
  oob.axes = {{0, 3}, {0, 16}};
  EXPECT_EQ(AskBox(service, grid_id, 8, {oob}).status,
            QueryStatus::kIntervalOutOfDomain);

  // A well-formed query still succeeds after the failures.
  service::MultiDimQueryResponse ok = AskBox(service, grid_id, 9, {box2d});
  EXPECT_EQ(ok.status, QueryStatus::kOk);
  EXPECT_EQ(ok.estimates.size(), 1u);

  // Malformed request bytes get a parseable kMalformedRequest response.
  std::vector<uint8_t> garbage = SerializeMultiDimQueryRequest([] {
    service::MultiDimQueryRequest r;
    r.query_id = 10;
    r.server_id = 0;
    r.dimensions = 2;
    QueryBox b;
    b.axes = {{0, 1}, {0, 1}};
    r.boxes = {b};
    return r;
  }());
  std::vector<uint8_t> payload(
      garbage.begin() + protocol::kEnvelopeHeaderSize, garbage.end() - 1);
  std::vector<uint8_t> reply = service.HandleMessage(protocol::EncodeEnvelope(
      protocol::MechanismTag::kMultiDimQuery, payload));
  service::MultiDimQueryResponse malformed;
  ASSERT_EQ(ParseMultiDimQueryResponse(reply, &malformed), ParseError::kOk);
  EXPECT_EQ(malformed.status, QueryStatus::kMalformedRequest);
}

}  // namespace
}  // namespace ldp
