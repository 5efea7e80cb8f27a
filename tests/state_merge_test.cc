// The distributed fan-in plane: wire-serialized aggregate-state
// snapshots, the merge algebra (associativity, canonical round trips),
// and the service merge plane — N-shard fan-in must be bit-identical to
// single-process ingestion of the union, for every mechanism family,
// push order, and worker count. Plus the typed MergeStatus error matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using protocol::ParseError;
using service::AggregatorServer;
using service::AggregatorService;
using service::MakeAggregatorServer;
using service::MergeStatus;
using service::QueryInterval;
using service::QueryStatus;
using service::RangeQueryRequest;
using service::RangeQueryResponse;
using service::ServerKind;
using service::ServerKindName;
using service::ServerSpec;
using service::StateMergeRequest;
using service::StateMergeResponse;

constexpr uint64_t kDomain = 64;
constexpr double kEps = 1.0;
constexpr int kShards = 3;

std::vector<uint64_t> TestValues(uint64_t n, uint64_t domain) {
  std::vector<uint64_t> values;
  values.reserve(n);
  Rng rng(0xFA111);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(rng.Bernoulli(0.6) ? rng.UniformInt(domain / 8)
                                        : rng.UniformInt(domain));
  }
  return values;
}

// One shard's batch message for the single-session mechanisms. The same
// bytes feed both shard s and the single-process reference, so their
// union must agree bit for bit.
std::vector<uint8_t> EncodeShardBatch(const ServerSpec& spec,
                                      std::span<const uint64_t> values,
                                      uint64_t seed) {
  Rng rng(seed);
  switch (spec.kind) {
    case ServerKind::kFlat: {
      protocol::FlatHrrClient client(spec.domain, spec.eps);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kHaar: {
      protocol::HaarHrrClient client(spec.domain, spec.eps);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kTree: {
      protocol::TreeHrrClient client(spec.domain, spec.fanout, spec.eps);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kGrid: {
      // `values` doubles as row-major coordinates (dimensions per point).
      protocol::MultiDimClient client(spec.domain, spec.dimensions, spec.eps,
                                      spec.fanout);
      return client.EncodeUsersSerialized(values, rng);
    }
    case ServerKind::kAhead:
      ADD_FAILURE() << "AHEAD uses the two-phase driver";
      return {};
  }
  return {};
}

// The single-session specs the matrix tests iterate: the three 1-D
// mechanisms plus the grid at two and three axes. AHEAD gets dedicated
// two-phase tests.
std::vector<ServerSpec> MatrixSpecs() {
  std::vector<ServerSpec> specs;
  for (ServerKind kind :
       {ServerKind::kFlat, ServerKind::kHaar, ServerKind::kTree}) {
    ServerSpec spec;
    spec.kind = kind;
    spec.domain = kDomain;
    spec.eps = kEps;
    specs.push_back(spec);
  }
  for (uint32_t dims : {2u, 3u}) {
    ServerSpec spec;
    spec.kind = ServerKind::kGrid;
    spec.domain = 16;
    spec.eps = kEps;
    spec.fanout = 2;
    spec.dimensions = dims;
    specs.push_back(spec);
  }
  return specs;
}

// Per-shard share of the workload for `spec`: kShards batch messages
// with globally distinct encode seeds, so shard ingestion partitions
// exactly what the reference ingests whole.
std::vector<std::vector<uint8_t>> ShardBatches(const ServerSpec& spec) {
  const uint64_t points = spec.kind == ServerKind::kGrid ? 300 : 900;
  const uint64_t stride =
      spec.kind == ServerKind::kGrid ? spec.dimensions : 1;
  std::vector<uint64_t> values = TestValues(points * stride, spec.domain);
  std::vector<std::vector<uint8_t>> batches;
  const uint64_t per_shard = points / kShards;
  for (int s = 0; s < kShards; ++s) {
    std::span<const uint64_t> slice(values.data() + s * per_shard * stride,
                                    per_shard * stride);
    batches.push_back(EncodeShardBatch(spec, slice, /*seed=*/0x51AB + s));
  }
  return batches;
}

std::unique_ptr<AggregatorServer> IngestedServer(
    const ServerSpec& spec, std::span<const std::vector<uint8_t>> batches) {
  std::unique_ptr<AggregatorServer> server = MakeAggregatorServer(spec);
  for (const std::vector<uint8_t>& batch : batches) {
    EXPECT_EQ(server->AbsorbBatchSerialized(batch), ParseError::kOk);
  }
  return server;
}

// --- The merge algebra, via the public serialized-state API ------------

TEST(StateSnapshot, RestoredStateReserializesCanonically) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind) + "/d" +
                 std::to_string(spec.kind == ServerKind::kGrid
                                    ? spec.dimensions
                                    : 1));
    std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    std::unique_ptr<AggregatorServer> source = IngestedServer(spec, batches);
    std::vector<uint8_t> snapshot = source->SerializeState();

    std::unique_ptr<AggregatorServer> restored = MakeAggregatorServer(spec);
    ASSERT_EQ(restored->MergeSerializedState(snapshot), MergeStatus::kOk);
    // Canonical: the restored aggregate re-serializes to the same bytes,
    // and carries the same ingestion accounting.
    EXPECT_EQ(restored->SerializeState(), snapshot);
    EXPECT_EQ(restored->stats(), source->stats());

    // And the restored state answers queries identically.
    source->Finalize();
    restored->Finalize();
    EXPECT_EQ(restored->EstimateFrequencies(), source->EstimateFrequencies());
  }
}

TEST(StateSnapshot, MergeIsAssociativeAndMatchesSingleProcess) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind) + "/d" +
                 std::to_string(spec.kind == ServerKind::kGrid
                                    ? spec.dimensions
                                    : 1));
    std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    // Reference: every shard's bytes into one server, in shard order.
    std::unique_ptr<AggregatorServer> reference =
        IngestedServer(spec, batches);
    const std::vector<uint8_t> expected = reference->SerializeState();

    std::vector<std::vector<uint8_t>> snaps;
    for (int s = 0; s < kShards; ++s) {
      snaps.push_back(
          IngestedServer(spec, {&batches[s], 1})->SerializeState());
    }

    // (A . B) . C — with the intermediate re-serialized and restored, so
    // the associativity claim covers the wire form, not just in-memory
    // objects.
    std::unique_ptr<AggregatorServer> left = MakeAggregatorServer(spec);
    ASSERT_EQ(left->MergeSerializedState(snaps[0]), MergeStatus::kOk);
    ASSERT_EQ(left->MergeSerializedState(snaps[1]), MergeStatus::kOk);
    std::vector<uint8_t> left_snapshot = left->SerializeState();
    std::unique_ptr<AggregatorServer> left_total = MakeAggregatorServer(spec);
    ASSERT_EQ(left_total->MergeSerializedState(left_snapshot),
              MergeStatus::kOk);
    ASSERT_EQ(left_total->MergeSerializedState(snaps[2]), MergeStatus::kOk);

    // A . (B . C)
    std::unique_ptr<AggregatorServer> right = MakeAggregatorServer(spec);
    ASSERT_EQ(right->MergeSerializedState(snaps[1]), MergeStatus::kOk);
    ASSERT_EQ(right->MergeSerializedState(snaps[2]), MergeStatus::kOk);
    std::vector<uint8_t> right_snapshot = right->SerializeState();
    std::unique_ptr<AggregatorServer> right_total =
        MakeAggregatorServer(spec);
    ASSERT_EQ(right_total->MergeSerializedState(snaps[0]), MergeStatus::kOk);
    ASSERT_EQ(right_total->MergeSerializedState(right_snapshot),
              MergeStatus::kOk);

    EXPECT_EQ(left_total->SerializeState(), expected);
    EXPECT_EQ(right_total->SerializeState(), expected);

    reference->Finalize();
    left_total->Finalize();
    EXPECT_EQ(left_total->EstimateFrequencies(),
              reference->EstimateFrequencies());
  }
}

// --- AHEAD: the distributed two-phase protocol -------------------------
//
//  shard s: phase-1 ingest -> snapshot push ---.
//                                              +-> coordinator merges,
//  shard s: InstallTree(tree) <--- broadcast <-+   builds the tree
//  shard s: phase-2 ingest -> FULL snapshot --> fresh query node merges
//                                               all shards, finalizes.
// The phase-1 coordinator is a throwaway: its merged state exists only
// to derive the tree, so nothing is double counted.
TEST(StateSnapshot, AheadDistributedTwoPhaseMatchesSingleProcess) {
  ServerSpec spec;
  spec.kind = ServerKind::kAhead;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(900, kDomain);
  const size_t half = values.size() / 2;
  std::span<const uint64_t> phase1(values.data(), half);
  std::span<const uint64_t> phase2(values.data() + half,
                                   values.size() - half);
  protocol::AheadClient client(kDomain, spec.fanout, kEps);

  auto encode_phase1_batch = [&](std::span<const uint64_t> share,
                                 uint64_t seed) {
    Rng rng(seed);
    std::vector<protocol::AheadWireReport> reports;
    for (uint64_t v : share) reports.push_back(client.EncodePhase1(v, rng));
    return protocol::SerializeAheadReportBatch(reports);
  };

  const uint64_t p1_share = phase1.size() / kShards;
  const uint64_t p2_share = phase2.size() / kShards;

  // Single-process reference.
  protocol::AheadServer reference(kDomain, spec.fanout, kEps);
  for (int s = 0; s < kShards; ++s) {
    ASSERT_EQ(reference.AbsorbBatchSerialized(encode_phase1_batch(
                  phase1.subspan(s * p1_share, p1_share), 0xAA + s)),
              ParseError::kOk);
  }
  std::vector<uint8_t> reference_tree = reference.BuildTree();
  ASSERT_TRUE(client.AbsorbTreeDescription(reference_tree));
  std::vector<std::vector<uint8_t>> phase2_batches;
  for (int s = 0; s < kShards; ++s) {
    Rng rng(0xBB + s);
    std::vector<protocol::AheadWireReport> reports =
        client.EncodePhase2Users(phase2.subspan(s * p2_share, p2_share), rng);
    phase2_batches.push_back(protocol::SerializeAheadReportBatch(reports));
  }
  for (const auto& batch : phase2_batches) {
    ASSERT_EQ(reference.AbsorbBatchSerialized(batch), ParseError::kOk);
  }

  // Distributed: shard-local phase 1...
  std::vector<std::unique_ptr<AggregatorServer>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(MakeAggregatorServer(spec));
    ASSERT_EQ(shards[s]->AbsorbBatchSerialized(encode_phase1_batch(
                  phase1.subspan(s * p1_share, p1_share), 0xAA + s)),
              ParseError::kOk);
  }
  // ...phase-1 fan-in on a throwaway coordinator, tree derivation...
  std::unique_ptr<AggregatorServer> coordinator = MakeAggregatorServer(spec);
  for (const auto& shard : shards) {
    ASSERT_EQ(coordinator->MergeSerializedState(shard->SerializeState()),
              MergeStatus::kOk);
  }
  std::vector<uint8_t> tree =
      dynamic_cast<protocol::AheadServer&>(*coordinator).BuildTree();
  // Merged phase-1 counts equal the total counts, so the distributed
  // decomposition is the single-process one.
  EXPECT_EQ(tree, reference_tree);
  // ...tree broadcast + shard-local phase 2...
  for (int s = 0; s < kShards; ++s) {
    ASSERT_TRUE(
        dynamic_cast<protocol::AheadServer&>(*shards[s]).InstallTree(tree));
    ASSERT_EQ(shards[s]->AbsorbBatchSerialized(phase2_batches[s]),
              ParseError::kOk);
  }
  // ...and the final full-state fan-in on a fresh query node.
  std::unique_ptr<AggregatorServer> query_node = MakeAggregatorServer(spec);
  for (const auto& shard : shards) {
    ASSERT_EQ(query_node->MergeSerializedState(shard->SerializeState()),
              MergeStatus::kOk);
  }
  EXPECT_EQ(query_node->SerializeState(), reference.SerializeState());
  reference.Finalize();
  query_node->Finalize();
  EXPECT_EQ(query_node->EstimateFrequencies(),
            reference.EstimateFrequencies());
}

TEST(StateSnapshot, AheadTwoDifferentTreesRefuseToMerge) {
  ServerSpec spec;
  spec.kind = ServerKind::kAhead;
  spec.domain = kDomain;
  spec.eps = kEps;
  protocol::AheadClient client(kDomain, spec.fanout, kEps);

  // Two servers with very different phase-1 mass: their adaptive
  // decompositions disagree, so their phase-2 counts are not summable.
  auto build = [&](uint64_t seed, bool lumpy) {
    std::unique_ptr<AggregatorServer> server = MakeAggregatorServer(spec);
    Rng rng(seed);
    std::vector<protocol::AheadWireReport> reports;
    for (int i = 0; i < 600; ++i) {
      uint64_t v = lumpy ? 0 : rng.UniformInt(kDomain);
      reports.push_back(client.EncodePhase1(v, rng));
    }
    EXPECT_EQ(server->AbsorbBatchSerialized(
                  protocol::SerializeAheadReportBatch(reports)),
              ParseError::kOk);
    dynamic_cast<protocol::AheadServer&>(*server).BuildTree();
    return server;
  };
  std::unique_ptr<AggregatorServer> lumpy = build(1, true);
  std::unique_ptr<AggregatorServer> uniform = build(2, false);
  ASSERT_NE(lumpy->SerializeState(), uniform->SerializeState());
  EXPECT_EQ(lumpy->MergeSerializedState(uniform->SerializeState()),
            MergeStatus::kStateMismatch);
}

// --- The service merge plane, over serialized kStateMerge messages -----

std::vector<uint8_t> MergePush(AggregatorService& svc, uint64_t merge_id,
                               uint64_t server_id, uint64_t shard_index,
                               uint64_t shard_count, uint8_t flags,
                               std::span<const uint8_t> snapshot) {
  StateMergeRequest request;
  request.merge_id = merge_id;
  request.server_id = server_id;
  request.shard_index = shard_index;
  request.shard_count = shard_count;
  request.flags = flags;
  return svc.HandleMessage(service::SerializeStateMerge(request, snapshot));
}

StateMergeResponse MustParseAck(std::span<const uint8_t> bytes) {
  StateMergeResponse response;
  EXPECT_EQ(service::ParseStateMergeResponse(bytes, &response),
            ParseError::kOk);
  return response;
}

TEST(ServiceMergePlane, FanInBitIdenticalAcrossWorkersAndPushOrder) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind) + "/d" +
                 std::to_string(spec.kind == ServerKind::kGrid
                                    ? spec.dimensions
                                    : 1));
    std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    std::vector<std::vector<uint8_t>> snaps;
    for (int s = 0; s < kShards; ++s) {
      snaps.push_back(
          IngestedServer(spec, {&batches[s], 1})->SerializeState());
    }
    // Expected response bytes, from the single-process reference — the
    // exact math HandleRangeQuery runs on a finalized server.
    std::unique_ptr<AggregatorServer> reference =
        IngestedServer(spec, batches);
    reference->Finalize();
    const std::vector<QueryInterval> intervals = {
        {0, spec.domain - 1}, {3, spec.domain / 2}, {7, 7}};
    RangeQueryResponse expected;
    expected.query_id = 42;
    for (const QueryInterval& interval : intervals) {
      RangeEstimate estimate =
          reference->RangeQueryWithUncertainty(interval.lo, interval.hi);
      expected.estimates.push_back(service::IntervalEstimate{
          estimate.value, estimate.stddev * estimate.stddev});
    }
    const std::vector<uint8_t> expected_bytes =
        service::SerializeRangeQueryResponse(expected);

    for (unsigned workers : {0u, 1u, 4u, 8u}) {
      for (bool reversed : {false, true}) {
        SCOPED_TRACE(std::to_string(workers) +
                     (reversed ? " reversed" : " in order"));
        AggregatorService svc(workers);
        uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
        uint64_t pushed = 0;
        for (int i = 0; i < kShards; ++i) {
          const int s = reversed ? kShards - 1 - i : i;
          StateMergeResponse ack = MustParseAck(
              MergePush(svc, /*merge_id=*/9, id, s, kShards,
                        service::kMergeFlagFinalize, snaps[s]));
          EXPECT_EQ(ack.merge_id, 9u);
          ASSERT_EQ(ack.status, MergeStatus::kOk);
          EXPECT_EQ(ack.shards_received, ++pushed);
        }
        ASSERT_TRUE(svc.server_finalized(id));

        RangeQueryRequest request;
        request.query_id = 42;
        request.server_id = id;
        request.intervals = intervals;
        EXPECT_EQ(
            svc.HandleMessage(service::SerializeRangeQueryRequest(request)),
            expected_bytes);

        service::ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.merge_requests, 3u);
        EXPECT_EQ(stats.merges_completed, 1u);
        EXPECT_EQ(stats.merge_rejects, 0u);
        EXPECT_EQ(stats.merge_would_block, 0u);
        EXPECT_EQ(
            svc.registry().GetHistogram("merge.absorb_ns").Snapshot().count,
            3u);
        EXPECT_EQ(
            svc.registry().GetHistogram("merge.fan_in_ns").Snapshot().count,
            1u);
      }
    }
  }
}

// The snapshot intake and the buffered push run one admission, one
// decoder and one landing: for any bytes whose length opens an intake,
// landing them in pieces through Window()/Advance() must give the same
// ack, counters and merged state as HandleMessage on the whole frame.
TEST(ServiceMergePlane, IntakeLandsLikeTheBufferedPathAtEverySplit) {
  for (const ServerSpec& spec : MatrixSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind));
    const std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);
    const std::vector<uint8_t> snapshot =
        IngestedServer(spec, batches)->SerializeState();
    service::StateSnapshotHeader header;
    ASSERT_EQ(service::ParseStateSnapshot(snapshot, &header), ParseError::kOk);
    const std::vector<uint8_t> body(header.body.begin(), header.body.end());
    std::vector<std::vector<uint8_t>> bodies = {body};
    bodies.push_back(body);
    bodies.back().push_back(0x00);  // a trailing byte
    bodies.push_back(body);
    bodies.back()[0] ^= 0x01;  // level count (haar, tree) or report count
    bodies.push_back(body);
    bodies.back()[body.size() / 2] ^= 0x5A;  // a flipped byte mid-body
    for (size_t b = 0; b < bodies.size(); ++b) {
      StateMergeRequest request;
      request.merge_id = 40 + b;
      const std::vector<uint8_t> frame = service::SerializeStateMerge(
          request, service::SerializeStateSnapshot(header, bodies[b]));
      const auto head = std::span<const uint8_t>(frame).first(
          std::min(frame.size() - 1, service::kMaxStateMergeHeadBytes));
      for (size_t piece : {size_t{1}, size_t{7}, size_t{4096}, frame.size()}) {
        SCOPED_TRACE(testing::Message() << "body " << b << " piece " << piece);
        AggregatorService buffered(/*worker_threads=*/0);
        AggregatorService streamed(/*worker_threads=*/0);
        const uint64_t id = buffered.AddServer(MakeAggregatorServer(spec));
        streamed.AddServer(MakeAggregatorServer(spec));
        std::unique_ptr<AggregatorService::StateIntake> intake =
            streamed.OpenStateIntake(head, frame.size());
        if (spec.kind == ServerKind::kGrid) {
          // Sized by data, not configuration: always the buffered path.
          EXPECT_EQ(intake, nullptr);
          continue;
        }
        ASSERT_NE(intake, nullptr);
        for (size_t at = head.size(); at < frame.size();) {
          const size_t end = std::min(frame.size(), at + piece);
          while (at < end) {
            const std::span<uint8_t> window = intake->Window();
            const size_t n = std::min(window.size(), end - at);
            ASSERT_GT(n, 0u);
            std::memcpy(window.data(), frame.data() + at, n);
            intake->Advance(n);
            at += n;
          }
        }
        ASSERT_TRUE(intake->complete());
        EXPECT_TRUE(intake->Window().empty());
        EXPECT_EQ(intake->Finish(), buffered.HandleMessage(frame));
        intake.reset();
        EXPECT_EQ(streamed.stats(), buffered.stats());
        EXPECT_EQ(streamed.server(id).SerializeState(),
                  buffered.server(id).SerializeState());
        EXPECT_EQ(
            streamed.registry().GetHistogram("merge.absorb_ns").Snapshot().count,
            1u);
      }
    }
  }
}

TEST(ServiceMergePlane, TypedErrorMatrix) {
  ServerSpec flat;
  flat.kind = ServerKind::kFlat;
  flat.domain = kDomain;
  flat.eps = kEps;
  ServerSpec haar = flat;
  haar.kind = ServerKind::kHaar;

  std::vector<uint64_t> values = TestValues(60, kDomain);
  const std::vector<uint8_t> flat_batch =
      EncodeShardBatch(flat, values, /*seed=*/1);
  const std::vector<uint8_t> flat_snapshot =
      IngestedServer(flat, {&flat_batch, 1})->SerializeState();

  AggregatorService svc(/*worker_threads=*/0);
  uint64_t flat_id = svc.AddServer(MakeAggregatorServer(flat));
  uint64_t haar_id = svc.AddServer(MakeAggregatorServer(haar));

  // Unroutable shard geometry or bytes: typed, never silent.
  {
    std::vector<uint8_t> junk = protocol::EncodeEnvelope(
        protocol::MechanismTag::kStateMerge, {{0x01, 0x02}});
    StateMergeResponse ack = MustParseAck(svc.HandleMessage(junk));
    EXPECT_EQ(ack.status, MergeStatus::kMalformedRequest);
  }
  EXPECT_EQ(MustParseAck(MergePush(svc, 1, /*server_id=*/99, 0, 1, 0,
                                   flat_snapshot))
                .status,
            MergeStatus::kUnknownServer);
  // A flat snapshot pushed at a haar server: kind mismatch.
  EXPECT_EQ(
      MustParseAck(MergePush(svc, 2, haar_id, 0, 1, 0, flat_snapshot)).status,
      MergeStatus::kMechanismMismatch);
  // Same kind, different budget: config mismatch.
  {
    ServerSpec other_eps = flat;
    other_eps.eps = 2.0;
    std::vector<uint8_t> batch = EncodeShardBatch(other_eps, values, 1);
    std::vector<uint8_t> snapshot =
        IngestedServer(other_eps, {&batch, 1})->SerializeState();
    EXPECT_EQ(
        MustParseAck(MergePush(svc, 3, flat_id, 0, 1, 0, snapshot)).status,
        MergeStatus::kConfigMismatch);
  }
  // A well-framed snapshot whose state body is garbage.
  {
    service::StateSnapshotHeader header;
    header.kind = service::StateKind::kFlat;
    header.dimensions = 1;
    header.domain = kDomain;
    header.fanout = 0;
    header.eps = kEps;
    const uint8_t bad_body[] = {0xFF};  // truncated varint
    std::vector<uint8_t> forged =
        service::SerializeStateSnapshot(header, bad_body);
    EXPECT_EQ(
        MustParseAck(MergePush(svc, 4, flat_id, 0, 1, 0, forged)).status,
        MergeStatus::kMalformedSnapshot);
    // Complete, but an aggregate under a zero report count.
    std::vector<uint8_t> body;
    protocol::AppendVarU64(body, 0);        // reports
    protocol::AppendVarU64(body, kDomain);  // padded
    std::vector<uint64_t> sums(kDomain, 0);
    sums[3] = 1;
    protocol::AppendU64Array(body, sums);
    forged = service::SerializeStateSnapshot(header, body);
    EXPECT_EQ(
        MustParseAck(MergePush(svc, 4, flat_id, 0, 1, 0, forged)).status,
        MergeStatus::kMalformedSnapshot);
  }
  // Fan-in group hygiene: replayed shard, disagreeing geometry.
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 0, 3, 0, flat_snapshot))
                .status,
            MergeStatus::kOk);
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 0, 3, 0, flat_snapshot))
                .status,
            MergeStatus::kDuplicateShard);
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 1, 4, 0, flat_snapshot))
                .status,
            MergeStatus::kInconsistentFanIn);
  // The buffer cap: an over-cap push is deferred, not rejected, and NOT
  // recorded — the identical retry succeeds once space frees up.
  svc.set_merge_buffer_limit(1);  // merge 5 already buffers one shard
  {
    StateMergeResponse ack = MustParseAck(
        MergePush(svc, 5, flat_id, 1, 3, 0, flat_snapshot));
    EXPECT_EQ(ack.status, MergeStatus::kWouldBlock);
    EXPECT_EQ(ack.shards_received, 1u);
  }
  svc.set_merge_buffer_limit(256);
  EXPECT_EQ(MustParseAck(MergePush(svc, 5, flat_id, 1, 3, 0, flat_snapshot))
                .status,
            MergeStatus::kOk);
  // A push at a finalized server.
  ASSERT_TRUE(svc.FinalizeServer(haar_id));
  EXPECT_EQ(MustParseAck(MergePush(svc, 6, haar_id, 0, 1, 0, flat_snapshot))
                .status,
            MergeStatus::kAlreadyFinalized);

  service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merge_would_block, 1u);
  EXPECT_EQ(stats.merges_completed, 0u);
  // Every non-transient failure above, including the malformed request.
  EXPECT_EQ(stats.merge_rejects, 9u);
  EXPECT_EQ(stats.merge_requests, 12u);
}

TEST(ServiceMergePlane, StreamedAndMergedIngestCompose) {
  // Half the users stream into the hosted server directly, half arrive
  // as a shard snapshot: the composed aggregate must equal one server
  // that ingested everything.
  ServerSpec spec;
  spec.kind = ServerKind::kTree;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<std::vector<uint8_t>> batches = ShardBatches(spec);

  std::unique_ptr<AggregatorServer> reference = IngestedServer(spec, batches);
  reference->Finalize();

  AggregatorService svc(/*worker_threads=*/2);
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  svc.HandleMessage(service::SerializeStreamBegin({1, id}));
  svc.HandleMessage(service::SerializeStreamChunk(1, 0, batches[0]));
  svc.HandleMessage(service::SerializeStreamEnd({1, 1, 0}));
  svc.Drain();

  std::unique_ptr<AggregatorServer> shard = MakeAggregatorServer(spec);
  ASSERT_EQ(shard->AbsorbBatchSerialized(batches[1]), ParseError::kOk);
  ASSERT_EQ(shard->AbsorbBatchSerialized(batches[2]), ParseError::kOk);
  StateMergeResponse ack = MustParseAck(
      MergePush(svc, 8, id, 0, 1, service::kMergeFlagFinalize,
                shard->SerializeState()));
  ASSERT_EQ(ack.status, MergeStatus::kOk);
  ASSERT_TRUE(svc.server_finalized(id));
  EXPECT_EQ(svc.server(id).EstimateFrequencies(),
            reference->EstimateFrequencies());
  EXPECT_EQ(svc.server(id).stats(), reference->stats());
}

// --- Direct-API lifecycle errors ---------------------------------------

TEST(StateMergeApi, FinalizedServersRefuseInEitherDirection) {
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(40, kDomain);
  std::vector<uint8_t> batch = EncodeShardBatch(spec, values, 1);

  std::unique_ptr<AggregatorServer> finalized =
      IngestedServer(spec, {&batch, 1});
  std::vector<uint8_t> snapshot = finalized->SerializeState();
  finalized->Finalize();
  EXPECT_EQ(finalized->MergeSerializedState(snapshot),
            MergeStatus::kAlreadyFinalized);

  std::unique_ptr<AggregatorServer> live = MakeAggregatorServer(spec);
  EXPECT_EQ(live->MergeFrom(*finalized), MergeStatus::kAlreadyFinalized);
}

}  // namespace
}  // namespace ldp
