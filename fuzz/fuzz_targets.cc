#include "fuzz_targets.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "frequency/hrr.h"
#include "obs/stats_wire.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

// Semantic invariant check: unlike assert() it survives NDEBUG builds,
// and unlike LDP_CHECK it cannot be mistaken for input validation — a
// trap here is always a parser bug, never "the fuzzer found bad input".
#define LDP_FUZZ_ASSERT(cond) \
  do {                        \
    if (!(cond)) __builtin_trap(); \
  } while (0)

namespace ldp::fuzz {

namespace {

using protocol::Envelope;
using protocol::ParseError;

std::span<const uint8_t> AsSpan(const uint8_t* data, size_t size) {
  return std::span<const uint8_t>(data, size);
}

}  // namespace

int FuzzDecodeEnvelope(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);

  Envelope env;
  ParseError err = protocol::DecodeEnvelope(bytes, &env);
  if (err == ParseError::kOk) {
    LDP_FUZZ_ASSERT(env.version == protocol::kWireVersionV2);
    LDP_FUZZ_ASSERT(
        protocol::IsKnownMechanismTag(static_cast<uint8_t>(env.mechanism)));
    LDP_FUZZ_ASSERT(env.payload.size() ==
                    bytes.size() - protocol::kEnvelopeHeaderSize);
    LDP_FUZZ_ASSERT(protocol::MechanismTagName(env.mechanism) != "?");
  }
  LDP_FUZZ_ASSERT(protocol::ParseErrorName(err) != "?");

  // Every typed parser must be total over the same bytes, and whatever
  // parses must be in-spec.
  HrrReport flat;
  if (protocol::ParseHrrReport(bytes, &flat)) {
    LDP_FUZZ_ASSERT(flat.sign == 1 || flat.sign == -1);
  }
  protocol::HaarHrrReport haar;
  if (protocol::ParseHaarHrrReport(bytes, &haar)) {
    LDP_FUZZ_ASSERT(haar.level >= 1);
    LDP_FUZZ_ASSERT(haar.inner.sign == 1 || haar.inner.sign == -1);
  }
  protocol::TreeHrrReport tree;
  if (protocol::ParseTreeHrrReport(bytes, &tree)) {
    LDP_FUZZ_ASSERT(tree.level >= 1);
    LDP_FUZZ_ASSERT(tree.inner.sign == 1 || tree.inner.sign == -1);
  }

  std::vector<HrrReport> flat_batch;
  uint64_t malformed = 0;
  if (protocol::ParseHrrReportBatch(bytes, &flat_batch, &malformed) ==
      ParseError::kOk) {
    for (const HrrReport& r : flat_batch) {
      LDP_FUZZ_ASSERT(r.sign == 1 || r.sign == -1);
    }
    LDP_FUZZ_ASSERT(flat_batch.size() + malformed <= bytes.size());
  }
  std::vector<protocol::HaarHrrReport> haar_batch;
  if (protocol::ParseHaarHrrReportBatch(bytes, &haar_batch) ==
      ParseError::kOk) {
    for (const protocol::HaarHrrReport& r : haar_batch) {
      LDP_FUZZ_ASSERT(r.level >= 1);
    }
  }
  std::vector<protocol::TreeHrrReport> tree_batch;
  if (protocol::ParseTreeHrrReportBatch(bytes, &tree_batch) ==
      ParseError::kOk) {
    for (const protocol::TreeHrrReport& r : tree_batch) {
      LDP_FUZZ_ASSERT(r.level >= 1);
    }
  }

  protocol::AheadWireReport ahead;
  if (protocol::ParseAheadReport(bytes, &ahead)) {
    LDP_FUZZ_ASSERT(ahead.phase == 1 || ahead.phase == 2);
    LDP_FUZZ_ASSERT(ahead.level >= 1);
  }
  std::vector<protocol::AheadWireReport> ahead_batch;
  if (protocol::ParseAheadReportBatch(bytes, &ahead_batch) ==
      ParseError::kOk) {
    for (const protocol::AheadWireReport& r : ahead_batch) {
      LDP_FUZZ_ASSERT(r.phase == 1 || r.phase == 2);
    }
  }
  {
    uint64_t domain = 0;
    uint64_t fanout = 0;
    std::optional<AdaptiveTree> tree;
    if (protocol::ParseAheadTree(bytes, &domain, &fanout, &tree) ==
        ParseError::kOk) {
      LDP_FUZZ_ASSERT(tree.has_value());
      LDP_FUZZ_ASSERT(fanout >= 2 &&
                      fanout <= protocol::kMaxAheadTreeFanout);
      LDP_FUZZ_ASSERT(tree->nodes().size() <=
                      protocol::kMaxAheadTreeNodes);
      LDP_FUZZ_ASSERT(tree->num_levels() >= 1);
    }
  }

  obs::StatsQuery stats_query;
  if (obs::ParseStatsQuery(bytes, &stats_query) == ParseError::kOk) {
    // The query payload is fixed-width with no slack, so serialization
    // must reproduce the input exactly.
    std::vector<uint8_t> reencoded = obs::SerializeStatsQuery(stats_query);
    LDP_FUZZ_ASSERT(std::equal(reencoded.begin(), reencoded.end(),
                               bytes.begin(), bytes.end()));
  }
  obs::StatsResponse stats_response;
  if (obs::ParseStatsResponse(bytes, &stats_response) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(stats_response.format_version ==
                    obs::kStatsFormatVersion);
    LDP_FUZZ_ASSERT(obs::StatsStatusName(stats_response.status) != "?");
    for (const obs::HistogramValue& h : stats_response.metrics.histograms) {
      // Derived-count coherence and quantile sanity on whatever parsed.
      uint64_t bucket_total = 0;
      for (uint64_t b : h.histogram.buckets) bucket_total += b;
      LDP_FUZZ_ASSERT(h.histogram.count == bucket_total);
      if (h.histogram.count > 0) {
        uint64_t p50 = h.histogram.Quantile(0.50);
        LDP_FUZZ_ASSERT(p50 >= h.histogram.min && p50 <= h.histogram.max);
      }
    }
    // Round-trip fixpoint (byte identity with the input would be too
    // strong: ReadVarU64 tolerates non-minimal varints, the serializer
    // always emits minimal ones): re-serializing and re-parsing must
    // reproduce the same message, and that wire form must be stable.
    std::vector<uint8_t> reencoded =
        obs::SerializeStatsResponse(stats_response);
    obs::StatsResponse reparsed;
    LDP_FUZZ_ASSERT(obs::ParseStatsResponse(reencoded, &reparsed) ==
                    ParseError::kOk);
    LDP_FUZZ_ASSERT(reparsed == stats_response);
    LDP_FUZZ_ASSERT(obs::SerializeStatsResponse(reparsed) == reencoded);
  }

  // State plane (distributed fan-in): the three typed parsers must be
  // total, and a snapshot that frames must be totally *handled* by every
  // mechanism family — merged when header+body match the target's exact
  // configuration, a typed error otherwise, never a crash.
  {
    service::StateSnapshotHeader snapshot;
    if (service::ParseStateSnapshot(bytes, &snapshot) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(
          service::IsKnownStateKind(static_cast<uint8_t>(snapshot.kind)));
      LDP_FUZZ_ASSERT(service::StateKindName(snapshot.kind) != "?");
      LDP_FUZZ_ASSERT(snapshot.domain >= 2 &&
                      snapshot.domain <= service::kMaxStateDomain);
      LDP_FUZZ_ASSERT(std::isfinite(snapshot.eps) && snapshot.eps > 0.0);
      std::vector<service::ServerSpec> specs =
          service::AllServerSpecs(/*domain=*/64, /*eps=*/1.0);
      service::ServerSpec grid;
      grid.kind = service::ServerKind::kGrid;
      grid.domain = 16;
      grid.dimensions = 2;
      grid.fanout = 2;
      specs.push_back(grid);
      for (const service::ServerSpec& spec : specs) {
        auto server = service::MakeAggregatorServer(spec);
        service::MergeStatus status = server->MergeSerializedState(bytes);
        LDP_FUZZ_ASSERT(service::MergeStatusName(status) != "?");
        if (status == service::MergeStatus::kOk) {
          // A merged snapshot must leave the server queryable, and its
          // restored state must re-serialize canonically: merging that
          // re-serialization into a fresh twin succeeds.
          auto twin = service::MakeAggregatorServer(spec);
          LDP_FUZZ_ASSERT(twin->MergeSerializedState(
                              server->SerializeState()) ==
                          service::MergeStatus::kOk);
          server->Finalize();
          LDP_FUZZ_ASSERT(
              !std::isnan(server->RangeQuery(0, server->domain() - 1)));
        }
      }
    }
  }
  {
    service::StateMergeRequest merge;
    if (service::ParseStateMerge(bytes, &merge) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(merge.shard_count >= 1 &&
                      merge.shard_count <= service::kMaxMergeShards);
      LDP_FUZZ_ASSERT(merge.shard_index < merge.shard_count);
      LDP_FUZZ_ASSERT((merge.flags & ~service::kMergeFlagFinalize) == 0);
      // The nested bytes must at least re-frame as a snapshot envelope.
      Envelope nested;
      LDP_FUZZ_ASSERT(protocol::DecodeEnvelope(merge.snapshot, &nested) ==
                      ParseError::kOk);
      LDP_FUZZ_ASSERT(nested.mechanism ==
                      protocol::MechanismTag::kStateSnapshot);
    }
  }
  {
    service::StateMergeResponse ack;
    if (service::ParseStateMergeResponse(bytes, &ack) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(
          service::IsKnownMergeStatus(static_cast<uint8_t>(ack.status)));
      LDP_FUZZ_ASSERT(service::MergeStatusName(ack.status) != "?");
      // Round-trip fixpoint (byte identity would be too strong: the
      // parser tolerates non-minimal varints, the serializer emits
      // minimal ones).
      std::vector<uint8_t> reencoded =
          service::SerializeStateMergeResponse(ack);
      service::StateMergeResponse reparsed;
      LDP_FUZZ_ASSERT(service::ParseStateMergeResponse(
                          reencoded, &reparsed) == ParseError::kOk);
      LDP_FUZZ_ASSERT(reparsed == ack);
    }
  }

  protocol::GrrWireReport grr;
  (void)protocol::ParseGrrReport(bytes, &grr);
  protocol::OlhWireReport olh;
  (void)protocol::ParseOlhReport(bytes, &olh);
  protocol::UnaryWireReport unary;
  if (protocol::ParseUnaryReport(protocol::MechanismTag::kOue, bytes,
                                 &unary) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(unary.packed.size() == (unary.num_bits + 7) / 8);
  }
  if (protocol::ParseUnaryReport(protocol::MechanismTag::kSue, bytes,
                                 &unary) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(unary.packed.size() == (unary.num_bits + 7) / 8);
  }
  return 0;
}

namespace {

// Charges one rejection to `twin`: an empty message never parses.
void ChargeRejection(service::AggregatorServer& twin) {
  LDP_FUZZ_ASSERT(!twin.AbsorbSerialized(std::span<const uint8_t>()));
}

// Batch ingestion against its typed reference. `server` takes the bytes
// through AbsorbBatchSerialized (the in-place slot walk); `twin` through
// the typed Parse*ReportBatch and then per-report Absorb, with every
// rejection the parser decides (the whole message on a structural
// failure, one per malformed slot) charged as one unparseable message.
// Both must reach the same error, accepted count, counters and snapshot
// bytes.
template <typename Server, typename Report>
void CheckBatchAgainstTypedReference(
    Server& server, Server& twin, std::span<const uint8_t> bytes,
    ParseError (*parse)(std::span<const uint8_t>, std::vector<Report>*,
                        uint64_t*)) {
  uint64_t accepted = 0;
  ParseError err = server.AbsorbBatchSerialized(bytes, &accepted);
  std::vector<Report> reports;
  uint64_t malformed = 0;
  ParseError reference = parse(bytes, &reports, &malformed);
  uint64_t reference_accepted = 0;
  if (reference != ParseError::kOk) {
    ChargeRejection(twin);
  } else {
    for (uint64_t i = 0; i < malformed; ++i) ChargeRejection(twin);
    for (const Report& report : reports) {
      reference_accepted += twin.Absorb(report);
    }
  }
  LDP_FUZZ_ASSERT(err == reference);
  LDP_FUZZ_ASSERT(accepted == reference_accepted);
  LDP_FUZZ_ASSERT(server.stats() == twin.stats());
  LDP_FUZZ_ASSERT(server.SerializeState() == twin.SerializeState());
}

// Shared absorb-path shape: feed the bytes down the single-report path
// (exactly one accept-or-reject) and the batch path (checked against the
// typed reference on a twin), then finalize and query.
template <typename Server, typename Report>
int FuzzAbsorb(Server& server, Server& twin, std::span<const uint8_t> bytes,
               uint64_t domain,
               ParseError (*parse)(std::span<const uint8_t>,
                                   std::vector<Report>*, uint64_t*)) {
  server.AbsorbSerialized(bytes);
  twin.AbsorbSerialized(bytes);
  LDP_FUZZ_ASSERT(server.accepted_reports() + server.rejected_reports() ==
                  1);

  CheckBatchAgainstTypedReference(server, twin, bytes, parse);

  server.Finalize();
  double total = server.RangeQuery(0, domain - 1);
  LDP_FUZZ_ASSERT(std::isfinite(total));
  return 0;
}

}  // namespace

int FuzzFlatAbsorb(const uint8_t* data, size_t size) {
  protocol::FlatHrrServer server(/*domain=*/64, /*eps=*/1.0);
  protocol::FlatHrrServer twin(/*domain=*/64, /*eps=*/1.0);
  return FuzzAbsorb(server, twin, AsSpan(data, size), 64,
                    protocol::ParseHrrReportBatch);
}

int FuzzHaarAbsorb(const uint8_t* data, size_t size) {
  protocol::HaarHrrServer server(/*domain=*/64, /*eps=*/1.0);
  protocol::HaarHrrServer twin(/*domain=*/64, /*eps=*/1.0);
  return FuzzAbsorb(server, twin, AsSpan(data, size), 64,
                    protocol::ParseHaarHrrReportBatch);
}

int FuzzTreeAbsorb(const uint8_t* data, size_t size) {
  protocol::TreeHrrServer server(/*domain=*/128, /*fanout=*/4,
                                 /*eps=*/1.0);
  protocol::TreeHrrServer twin(/*domain=*/128, /*fanout=*/4, /*eps=*/1.0);
  return FuzzAbsorb(server, twin, AsSpan(data, size), 128,
                    protocol::ParseTreeHrrReportBatch);
}

int FuzzAheadAbsorb(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);
  protocol::AheadServer server(/*domain=*/64, /*fanout=*/4, /*eps=*/1.0);
  protocol::AheadServer twin(/*domain=*/64, /*fanout=*/4, /*eps=*/1.0);

  // Phase-1 era: exactly one accept-or-reject per single ingestion call,
  // then the batch path against its typed reference.
  server.AbsorbSerialized(bytes);
  twin.AbsorbSerialized(bytes);
  LDP_FUZZ_ASSERT(server.accepted_reports() + server.rejected_reports() ==
                  1);
  CheckBatchAgainstTypedReference(server, twin, bytes,
                                  protocol::ParseAheadReportBatch);

  // The phase transition must be well-defined whatever arrived, and its
  // broadcast must parse back (server and client agree on the format).
  std::vector<uint8_t> tree_msg = server.BuildTree();
  LDP_FUZZ_ASSERT(twin.BuildTree() == tree_msg);
  {
    uint64_t domain = 0;
    uint64_t fanout = 0;
    std::optional<AdaptiveTree> tree;
    LDP_FUZZ_ASSERT(protocol::ParseAheadTree(tree_msg, &domain, &fanout,
                                             &tree) == ParseError::kOk);
    LDP_FUZZ_ASSERT(domain == 64 && fanout == 4);
  }

  // Phase-2 era: the same bytes again (a phase-1 report is now stale and
  // must be rejected, a forged phase-2 report range-checked), then the
  // batch path.
  server.AbsorbSerialized(bytes);
  twin.AbsorbSerialized(bytes);
  CheckBatchAgainstTypedReference(server, twin, bytes,
                                  protocol::ParseAheadReportBatch);

  server.Finalize();
  double total = server.RangeQuery(0, 63);
  LDP_FUZZ_ASSERT(std::isfinite(total));
  for (double f : server.EstimateFrequencies()) {
    LDP_FUZZ_ASSERT(std::isfinite(f));
  }
  return 0;
}

int FuzzMultiDimAbsorb(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);

  // Typed parser totality: whatever parses must be in-spec.
  protocol::MultiDimReport report;
  if (protocol::ParseMultiDimReport(bytes, &report) == ParseError::kOk) {
    LDP_FUZZ_ASSERT(!report.levels.empty());
    LDP_FUZZ_ASSERT(report.levels.size() <= protocol::kMaxWireDimensions);
    bool nontrivial = false;
    for (uint8_t level : report.levels) nontrivial |= level != 0;
    LDP_FUZZ_ASSERT(nontrivial);
  }
  {
    std::vector<protocol::MultiDimReport> reports;
    uint64_t malformed = 0;
    if (protocol::ParseMultiDimReportBatch(bytes, &reports, &malformed) ==
        ParseError::kOk) {
      for (const protocol::MultiDimReport& r : reports) {
        LDP_FUZZ_ASSERT(!r.levels.empty());
        LDP_FUZZ_ASSERT(r.levels.size() == reports.front().levels.size());
      }
    }
  }
  {
    service::MultiDimQueryRequest request;
    if (ParseMultiDimQueryRequest(bytes, &request) == ParseError::kOk) {
      LDP_FUZZ_ASSERT(request.dimensions >= 1);
      LDP_FUZZ_ASSERT(request.dimensions <= protocol::kMaxWireDimensions);
      for (const service::QueryBox& box : request.boxes) {
        LDP_FUZZ_ASSERT(box.axes.size() == request.dimensions);
      }
    }
  }

  // Server ingestion contract, mirroring FuzzAbsorb for the 1-D servers.
  protocol::MultiDimServer server(/*domain_per_dim=*/16, /*dimensions=*/2,
                                  /*eps=*/1.0);
  protocol::MultiDimServer twin(/*domain_per_dim=*/16, /*dimensions=*/2,
                                /*eps=*/1.0);
  server.AbsorbSerialized(bytes);
  twin.AbsorbSerialized(bytes);
  LDP_FUZZ_ASSERT(server.accepted_reports() + server.rejected_reports() ==
                  1);
  CheckBatchAgainstTypedReference(server, twin, bytes,
                                  protocol::ParseMultiDimReportBatch);

  server.Finalize();
  const AxisInterval box[2] = {{0, 15}, {3, 12}};
  LDP_FUZZ_ASSERT(std::isfinite(server.BoxQuery(box)));
  RangeEstimate est = server.BoxQueryWithUncertainty(box);
  LDP_FUZZ_ASSERT(std::isfinite(est.value));
  // Tuples that saw no reports advertise infinite variance on purpose,
  // so the envelope may be +inf here — but never NaN.
  LDP_FUZZ_ASSERT(!std::isnan(est.stddev));
  LDP_FUZZ_ASSERT(std::isfinite(server.RangeQuery(0, 15)));
  return 0;
}

int FuzzStreamSession(const uint8_t* data, size_t size) {
  std::span<const uint8_t> bytes = AsSpan(data, size);
  // Two hosted mechanism instances so server-id routing, concurrent
  // strands, and cross-mechanism chunk payloads are all reachable.
  service::AggregatorService svc(/*worker_threads=*/2);
  service::ServerSpec spec;
  spec.kind = service::ServerKind::kFlat;
  spec.domain = 64;
  spec.eps = 1.0;
  uint64_t flat_id = svc.AddServer(service::MakeAggregatorServer(spec));
  spec.kind = service::ServerKind::kTree;
  spec.domain = 128;
  uint64_t tree_id = svc.AddServer(service::MakeAggregatorServer(spec));

  // Walk the blob as the service's inbound byte stream: each framed
  // region is one message (its declared payload clipped to what is
  // present), unframeable regions advance a byte so every offset is
  // explored.
  size_t offset = 0;
  int handled = 0;
  while (offset < bytes.size() && handled < 64) {
    std::span<const uint8_t> rest = bytes.subspan(offset);
    size_t advance = 1;
    if (rest.size() >= protocol::kEnvelopeHeaderSize &&
        protocol::LooksLikeEnvelope(rest)) {
      uint32_t payload_len = 0;
      for (int i = 0; i < 4; ++i) {
        payload_len |= static_cast<uint32_t>(rest[4 + i]) << (8 * i);
      }
      size_t total = std::min(
          protocol::kEnvelopeHeaderSize + static_cast<size_t>(payload_len),
          rest.size());
      svc.HandleMessage(rest.first(total));
      ++handled;
      advance = total;
    }
    offset += advance;
  }
  svc.Drain();
  service::ServiceStats stats = svc.stats();
  LDP_FUZZ_ASSERT(stats.chunks_absorbed == stats.chunks_enqueued);

  // Whatever arrived, both servers finalize (unless a stream already
  // did) and answer over the wire with a parseable, non-NaN response.
  svc.FinalizeServer(flat_id);
  svc.FinalizeServer(tree_id);
  for (uint64_t id : {flat_id, tree_id}) {
    LDP_FUZZ_ASSERT(svc.server_finalized(id));
    service::RangeQueryRequest request;
    request.query_id = 1;
    request.server_id = id;
    request.intervals = {{0, svc.server(id).domain() - 1}, {3, 9}};
    std::vector<uint8_t> reply =
        svc.HandleMessage(service::SerializeRangeQueryRequest(request));
    service::RangeQueryResponse response;
    LDP_FUZZ_ASSERT(service::ParseRangeQueryResponse(reply, &response) ==
                    ParseError::kOk);
    LDP_FUZZ_ASSERT(response.status == service::QueryStatus::kOk);
    LDP_FUZZ_ASSERT(response.estimates.size() == 2);
    for (const service::IntervalEstimate& e : response.estimates) {
      // Estimates from arbitrary reports stay non-NaN; variance may be
      // +inf when zero reports were accepted.
      LDP_FUZZ_ASSERT(!std::isnan(e.estimate));
      LDP_FUZZ_ASSERT(!std::isnan(e.variance));
    }
  }
  return 0;
}

int FuzzStateIntake(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  service::ServerSpec spec;
  spec.domain = 64;
  switch (data[0] % 3) {
    case 0:
      spec.kind = service::ServerKind::kFlat;
      break;
    case 1:
      spec.kind = service::ServerKind::kHaar;
      break;
    default:
      spec.kind = service::ServerKind::kTree;
      spec.domain = 128;
      break;
  }
  const size_t piece_count = std::min<size_t>(data[1], 32);
  if (size < 2 + piece_count) return 0;
  const std::span<const uint8_t> pieces(data + 2, piece_count);
  const std::span<const uint8_t> body = AsSpan(data, size).subspan(
      2 + piece_count);
  // Piece k of a split: (its byte + 1) bytes, cycling; one piece when
  // the input names none.
  auto piece_bytes = [&](size_t k, size_t left) {
    return pieces.empty() ? left
                          : std::min<size_t>(pieces[k % pieces.size()] + 1,
                                             left);
  };

  const std::unique_ptr<service::AggregatorServer> server =
      service::MakeAggregatorServer(spec);
  service::StateSnapshotHeader header;
  const std::vector<uint8_t> empty = server->SerializeState();
  LDP_FUZZ_ASSERT(service::ParseStateSnapshot(empty, &header) ==
                  ParseError::kOk);
  header.accepted = 5;
  header.rejected = 2;
  header.body = body;

  // The reference verdict: one restore of the whole body.
  std::unique_ptr<service::AggregatorServer> whole;
  const bool whole_ok =
      server->RestoreShard(header, &whole) == service::MergeStatus::kOk;

  // The same bytes through the decoder, split where the input says.
  std::unique_ptr<service::AggregatorServer> split =
      server->CloneForSnapshot(header);
  std::optional<HrrStateDecoder> decoder = split->StateBodyDecoder();
  LDP_FUZZ_ASSERT(decoder.has_value());
  bool fed = true;
  for (size_t at = 0, k = 0; at < body.size() && fed; ++k) {
    const size_t n = piece_bytes(k, body.size() - at);
    fed = decoder->Feed(body.subspan(at, n));
    at += n;
  }
  LDP_FUZZ_ASSERT((fed && decoder->done()) == whole_ok);
  if (whole_ok) {
    LDP_FUZZ_ASSERT(split->SerializeState() == whole->SerializeState());
  }

  // The service's snapshot intake against the buffered push.
  service::StateMergeRequest request;
  request.merge_id = 1;
  const std::vector<uint8_t> frame = service::SerializeStateMerge(
      request, service::SerializeStateSnapshot(header, body));
  service::AggregatorService buffered(/*worker_threads=*/0);
  service::AggregatorService streamed(/*worker_threads=*/0);
  buffered.AddServer(service::MakeAggregatorServer(spec));
  streamed.AddServer(service::MakeAggregatorServer(spec));
  const std::span<const uint8_t> head = std::span<const uint8_t>(frame).first(
      std::min(frame.size() - 1, service::kMaxStateMergeHeadBytes));
  std::unique_ptr<service::AggregatorService::StateIntake> intake =
      streamed.OpenStateIntake(head, frame.size());
  LDP_FUZZ_ASSERT((intake != nullptr) ==
                  server->StateBodySizeRange()->Contains(body.size()));
  const std::vector<uint8_t> expected = buffered.HandleMessage(frame);
  service::StateMergeResponse ack;
  LDP_FUZZ_ASSERT(service::ParseStateMergeResponse(expected, &ack) ==
                  ParseError::kOk);
  LDP_FUZZ_ASSERT((ack.status == service::MergeStatus::kOk) == whole_ok);
  if (intake == nullptr) return 0;
  for (size_t at = head.size(), k = 0; at < frame.size(); ++k) {
    const size_t end = at + piece_bytes(k, frame.size() - at);
    while (at < end) {
      const std::span<uint8_t> window = intake->Window();
      const size_t n = std::min(window.size(), end - at);
      LDP_FUZZ_ASSERT(n > 0);
      std::memcpy(window.data(), frame.data() + at, n);
      intake->Advance(n);
      at += n;
    }
  }
  LDP_FUZZ_ASSERT(intake->complete());
  LDP_FUZZ_ASSERT(intake->Finish() == expected);
  intake.reset();
  LDP_FUZZ_ASSERT(streamed.stats() == buffered.stats());
  LDP_FUZZ_ASSERT(streamed.server(0).SerializeState() ==
                  buffered.server(0).SerializeState());
  return 0;
}

}  // namespace ldp::fuzz
