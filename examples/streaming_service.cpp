// The unified aggregator service, end to end over serialized bytes:
// two mechanism instances (HaarHRR and TreeHRR-with-CI) hosted by one
// AggregatorService, populations streamed in as chunked sessions, and
// range queries answered as kRangeQueryResponse messages — the complete
// client -> stream -> service -> query-response flow a deployment runs.
//
// Everything that crosses the "network" here is a byte vector; nothing
// touches the servers except through HandleMessage.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ldp.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

using namespace ldp;  // NOLINT(build/namespaces)

namespace {

constexpr uint64_t kDomain = 256;
constexpr double kEps = 1.2;
constexpr uint64_t kUsers = 20000;
constexpr int kChunks = 4;

// A skewed synthetic population: most mass in the low eighth.
std::vector<uint64_t> DrawPopulation(Rng& rng) {
  std::vector<uint64_t> values;
  values.reserve(kUsers);
  for (uint64_t i = 0; i < kUsers; ++i) {
    values.push_back(rng.Bernoulli(0.7) ? rng.UniformInt(kDomain / 8)
                                        : rng.UniformInt(kDomain));
  }
  return values;
}

// Encodes `values` into kChunks framed batch messages for `kind`.
template <typename Client>
std::vector<std::vector<uint8_t>> EncodeChunks(const Client& client,
                                               std::span<const uint64_t> values,
                                               Rng& rng) {
  std::vector<std::vector<uint8_t>> chunks;
  uint64_t per_chunk = (values.size() + kChunks - 1) / kChunks;
  for (int c = 0; c < kChunks; ++c) {
    uint64_t begin = c * per_chunk;
    uint64_t end = std::min<uint64_t>(values.size(), begin + per_chunk);
    if (begin >= end) break;
    chunks.push_back(
        client.EncodeUsersSerialized(values.subspan(begin, end - begin), rng));
  }
  return chunks;
}

void StreamIn(service::AggregatorService& svc, uint64_t session,
              uint64_t server_id,
              std::vector<std::vector<uint8_t>> chunks) {
  svc.HandleMessage(service::SerializeStreamBegin({session, server_id}));
  for (size_t c = 0; c < chunks.size(); ++c) {
    // Moving the message in lets the service keep the buffer instead of
    // copying the nested batch onto its ingestion queue.
    svc.HandleMessage(
        service::SerializeStreamChunk(session, c, chunks[c]));
  }
  svc.HandleMessage(service::SerializeStreamEnd(
      {session, chunks.size(), service::kStreamFlagFinalize}));
}

void QueryAndPrint(service::AggregatorService& svc, uint64_t server_id,
                   const char* label) {
  service::RangeQueryRequest request;
  request.query_id = server_id + 1;
  request.server_id = server_id;
  request.intervals = {{0, kDomain / 8 - 1},   // the heavy head
                       {kDomain / 8, kDomain - 1},
                       {0, kDomain - 1}};
  std::vector<uint8_t> reply =
      svc.HandleMessage(service::SerializeRangeQueryRequest(request));
  service::RangeQueryResponse response;
  if (service::ParseRangeQueryResponse(reply, &response) !=
          protocol::ParseError::kOk ||
      response.status != service::QueryStatus::kOk) {
    std::printf("%s: query failed (%s)\n", label,
                service::QueryStatusName(response.status).c_str());
    return;
  }
  static const char* kNames[] = {"head [0, D/8)", "tail [D/8, D)",
                                 "whole domain"};
  std::printf("%s (%" PRIu64 " reports accepted):\n", label,
              svc.server(server_id).accepted_reports());
  for (size_t i = 0; i < response.estimates.size(); ++i) {
    std::printf("  %-14s estimate %+.4f  (stddev %.4f)\n", kNames[i],
                response.estimates[i].estimate,
                std::sqrt(response.estimates[i].variance));
  }
}

}  // namespace

int main() {
  Rng rng(2024);
  std::vector<uint64_t> values = DrawPopulation(rng);

  // One service, two hosted mechanism instances; every chunk is absorbed
  // inside the HandleMessage call that delivers it.
  service::AggregatorService svc;
  service::ServerSpec haar;
  haar.kind = service::ServerKind::kHaar;
  haar.domain = kDomain;
  haar.eps = kEps;
  uint64_t haar_id = svc.AddServer(service::MakeAggregatorServer(haar));
  service::ServerSpec tree = haar;
  tree.kind = service::ServerKind::kTree;
  tree.fanout = 4;
  uint64_t tree_id = svc.AddServer(service::MakeAggregatorServer(tree));

  // Each mechanism gets the same population, encoded by its own client.
  protocol::HaarHrrClient haar_client(kDomain, kEps);
  protocol::TreeHrrClient tree_client(kDomain, 4, kEps);
  StreamIn(svc, /*session=*/1, haar_id,
           EncodeChunks(haar_client, values, rng));
  StreamIn(svc, /*session=*/2, tree_id,
           EncodeChunks(tree_client, values, rng));
  // Both sessions carried the finalize flag: both servers are final.

  double true_head = 0;
  for (uint64_t v : values) true_head += v < kDomain / 8 ? 1.0 : 0.0;
  std::printf("true head mass: %.4f\n\n",
              true_head / static_cast<double>(kUsers));
  QueryAndPrint(svc, haar_id, "HaarHRR");
  QueryAndPrint(svc, tree_id, "TreeHRR+CI");

  service::ServiceStats stats = svc.stats();
  std::printf("\nservice: %" PRIu64 " messages, %" PRIu64
              " chunks absorbed, %" PRIu64 " queries answered\n",
              stats.messages, stats.chunks_absorbed,
              stats.queries_answered);
  return 0;
}
