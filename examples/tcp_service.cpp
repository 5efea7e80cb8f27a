// The aggregator service behind a real TCP socket: a TcpFrontEnd on an
// ephemeral loopback port, a TcpClient streaming an LDP population in
// chunked sessions over the wire, and range queries answered as framed
// kRangeQueryResponse messages on the same connection — the complete
// networked deployment flow, in one process for the demo.
//
// The wire bytes are exactly the ones streaming_service.cpp feeds to
// HandleMessage in process; the TCP transport frames them with nothing
// extra, because the v2 envelope is already self-delimiting.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ldp.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "protocol/haar_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

using namespace ldp;  // NOLINT(build/namespaces)

namespace {

constexpr uint64_t kDomain = 256;
constexpr double kEps = 1.2;
constexpr uint64_t kUsers = 20000;
constexpr int kChunks = 4;

}  // namespace

int main() {
  // Aggregator side: one HaarHRR server behind a service, the service
  // behind a TCP front-end on an ephemeral loopback port.
  service::AggregatorService svc;
  service::ServerSpec spec;
  spec.kind = service::ServerKind::kHaar;
  spec.domain = kDomain;
  spec.eps = kEps;
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  net::TcpFrontEnd front(svc);
  if (!front.Start()) {
    std::fprintf(stderr, "failed to start TCP front-end\n");
    return 1;
  }
  std::printf("aggregator listening on 127.0.0.1:%u\n", front.port());

  // Client side: draw a skewed population, encode it under the local
  // model, and stream the chunks over a real socket.
  Rng rng(0x7C95EA);
  std::vector<uint64_t> values;
  values.reserve(kUsers);
  for (uint64_t i = 0; i < kUsers; ++i) {
    values.push_back(rng.Bernoulli(0.7) ? rng.UniformInt(kDomain / 8)
                                        : rng.UniformInt(kDomain));
  }
  protocol::HaarHrrClient encoder(kDomain, kEps);
  net::TcpClient client;
  if (!client.Connect("127.0.0.1", front.port())) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  const uint64_t session_id = 42;
  client.Send(service::SerializeStreamBegin({session_id, server_id}));
  const uint64_t per_chunk = (kUsers + kChunks - 1) / kChunks;
  for (int c = 0; c < kChunks; ++c) {
    const uint64_t begin = c * per_chunk;
    const uint64_t end = std::min<uint64_t>(kUsers, begin + per_chunk);
    std::span<const uint64_t> slice(values.data() + begin, end - begin);
    client.Send(service::SerializeStreamChunk(
        session_id, c, encoder.EncodeUsersSerialized(slice, rng)));
  }
  service::StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = kChunks;
  end.flags = service::kStreamFlagFinalize;
  client.Send(service::SerializeStreamEnd(end));
  std::printf("streamed %" PRIu64 " users in %d chunks over TCP\n", kUsers,
              kChunks);

  // Query over the same connection. The front-end routes one
  // connection's messages in order and the service absorbs and finalizes
  // inline, so the server is finalized by the time the query is routed.
  service::RangeQueryRequest request;
  request.query_id = 1;
  request.server_id = server_id;
  request.intervals = {{0, kDomain / 8 - 1},
                       {0, kDomain / 2 - 1},
                       {kDomain / 2, kDomain - 1}};
  service::RangeQueryResponse response;
  const std::vector<uint8_t> reply =
      client.Call(service::SerializeRangeQueryRequest(request));
  if (service::ParseRangeQueryResponse(reply, &response) !=
      protocol::ParseError::kOk) {
    std::fprintf(stderr, "query failed on the wire\n");
    return 1;
  }
  if (response.status != service::QueryStatus::kOk) {
    std::fprintf(stderr, "query status: %s\n",
                 service::QueryStatusName(response.status).c_str());
    return 1;
  }
  const char* labels[] = {"low eighth ", "lower half ", "upper half "};
  for (size_t i = 0; i < response.estimates.size(); ++i) {
    std::printf("%s estimate %7.4f  (stddev %.4f)\n", labels[i],
                response.estimates[i].estimate,
                std::sqrt(response.estimates[i].variance));
  }

  client.ShutdownWrite();
  std::vector<uint8_t> eof_probe;
  client.ReceiveMessage(&eof_probe);  // graceful EOF from the server
  client.Close();
  front.Stop();
  const net::TcpFrontEndStats stats = front.stats();
  std::printf(
      "front-end: %" PRIu64 " connection(s), %" PRIu64 " messages routed, "
      "%" PRIu64 " bytes in, %" PRIu64 " bytes out, %" PRIu64
      " protocol errors\n",
      stats.connections_accepted, stats.messages_routed,
      stats.bytes_received, stats.bytes_sent, stats.protocol_errors);
  return stats.protocol_errors == 0 ? 0 : 1;
}
