// Spatial analytics scenario (paper Section 6, multidimensional
// extension): a mobility provider wants ride-demand density over a city
// grid without tracking anyone's location. Each rider's pickup cell is a
// point in a 64 x 64 grid; the provider answers arbitrary rectangle
// queries ("how much demand downtown vs the airport corridor?") under
// eps-LDP using the 2-D hierarchical decomposition.
//
// This is the full deployment shape, not an in-process simulation: riders
// randomize locally (MultiDimClient), reports travel as framed
// kMultiDimReportBatch chunks through a streaming ingestion session into
// the aggregator service, and every rectangle query goes over the wire as
// a kMultiDimQuery message answered with an (estimate, variance) pair.

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "protocol/multidim_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

struct Hotspot {
  double cx, cy, scale, weight;
};

}  // namespace

int main() {
  const uint64_t kGrid = 64;       // 64 x 64 city grid
  const uint64_t kRiders = 400000;
  const double kEpsilon = 1.1;

  // Demand concentrates downtown (40, 24) with a secondary airport
  // hotspot (8, 52) and a uniform background.
  const std::vector<Hotspot> hotspots = {
      {40, 24, 4.0, 0.55}, {8, 52, 3.0, 0.25}};

  Rng rng(21);
  std::vector<uint64_t> pickups;  // row-major (x, y) per rider
  pickups.reserve(2 * kRiders);
  std::vector<std::vector<uint64_t>> truth(kGrid,
                                           std::vector<uint64_t>(kGrid, 0));
  for (uint64_t i = 0; i < kRiders; ++i) {
    double u = rng.UniformDouble();
    uint64_t x = 0;
    uint64_t y = 0;
    double acc = 0.0;
    bool placed = false;
    for (const Hotspot& h : hotspots) {
      acc += h.weight;
      if (u < acc) {
        for (;;) {
          double sx = h.cx + h.scale * rng.Gaussian();
          double sy = h.cy + h.scale * rng.Gaussian();
          if (sx >= 0 && sx < kGrid && sy >= 0 && sy < kGrid) {
            x = static_cast<uint64_t>(sx);
            y = static_cast<uint64_t>(sy);
            break;
          }
        }
        placed = true;
        break;
      }
    }
    if (!placed) {  // background
      x = rng.UniformInt(kGrid);
      y = rng.UniformInt(kGrid);
    }
    pickups.push_back(x);
    pickups.push_back(y);
    ++truth[x][y];
  }

  // Aggregator side: the service hosts a 2-D grid server.
  service::AggregatorService service;
  service::ServerSpec spec;
  spec.kind = service::ServerKind::kGrid;
  spec.domain = kGrid;
  spec.eps = kEpsilon;
  spec.fanout = 2;
  spec.dimensions = 2;
  const uint64_t server_id =
      service.AddServer(service::MakeAggregatorServer(spec));

  // Client side: every rider's point is eps-LDP randomized before any
  // byte leaves the device; the simulation driver encodes the whole
  // population from one stream of randomness.
  protocol::MultiDimClient client(kGrid, /*dimensions=*/2, kEpsilon,
                                  /*fanout=*/2);
  Rng client_rng(17);
  std::vector<protocol::MultiDimReport> reports =
      client.EncodeUsers(pickups, client_rng);

  // Stream the reports in as a chunked ingestion session: each chunk is
  // absorbed inside HandleMessage, and the end message finalizes the
  // server.
  const uint64_t kSession = 7001;
  service.HandleMessage(
      service::SerializeStreamBegin({kSession, server_id}));
  const size_t kReportsPerChunk = 100000;
  uint64_t sequence = 0;
  for (size_t begin = 0; begin < reports.size(); begin += kReportsPerChunk) {
    size_t count = std::min(kReportsPerChunk, reports.size() - begin);
    std::vector<uint8_t> batch = protocol::SerializeMultiDimReportBatch(
        2, std::span<const protocol::MultiDimReport>(reports)
               .subspan(begin, count));
    service.HandleMessage(
        service::SerializeStreamChunk(kSession, sequence++, batch));
  }
  service.HandleMessage(service::SerializeStreamEnd(
      {kSession, sequence, service::kStreamFlagFinalize}));
  if (!service.server_finalized(server_id)) {
    std::fprintf(stderr, "ingestion session failed to finalize\n");
    return 1;
  }

  // Query side: each rectangle goes over the wire as a kMultiDimQuery.
  uint64_t next_query_id = 1;
  auto wire_rect = [&](uint64_t ax, uint64_t bx, uint64_t ay, uint64_t by,
                       service::IntervalEstimate* out) {
    service::MultiDimQueryRequest request;
    request.query_id = next_query_id++;
    request.server_id = server_id;
    request.dimensions = 2;
    service::QueryBox box;
    box.axes = {{ax, bx}, {ay, by}};
    request.boxes.push_back(std::move(box));
    std::vector<uint8_t> answer =
        service.HandleMessage(SerializeMultiDimQueryRequest(request));
    service::MultiDimQueryResponse response;
    if (ParseMultiDimQueryResponse(answer, &response) !=
            protocol::ParseError::kOk ||
        response.status != service::QueryStatus::kOk) {
      return false;
    }
    *out = response.estimates[0];
    return true;
  };

  auto true_rect = [&](uint64_t ax, uint64_t bx, uint64_t ay, uint64_t by) {
    uint64_t count = 0;
    for (uint64_t x = ax; x <= bx; ++x) {
      for (uint64_t y = ay; y <= by; ++y) {
        count += truth[x][y];
      }
    }
    return static_cast<double>(count) / kRiders;
  };

  const auto& server = service.server(server_id);
  std::printf("Private ride-demand heatmap: %llu riders on a %llux%llu "
              "grid, eps = %.1f (%s over the wire)\n\n",
              (unsigned long long)kRiders, (unsigned long long)kGrid,
              (unsigned long long)kGrid, kEpsilon, server.Name().c_str());
  std::printf("%-28s %10s %10s\n", "rectangle query", "estimate", "truth");
  struct Rect {
    const char* label;
    uint64_t ax, bx, ay, by;
  } rects[] = {{"downtown core (8x8)", 36, 43, 20, 27},
               {"downtown wide (16x16)", 32, 47, 16, 31},
               {"airport corridor", 4, 15, 44, 59},
               {"river district (empty)", 56, 63, 0, 15},
               {"west half", 0, 31, 0, 63},
               {"whole city", 0, 63, 0, 63}};
  for (const Rect& r : rects) {
    service::IntervalEstimate estimate;
    if (!wire_rect(r.ax, r.bx, r.ay, r.by, &estimate)) {
      std::fprintf(stderr, "wire query failed for %s\n", r.label);
      return 1;
    }
    std::printf("%-28s %10.4f %10.4f\n", r.label, estimate.estimate,
                true_rect(r.ax, r.bx, r.ay, r.by));
  }

  std::printf(
      "\nThe provider can rank neighborhoods by demand and spot the two "
      "hotspots while every individual pickup stays private — and no "
      "unrandomized coordinate ever crossed the wire.\n");
  return 0;
}
