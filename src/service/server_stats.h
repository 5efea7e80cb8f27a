// Shared acceptance/rejection accounting for every aggregator server.
//
// Before the service layer existed, each of the four protocol servers
// (flat/haar/tree/AHEAD) carried its own `accepted_`/`rejected_` pair with
// subtly copy-pasted bookkeeping. ServerStats is the one struct they all
// report through now: a report (or a structurally-rejected message) is
// counted exactly once, on the ingestion call that saw it.
//
// Granularity: a single-report Absorb moves a counter by one; a batch
// (AbsorbBatchSerialized) keeps its accept/reject tallies locally and
// moves each counter once, by the batch's totals. A lock-free scrape
// taken while a batch is being absorbed therefore sees the counters step
// by whole batches, never a partially counted one.

#ifndef LDPRANGE_SERVICE_SERVER_STATS_H_
#define LDPRANGE_SERVICE_SERVER_STATS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace ldp::service {

/// Ingestion counts of one aggregator server, as a plain value snapshot.
/// `accepted` counts reports folded into the aggregate; `rejected` counts
/// everything turned away — malformed bytes, out-of-range fields,
/// wrong-phase reports, and whole structurally-invalid messages (one
/// rejection per message).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;

  /// Total ingestion decisions made.
  uint64_t ingested() const { return accepted + rejected; }

  bool operator==(const ServerStats&) const = default;
};

/// The live accounting behind ServerStats: the same CountAccepted /
/// CountRejected surface the protocol servers have always reported
/// through, now on lock-free obs::Counter atomics so ingestion workers
/// and stats scrapers never race (the service snapshots these without
/// stopping ingestion).
class ServerCounters {
 public:
  void CountAccepted(uint64_t n = 1) { accepted_.Add(n); }
  void CountRejected(uint64_t n = 1) { rejected_.Add(n); }

  uint64_t accepted() const { return accepted_.value(); }
  uint64_t rejected() const { return rejected_.value(); }

  ServerStats Snapshot() const { return ServerStats{accepted(), rejected()}; }

 private:
  obs::Counter accepted_;
  obs::Counter rejected_;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_SERVER_STATS_H_
