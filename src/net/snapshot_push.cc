#include "net/snapshot_push.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "net/tcp_client.h"

namespace ldp::net {

namespace {

// xorshift64: tiny deterministic jitter stream, one state word per call
// site. Not an Rng (common/random.h) on purpose — backoff jitter needs
// no statistical quality, only decorrelation between shards.
uint64_t NextJitter(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

}  // namespace

SnapshotPushResult PushStateSnapshot(TcpClient& client, uint64_t merge_id,
                                     uint64_t server_id, uint64_t shard_index,
                                     uint64_t shard_count, uint8_t flags,
                                     std::span<const uint8_t> snapshot,
                                     const SnapshotPushOptions& options) {
  service::StateMergeRequest request;
  request.merge_id = merge_id;
  request.server_id = server_id;
  request.shard_index = shard_index;
  request.shard_count = shard_count;
  request.flags = flags;
  // Only the small kStateMerge header is framed here; the snapshot goes
  // out from the caller's buffer right behind it on the same stream, so
  // the wire bytes equal SerializeStateMerge(request, snapshot) without
  // a snapshot-sized copy.
  std::vector<uint8_t> header;
  service::AppendStateMergeHeader(header, request, snapshot.size());

  const int saved_timeout = client.receive_timeout_ms();
  client.set_receive_timeout_ms(options.receive_timeout_ms);

  SnapshotPushResult result;
  uint64_t jitter_state =
      options.jitter_seed != 0 ? options.jitter_seed : 0x9E3779B97F4A7C15ULL;
  uint64_t backoff_us = std::max<uint32_t>(options.initial_backoff_us, 1);
  for (uint32_t attempt = 0;; ++attempt) {
    std::vector<uint8_t> ack;
    if (!client.Send(header) || !client.Send(snapshot) ||
        !client.ReceiveMessage(&ack)) {
      result.transport_error = true;
      break;
    }
    service::StateMergeResponse response;
    if (service::ParseStateMergeResponse(ack, &response) !=
            protocol::ParseError::kOk ||
        response.merge_id != merge_id) {
      result.transport_error = true;
      break;
    }
    result.status = response.status;
    result.shards_received = response.shards_received;
    if (response.status != service::MergeStatus::kWouldBlock ||
        attempt >= options.max_retries) {
      result.ok = response.status == service::MergeStatus::kOk;
      break;
    }
    ++result.retries;
    // Full jitter over [backoff, 2*backoff): staggered even when every
    // shard entered the retry loop on the same ack.
    uint64_t sleep_us = backoff_us + NextJitter(&jitter_state) % backoff_us;
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    backoff_us = std::min<uint64_t>(backoff_us * 2, options.max_backoff_us);
  }

  client.set_receive_timeout_ms(saved_timeout);
  return result;
}

}  // namespace ldp::net
