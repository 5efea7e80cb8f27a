// Huge pages for the state-sized arrays (common/huge_pages.h), checked
// through the kernel's own record: a mapping advised with MADV_HUGEPAGE
// lists "hg" among its VmFlags in /proc/self/smaps. The advice changes
// no byte; the bit-identity of everything it touches is the golden pins',
// state_merge_test's and net_test's to keep.

#include "common/huge_pages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "frequency/hrr.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_server.h"
#include "service/state_wire.h"

namespace ldp {
namespace {

// Whether the mapping that holds `address` is advised for huge pages.
bool AdvisedForHugePages(const void* address) {
  std::ifstream smaps("/proc/self/smaps");
  const uintptr_t target = reinterpret_cast<uintptr_t>(address);
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    uintptr_t begin = 0;
    uintptr_t end = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &begin, &end) ==
        2) {
      inside = begin <= target && target < end;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      std::istringstream flags(line.substr(std::strlen("VmFlags:")));
      std::string flag;
      while (flags >> flag) {
        if (flag == "hg") return true;
      }
      return false;
    }
  }
  ADD_FAILURE() << "no mapping holds " << address;
  return false;
}

// The first 2 MiB page inside `bytes`, which must hold one.
const void* FirstHugePage(std::span<const uint8_t> bytes) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(bytes.data());
  const uintptr_t page = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  EXPECT_LE(page + kHugePageBytes, begin + bytes.size());
  return reinterpret_cast<const void*>(page);
}

// An empty server's sums arrays, level 1 first, as its state decoder
// exposes them: each window wider than a varint byte. The decoder is fed
// the server's own (all-zero) state body, so no byte changes.
std::vector<std::span<uint8_t>> SumsArrays(service::AggregatorServer& server) {
  const std::vector<uint8_t> frame = server.SerializeState();
  service::StateSnapshotHeader header;
  EXPECT_EQ(service::ParseStateSnapshot(frame, &header),
            protocol::ParseError::kOk);
  std::optional<HrrStateDecoder> decoder = server.StateBodyDecoder();
  EXPECT_TRUE(decoder.has_value());
  std::vector<std::span<uint8_t>> arrays;
  std::span<const uint8_t> body = header.body;
  while (decoder.has_value() && !body.empty()) {
    const std::span<uint8_t> window = decoder->Window();
    if (window.empty()) break;
    if (window.size() > 1) arrays.push_back(window);
    const size_t n = std::min(window.size(), body.size());
    std::memcpy(window.data(), body.data(), n);
    EXPECT_TRUE(decoder->Advance(n));
    body = body.subspan(n);
  }
  EXPECT_TRUE(decoder.has_value() && decoder->done());
  return arrays;
}

bool HostHasTransparentHugePages() {
  return std::filesystem::exists("/sys/kernel/mm/transparent_hugepage");
}

TEST(HugePages, StateBelowTwoMegabytesIsNotAdvised) {
  // ingest_haar's configuration: 16 HaarHRR levels, 512 KiB in all.
  if (!HostHasTransparentHugePages()) GTEST_SKIP() << "no THP on this host";
  protocol::HaarHrrServer server(uint64_t{1} << 16, 1.0);
  const std::vector<std::span<uint8_t>> arrays = SumsArrays(server);
  ASSERT_EQ(arrays.size(), 16u);
  for (const std::span<uint8_t> sums : arrays) {
    ASSERT_LT(sums.size(), kHugePageBytes);
    EXPECT_FALSE(AdvisedForHugePages(sums.data())) << sums.size() << " B";
  }
}

TEST(HugePages, TreeStateSnapshotFrameAndEstimatesAreAdvised) {
  // fan_in_tree's configuration: D = 2^20, B = 4, 11.2 MB of sums.
  if (!HostHasTransparentHugePages()) GTEST_SKIP() << "no THP on this host";
  protocol::TreeHrrServer server(uint64_t{1} << 20, 4, 1.0);
  const std::vector<std::span<uint8_t>> arrays = SumsArrays(server);
  ASSERT_EQ(arrays.size(), 10u);
  const std::span<uint8_t> leaves = arrays.back();
  ASSERT_EQ(leaves.size(), size_t{8} << 20);
  EXPECT_TRUE(AdvisedForHugePages(FirstHugePage(leaves)));

  const std::vector<uint8_t> frame = server.SerializeState();
  ASSERT_GT(frame.size(), size_t{10} << 20);
  EXPECT_TRUE(AdvisedForHugePages(FirstHugePage(frame)));

  HrrOracle oracle(uint64_t{1} << 20, 1.0);
  Rng rng(7);
  oracle.SubmitValue(3, rng);
  const std::vector<double> estimates = oracle.EstimateFractions();
  EXPECT_TRUE(AdvisedForHugePages(FirstHugePage(
      {reinterpret_cast<const uint8_t*>(estimates.data()),
       estimates.size() * sizeof(double)})));
}

}  // namespace
}  // namespace ldp
