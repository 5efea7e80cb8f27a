// Deterministic corpus replay: every file checked into fuzz/corpus/ runs
// through its fuzz target on every CTest invocation, so each corpus seed
// — and every minimized crash-file a fuzzing campaign adds — becomes a
// permanent regression, even on toolchains without libFuzzer. A bug here
// crashes the test binary (that is the fuzz-target contract), which
// CTest reports as a failure.
//
// LDP_FUZZ_CORPUS_DIR is injected by tests/CMakeLists.txt and points at
// the source tree's fuzz/corpus.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "fuzz_targets.h"

namespace ldp {
namespace {

namespace fs = std::filesystem;

using FuzzTarget = std::function<int(const uint8_t*, size_t)>;

const std::map<std::string, FuzzTarget>& TargetsByDirectory() {
  static const std::map<std::string, FuzzTarget> kTargets = {
      {"decode_envelope", fuzz::FuzzDecodeEnvelope},
      {"flat_absorb", fuzz::FuzzFlatAbsorb},
      {"haar_absorb", fuzz::FuzzHaarAbsorb},
      {"tree_absorb", fuzz::FuzzTreeAbsorb},
      {"ahead_absorb", fuzz::FuzzAheadAbsorb},
      {"multidim_absorb", fuzz::FuzzMultiDimAbsorb},
      {"stream_session", fuzz::FuzzStreamSession},
      {"state_intake", fuzz::FuzzStateIntake},
  };
  return kTargets;
}

std::vector<uint8_t> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(FuzzRegression, CorpusDirectoryIsCheckedIn) {
  fs::path root(LDP_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(root)) << root;
  for (const auto& [dir, target] : TargetsByDirectory()) {
    (void)target;
    EXPECT_TRUE(fs::is_directory(root / dir))
        << "missing seed corpus for fuzz target " << dir;
  }
}

TEST(FuzzRegression, ReplayEntireCorpus) {
  fs::path root(LDP_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(root)) << root;
  size_t files = 0;
  for (const auto& [dir, target] : TargetsByDirectory()) {
    if (!fs::is_directory(root / dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      if (!entry.is_regular_file()) continue;
      std::vector<uint8_t> bytes = ReadFile(entry.path());
      SCOPED_TRACE(entry.path().string());
      EXPECT_EQ(target(bytes.data(), bytes.size()), 0);
      ++files;
    }
  }
  // The corpus ships a double-digit seed set; an empty replay means the
  // corpus went missing, not that everything passed.
  EXPECT_GE(files, 20u);
}

TEST(FuzzRegression, EveryTargetHandlesEmptyAndTinyInputs) {
  const uint8_t byte = 0x4C;  // first magic byte alone
  for (const auto& [dir, target] : TargetsByDirectory()) {
    SCOPED_TRACE(dir);
    EXPECT_EQ(target(nullptr, 0), 0);
    EXPECT_EQ(target(&byte, 1), 0);
  }
}

}  // namespace
}  // namespace ldp
