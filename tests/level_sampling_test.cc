// The level (or level tuple) a level-sampling client reports at must not
// depend on its value: the sampled level travels in the clear, so a
// value-dependent pick would leak the value around the frequency oracle's
// eps-LDP randomizer. For 64 Rng seeds, every value of a small domain (every
// point of a small 2-D and 3-D grid) must draw the same level as value 0
// from the same stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/ahead.h"
#include "core/badic.h"
#include "protocol/ahead_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"

namespace ldp {
namespace {

constexpr uint64_t kSeeds = 64;
constexpr double kEps = 1.1;

// level_of(value, rng) encodes `value` from `rng` and returns the report's
// sampled level (any comparable type).
template <typename LevelOf>
void ExpectLevelIndependentOfValue(uint64_t values, LevelOf level_of) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng reference_rng(seed);
    const auto reference = level_of(0, reference_rng);
    for (uint64_t value = 1; value < values; ++value) {
      Rng rng(seed);
      ASSERT_EQ(level_of(value, rng), reference)
          << "seed " << seed << ", value " << value;
    }
  }
}

TEST(LevelSampling, TreeHrrClientLevelIgnoresTheValue) {
  const protocol::TreeHrrClient client(64, 4, kEps);
  ExpectLevelIndependentOfValue(64, [&](uint64_t value, Rng& rng) {
    return client.Encode(value, rng).level;
  });
}

TEST(LevelSampling, HaarHrrClientLevelIgnoresTheValue) {
  const protocol::HaarHrrClient client(64, kEps);
  ExpectLevelIndependentOfValue(64, [&](uint64_t value, Rng& rng) {
    return client.Encode(value, rng).level;
  });
}

TEST(LevelSampling, AheadClientLevelIgnoresTheValueInBothPhases) {
  const uint64_t domain = 64;
  protocol::AheadClient client(domain, 4, kEps);
  ExpectLevelIndependentOfValue(domain, [&](uint64_t value, Rng& rng) {
    return client.EncodePhase1(value, rng).level;
  });
  // An irregular tree: only the even-indexed nodes split, so leaves are
  // carried through several frontiers of different sizes.
  const TreeShape shape(domain, 4);
  client.SetTree(AdaptiveTree::Grow(
      shape, 0, [](const TreeNode& n) { return n.index % 2 == 0; }));
  ASSERT_GT(client.tree().num_levels(), 1u);
  ExpectLevelIndependentOfValue(domain, [&](uint64_t value, Rng& rng) {
    return client.EncodePhase2(value, rng).level;
  });
}

TEST(LevelSampling, MultiDimClientTupleIgnoresThePoint) {
  struct Grid {
    uint64_t domain;
    uint32_t dims;
  };
  for (const Grid& grid : {Grid{8, 2}, Grid{4, 3}}) {
    SCOPED_TRACE(grid.dims);
    const protocol::MultiDimClient client(grid.domain, grid.dims, kEps, 2);
    uint64_t points = 1;
    for (uint32_t dim = 0; dim < grid.dims; ++dim) points *= grid.domain;
    ExpectLevelIndependentOfValue(points, [&](uint64_t point, Rng& rng) {
      std::vector<uint64_t> coords(grid.dims);
      for (uint64_t& coord : coords) {
        coord = point % grid.domain;
        point /= grid.domain;
      }
      return client.Encode(coords.data(), rng).levels;
    });
  }
}

}  // namespace
}  // namespace ldp
