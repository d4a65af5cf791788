// Path ORAM tests: functional correctness, capacity handling, stash
// behaviour, and the statistical obliviousness property (leaf-access
// distribution independent of the logical access pattern) — for both the
// single tree and the per-shard OramMirror built on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/shard_router.h"
#include "oram/oram_mirror.h"
#include "oram/path_oram.h"
#include "test_util.h"

namespace dpsync::oram {
namespace {

Bytes Payload(uint64_t id) {
  Bytes b(16, 0);
  StoreLE64(b.data(), id * 1000003);
  return b;
}

PathOram::Config SmallConfig(bool trace = false) {
  PathOram::Config cfg;
  cfg.capacity = 256;
  cfg.seed = 11;
  cfg.record_trace = trace;
  return cfg;
}

TEST(PathOramTest, WriteThenRead) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(1, Payload(1)).ok());
  auto r = oram.Read(1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), Payload(1));
}

TEST(PathOramTest, OverwriteReplacesValue) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(1, Payload(1)).ok());
  ASSERT_TRUE(oram.Write(1, Payload(99)).ok());
  EXPECT_EQ(oram.Read(1).value(), Payload(99));
  EXPECT_EQ(oram.size(), 1u);
}

TEST(PathOramTest, ReadMissingIsNotFound) {
  PathOram oram(SmallConfig());
  EXPECT_EQ(oram.Read(42).status().code(), StatusCode::kNotFound);
}

TEST(PathOramTest, RemoveDeletes) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(7, Payload(7)).ok());
  ASSERT_TRUE(oram.Remove(7).ok());
  EXPECT_FALSE(oram.Read(7).ok());
  EXPECT_EQ(oram.size(), 0u);
}

TEST(PathOramTest, RemoveMissingFails) {
  PathOram oram(SmallConfig());
  EXPECT_FALSE(oram.Remove(7).ok());
}

TEST(PathOramTest, ReservedIdRejected) {
  PathOram oram(SmallConfig());
  EXPECT_FALSE(oram.Write(OramBlock::kInvalidId, Payload(0)).ok());
}

TEST(PathOramTest, CapacityEnforced) {
  PathOram::Config cfg;
  cfg.capacity = 8;
  cfg.seed = 3;
  PathOram oram(cfg);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok()) << i;
  }
  EXPECT_EQ(oram.Write(100, Payload(100)).code(), StatusCode::kOutOfRange);
  // Overwriting an existing block is still allowed at capacity.
  EXPECT_TRUE(oram.Write(3, Payload(33)).ok());
}

TEST(PathOramTest, ManyBlocksAllRecoverable) {
  PathOram::Config cfg;
  cfg.capacity = 2048;
  cfg.seed = 17;
  PathOram oram(cfg);
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok()) << i;
  }
  EXPECT_EQ(oram.size(), 2000u);
  for (uint64_t i = 0; i < 2000; i += 37) {
    auto r = oram.Read(i);
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value(), Payload(i)) << i;
  }
}

TEST(PathOramTest, StashStaysSmall) {
  PathOram::Config cfg;
  cfg.capacity = 1024;
  cfg.seed = 23;
  PathOram oram(cfg);
  Rng rng(5);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok());
  }
  for (int i = 0; i < 5000; ++i) {
    uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 999));
    ASSERT_TRUE(oram.Read(id).ok());
  }
  // Theory: stash exceeds ~O(log N) with negligible probability for Z=4.
  EXPECT_LT(oram.max_stash_size(), 120u);
}

TEST(PathOramTest, AccessCountTracksOperations) {
  PathOram oram(SmallConfig());
  ASSERT_TRUE(oram.Write(1, Payload(1)).ok());
  ASSERT_TRUE(oram.Read(1).ok());
  ASSERT_TRUE(oram.Remove(1).ok());
  EXPECT_EQ(oram.access_count(), 3);
}

/// Folds one 64-bit word, little-endian, into a running FNV-1a hash.
uint64_t Fold(uint64_t h, uint64_t word) {
  uint8_t buf[8];
  StoreLE64(buf, word);
  return Fnv1a64(buf, sizeof(buf), h);
}

// Pins everything a caller or the server observes of fixed-seed access
// streams: every call's status, every value read, size() and
// access_count() after every call, and the whole leaf trace. Ids range up
// to 1.25x capacity, so NotFound, OutOfRange at capacity and overwrites
// all occur. The stash high-water mark is deliberately left out: which of
// several equally eligible blocks an eviction keeps in the stash is the
// access procedure's choice, not something the transcript fixes.
TEST(PathOramTest, AccessStreamMatchesGolden) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t capacity : {size_t{8}, size_t{256}, size_t{1024},
                          size_t{16384}}) {
    PathOram::Config cfg;
    cfg.capacity = capacity;
    cfg.seed = capacity * 31 + 7;
    cfg.record_trace = true;
    PathOram oram(cfg);
    Rng rng(capacity);
    const auto max_id = static_cast<int64_t>(capacity + capacity / 4);
    for (uint64_t i = 0; i < 10000; ++i) {
      const auto id = static_cast<uint64_t>(rng.UniformInt(0, max_id - 1));
      const int64_t op = rng.UniformInt(0, 9);
      Status status;
      if (op < 4) {
        status = oram.Write(id, Payload(i));
      } else if (op < 7) {
        auto read = oram.Read(id);
        status = read.status();
        if (read.ok()) h = Fnv1a64(read->data(), read->size(), h);
      } else if (op < 9) {
        status = oram.Touch(id);
      } else {
        status = oram.Remove(id);
      }
      h = Fold(h, static_cast<uint64_t>(status.code()));
      h = Fold(h, oram.size());
      h = Fold(h, static_cast<uint64_t>(oram.access_count()));
    }
    for (const auto& access : oram.trace()) h = Fold(h, access.leaf);
  }
  EXPECT_EQ(h, 0x91285f2374b36346ULL);
}

// Obliviousness: the observable leaf sequence must look uniform regardless
// of the logical access pattern. We access a *single hot block* repeatedly
// and check that the touched leaves cover the leaf range near-uniformly
// (chi-squared against uniform, loose bound).
TEST(PathOramTest, HotBlockAccessLeavesLookUniform) {
  auto cfg = SmallConfig(/*trace=*/true);
  PathOram oram(cfg);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok());
  }
  const int kAccesses = 20000;
  for (int i = 0; i < kAccesses; ++i) {
    ASSERT_TRUE(oram.Read(7).ok());
  }
  // Count leaf frequencies over the trailing accesses.
  std::map<uint64_t, int> freq;
  const auto& trace = oram.trace();
  size_t start = trace.size() - kAccesses;
  for (size_t i = start; i < trace.size(); ++i) freq[trace[i].leaf]++;
  double expected = static_cast<double>(kAccesses) /
                    static_cast<double>(oram.num_leaves());
  double chi2 = 0;
  for (uint64_t leaf = 0; leaf < oram.num_leaves(); ++leaf) {
    double observed = static_cast<double>(freq[leaf]);
    chi2 += (observed - expected) * (observed - expected) / expected;
  }
  // dof = num_leaves - 1 = 255; 99.9th percentile ~ 340.
  EXPECT_LT(chi2, 360.0);
}

// Two very different logical workloads must induce statistically similar
// observable traces (here: mean leaf value close to the uniform mean).
TEST(PathOramTest, TraceIndependentOfWorkload) {
  auto run = [](bool sequential) {
    auto cfg = SmallConfig(/*trace=*/true);
    cfg.seed = 777;
    PathOram oram(cfg);
    for (uint64_t i = 0; i < 128; ++i) {
      EXPECT_TRUE(oram.Write(i, Payload(i)).ok());
    }
    Rng rng(31);
    for (int i = 0; i < 8000; ++i) {
      uint64_t id = sequential ? static_cast<uint64_t>(i % 128)
                               : static_cast<uint64_t>(rng.UniformInt(0, 7));
      EXPECT_TRUE(oram.Read(id).ok());
    }
    double sum = 0;
    for (const auto& a : oram.trace()) sum += static_cast<double>(a.leaf);
    return sum / static_cast<double>(oram.trace().size());
  };
  double mean_seq = run(true);
  double mean_hot = run(false);
  double uniform_mean = (256.0 - 1.0) / 2.0;  // leaves 0..255
  EXPECT_NEAR(mean_seq, uniform_mean, 4.0);
  EXPECT_NEAR(mean_hot, uniform_mean, 4.0);
}

// ------------------------------------------------------------ OramMirror

/// A distinct record payload per id: what ShardRouter places.
Bytes Identity(uint64_t id) {
  Bytes b(24, 0);
  StoreLE64(b.data(), id);
  StoreLE64(b.data() + 8, id * 0x9e3779b97f4a7c15ULL);
  return b;
}

OramMirrorConfig MirrorConfig(bool trace = false) {
  OramMirrorConfig cfg;
  cfg.capacity = 256;
  cfg.master_seed = 2027;
  cfg.record_trace = trace;
  return cfg;
}

/// The tree record `id` joins: the shard ShardRouter gives its payload, as
/// the owning store would place its ciphertext.
int TreeOf(const OramMirror& mirror, uint64_t id) {
  return ShardRouter(mirror.num_shards()).Route(Identity(id));
}

/// Appends the blocks of records [first, first + n) to `mirror`.
Status AppendRecords(OramMirror& mirror, uint64_t first, uint64_t n) {
  std::vector<OramMirror::Entry> entries;
  for (uint64_t id = first; id < first + n; ++id) {
    entries.push_back({TreeOf(mirror, id), Payload(id)});
  }
  return mirror.Append(std::move(entries));
}

std::vector<uint64_t> Leaves(const PathOram& tree) {
  std::vector<uint64_t> leaves;
  for (const auto& access : tree.trace()) leaves.push_back(access.leaf);
  return leaves;
}

TEST(OramMirrorTest, EachTreeTracesLikeABarePathOram) {
  // Tree s is one PathOram seeded DeriveOramShardSeed(seed, s): fed its
  // own blocks as ids 0..n_s-1 with the same writes and touches, a bare
  // tree must draw the same leaves.
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    const OramMirrorConfig cfg = MirrorConfig(/*trace=*/true);
    OramMirror mirror(shards, cfg);
    std::vector<std::unique_ptr<PathOram>> bare;
    for (int s = 0; s < shards; ++s) {
      PathOram::Config tree_cfg;
      tree_cfg.capacity = mirror.tree(s).capacity();
      tree_cfg.seed = DeriveOramShardSeed(cfg.master_seed, s);
      tree_cfg.record_trace = true;
      bare.push_back(std::make_unique<PathOram>(tree_cfg));
    }
    ASSERT_TRUE(AppendRecords(mirror, 0, 100).ok());
    ASSERT_TRUE(AppendRecords(mirror, 100, 50).ok());
    for (uint64_t id = 0; id < 150; ++id) {
      PathOram& tree = *bare[static_cast<size_t>(TreeOf(mirror, id))];
      ASSERT_TRUE(tree.Write(tree.size(), Payload(id)).ok());
    }
    for (int round = 0; round < 3; ++round) {
      ASSERT_TRUE(mirror.TouchAll().ok());
      for (auto& tree : bare) {
        for (uint64_t id = 0; id < tree->size(); ++id) {
          ASSERT_TRUE(tree->Touch(id).ok());
        }
      }
    }
    EXPECT_EQ(mirror.num_shards(), shards);
    EXPECT_EQ(mirror.size(), 150u);
    for (int s = 0; s < shards; ++s) {
      const PathOram& tree = mirror.tree(s);
      EXPECT_EQ(tree.trace().size(), 4 * tree.size()) << "tree " << s;
      EXPECT_EQ(Leaves(tree), Leaves(*bare[static_cast<size_t>(s)]))
          << "tree " << s;
      EXPECT_EQ(tree.max_stash_size(),
                bare[static_cast<size_t>(s)]->max_stash_size())
          << "tree " << s;
    }
  }
}

TEST(OramMirrorTest, CapacitySplitsCeilOverShards) {
  OramMirrorConfig cfg = MirrorConfig();
  cfg.capacity = 1023;  // ceil(1023/4) = 256 per shard
  OramMirror mirror(4, cfg);
  EXPECT_EQ(mirror.capacity(), 1024u);
  for (int s = 0; s < 4; ++s) {
    // 256-capacity trees: 256 leaves, 9 buckets per path.
    EXPECT_EQ(mirror.tree(s).num_leaves(), 256u);
    EXPECT_EQ(mirror.tree(s).num_levels(), 9u);
  }
}

TEST(OramMirrorTest, ShardSeedsAreDistinctAndDeterministic) {
  EXPECT_EQ(DeriveOramShardSeed(7, 0), DeriveOramShardSeed(7, 0));
  EXPECT_NE(DeriveOramShardSeed(7, 0), DeriveOramShardSeed(7, 1));
  EXPECT_NE(DeriveOramShardSeed(7, 0), DeriveOramShardSeed(8, 0));
}

TEST(OramMirrorTest, BlocksJoinTheTreeTheirEntryNames) {
  // Each block joins the tree its entry names, as that tree's next id. A
  // tree out of range fails the append, and the other entries are still
  // written.
  OramMirror mirror(4, MirrorConfig());
  std::vector<OramMirror::Entry> entries;
  for (int shard : {3, 3, 0, 4, 3, -1, 1}) {
    entries.push_back({shard, Payload(static_cast<uint64_t>(entries.size()))});
  }
  EXPECT_EQ(mirror.Append(std::move(entries)).code(),
            StatusCode::kInvalidArgument);
  const size_t expected[] = {1, 1, 0, 3};
  for (int s = 0; s < 4; ++s) {
    const PathOram& tree = mirror.tree(s);
    EXPECT_EQ(tree.size(), expected[s]) << "tree " << s;
    for (uint64_t id = 0; id <= expected[s]; ++id) {
      EXPECT_EQ(tree.Contains(id), id < expected[s]) << s << "/" << id;
    }
  }
  EXPECT_EQ(mirror.size(), 5u);
}

TEST(OramMirrorTest, AppendAndTouchAllAcrossShards) {
  OramMirror mirror(4, MirrorConfig());
  ASSERT_TRUE(AppendRecords(mirror, 0, 200).ok());
  EXPECT_EQ(mirror.size(), 200u);
  // Each tree holds the blocks placed on it, as ids 0..n_s-1.
  size_t placed[4] = {0, 0, 0, 0};
  for (uint64_t id = 0; id < 200; ++id) ++placed[TreeOf(mirror, id)];
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(mirror.tree(s).size(), placed[s]) << s;
    EXPECT_TRUE(mirror.tree(s).Contains(placed[s] - 1)) << s;
    EXPECT_FALSE(mirror.tree(s).Contains(placed[s])) << s;
  }
  auto cost = mirror.TouchAll();
  ASSERT_TRUE(cost.ok());
  // One path per block, each charged its own tree's height.
  int64_t accesses = 0;
  int64_t buckets = 0;
  for (int s = 0; s < 4; ++s) {
    accesses += mirror.tree(s).access_count();
    buckets += static_cast<int64_t>(mirror.tree(s).size() *
                                    mirror.tree(s).num_levels());
  }
  EXPECT_EQ(cost->paths, 200);
  EXPECT_EQ(cost->buckets, buckets);
  EXPECT_EQ(accesses, 400);  // 200 writes + 200 touches
}

TEST(OramMirrorTest, AppendContinuesIdsFromSize) {
  // Two appends place and draw exactly like one append of both batches.
  OramMirror split(4, MirrorConfig(/*trace=*/true));
  OramMirror whole(4, MirrorConfig(/*trace=*/true));
  ASSERT_TRUE(AppendRecords(split, 0, 60).ok());
  EXPECT_EQ(split.size(), 60u);
  ASSERT_TRUE(AppendRecords(split, 60, 40).ok());
  ASSERT_TRUE(AppendRecords(whole, 0, 100).ok());
  EXPECT_EQ(split.size(), whole.size());
  ASSERT_TRUE(split.TouchAll().ok());
  ASSERT_TRUE(whole.TouchAll().ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(Leaves(split.tree(s)), Leaves(whole.tree(s))) << s;
    EXPECT_EQ(split.tree(s).size(), whole.tree(s).size()) << s;
  }
}

TEST(OramMirrorTest, AppendOverflowLeavesConsistentState) {
  // Overfill a tiny mirror: ceil(12/4) = 3 blocks per tree, 64 entries —
  // every tree overflows. The append must fail with OutOfRange and the
  // mirror must stay consistent: size() only counts blocks a tree really
  // holds, and TouchAll touches exactly those.
  OramMirrorConfig cfg = MirrorConfig();
  cfg.capacity = 12;
  OramMirror mirror(4, cfg);
  EXPECT_EQ(AppendRecords(mirror, 0, 64).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(mirror.size(), 12u);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(mirror.tree(s).size(), 3u) << s;
  auto cost = mirror.TouchAll();
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->paths, 12);
}

TEST(OramMirrorTest, StashStatsAggregateAcrossTrees) {
  OramMirror mirror(4, MirrorConfig());
  ASSERT_TRUE(AppendRecords(mirror, 0, 128).ok());
  auto stats = mirror.StashStats();
  EXPECT_EQ(stats.live_blocks, 128u);
  EXPECT_EQ(stats.access_count, 128);
  size_t max_over_shards = 0;
  for (int s = 0; s < 4; ++s) {
    max_over_shards =
        std::max(max_over_shards, mirror.tree(s).max_stash_size());
  }
  EXPECT_EQ(stats.max_stash_size, max_over_shards);
}

// The acceptance property for per-shard trees: each shard's observable
// transcript (testutil::AggregateOramTranscripts) must be
// uniform over that shard's own leaves, for both one tree and four.
// Per-shard trees must not leak more than the tree they replaced. (A hot
// block's uniformity is PathOramTest.HotBlockAccessLeavesLookUniform.)
TEST(OramMirrorTest, PerShardTranscriptsUniformOverLeaves) {
  for (int shards : {1, 4}) {
    OramMirror mirror(shards, MirrorConfig(/*trace=*/true));
    ASSERT_TRUE(AppendRecords(mirror, 0, 128).ok());
    // Repeated indexed scans: round-robin sweeps over every block.
    for (int sweep = 0; sweep < 160; ++sweep) {
      ASSERT_TRUE(mirror.TouchAll().ok());
    }
    auto transcripts = testutil::AggregateOramTranscripts(mirror);
    ASSERT_EQ(transcripts.size(), static_cast<size_t>(shards));
    for (const auto& t : transcripts) {
      ASSERT_GT(t.accesses, 0) << "shard " << t.shard;
      ASSERT_EQ(t.leaf_counts.size(), t.num_leaves);
      // Chi-squared against uniform with dof = leaves - 1; the bound is
      // mean + 5 sigma (sigma = sqrt(2 dof)), far past the 99.9th
      // percentile yet tight enough to catch any leaf bias.
      double dof = static_cast<double>(t.num_leaves) - 1.0;
      EXPECT_LT(t.chi2_uniform, dof + 5.0 * std::sqrt(2.0 * dof))
          << "shards=" << shards << " shard=" << t.shard;
    }
  }
}

class OramSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OramSizeTest, FillDrainRoundTrip) {
  PathOram::Config cfg;
  cfg.capacity = GetParam();
  cfg.seed = GetParam() * 7 + 1;
  PathOram oram(cfg);
  size_t n = cfg.capacity;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(oram.Write(i, Payload(i)).ok());
  }
  for (uint64_t i = 0; i < n; ++i) {
    auto r = oram.Read(i);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), Payload(i));
  }
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(oram.Remove(i).ok());
  }
  EXPECT_EQ(oram.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Capacities, OramSizeTest,
                         ::testing::Values(2, 4, 16, 100, 512, 1000));

}  // namespace
}  // namespace dpsync::oram
