/// \file oram_mirror.h
/// The oblivious index of an ObliDB table in indexed mode.
///
/// An OramMirror holds an oblivious copy of a table's ciphertexts so that
/// indexed queries touch every record through a path access instead of a
/// linear pass. It is one Path ORAM (path_oram.h) per storage shard, each
/// of capacity ceil(N/S) with a seed derived from the master seed, so
/// TouchAll's per-tree work fans out in parallel and every tree is
/// log2(S) levels shorter than one global tree would be.
///
/// The mirror makes no placement decision: each appended block names its
/// tree, the storage shard its owning store chose for the ciphertext, and
/// a block's id is its offset in that tree, which is the record's offset
/// in its shard. Tree s therefore holds ids 0..tree(s).size()-1, the work
/// list TouchAll walks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "oram/path_oram.h"

namespace dpsync::oram {

/// Aggregate stash / access diagnostics across every tree of a mirror.
struct MirrorStashStats {
  size_t live_blocks = 0;     ///< blocks currently mirrored
  size_t stash_size = 0;      ///< current stash occupancy, summed over trees
  size_t max_stash_size = 0;  ///< high-water mark (max over trees)
  int64_t access_count = 0;   ///< total path accesses, summed over trees
};

/// Mirror construction knobs, threaded down from ObliDbConfig.
struct OramMirrorConfig {
  size_t capacity = 1 << 16;  ///< total blocks across all shards
  uint64_t master_seed = 42;  ///< per-shard tree seeds are derived from it
  bool record_trace = false;  ///< keep per-shard access transcripts (tests)
};

/// The ORAM work of one TouchAll: how many oblivious paths were accessed
/// and how many buckets they crossed, charging each path its own tree's
/// height.
struct OramTouchCost {
  int64_t paths = 0;
  int64_t buckets = 0;
};

/// The per-shard tree seed: an FNV-1a mix of the master seed and the shard
/// index, so every tree draws an independent deterministic leaf stream.
uint64_t DeriveOramShardSeed(uint64_t master_seed, int shard);

/// Oblivious mirror of one table's ciphertexts.
///
/// Thread-safety: Append and TouchAll are single-writer (the owning table
/// serializes them). Append writes the trees on the calling thread,
/// because a sync's batch is too small to pay for waking pool workers;
/// TouchAll touches every block, and fans its per-tree work out on the
/// shared pool, one task per tree. Accessors are safe once writes are
/// quiescent.
class OramMirror {
 public:
  /// One appended block: the tree it joins, in [0, num_shards()), and the
  /// ciphertext the tree stores.
  struct Entry {
    int shard = 0;
    Bytes value;
  };

  /// One tree per shard, `num_shards` below 1 treated as 1; per-tree
  /// capacity is ceil(config.capacity / num_shards).
  OramMirror(int num_shards, const OramMirrorConfig& config);

  int num_shards() const { return static_cast<int>(trees_.size()); }
  /// Blocks the trees hold.
  size_t size() const;
  /// Total block capacity across all trees.
  size_t capacity() const;

  /// Writes each entry into its tree as that tree's next block, id
  /// tree(shard).size(), in entry order on the calling thread. A shard out
  /// of range fails with InvalidArgument; a tree at capacity fails with
  /// OutOfRange and refuses every later block. Either way the other
  /// entries are still written, the trees keep, and TouchAll touches,
  /// only the blocks they accepted, and the first failure is returned.
  /// The mirror then no longer matches its table.
  Status Append(std::vector<Entry> entries);

  /// One oblivious path access per block, each tree's blocks in id order,
  /// one task per tree. Touch copies nothing out, so the loop allocates
  /// nothing.
  StatusOr<OramTouchCost> TouchAll();

  /// One shard's tree: its access transcript, geometry and counters.
  const PathOram& tree(int shard) const {
    return *trees_[static_cast<size_t>(shard)];
  }
  MirrorStashStats StashStats() const;

 private:
  std::vector<std::unique_ptr<PathOram>> trees_;
};

}  // namespace dpsync::oram
