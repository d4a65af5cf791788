/// \file path_oram.h
/// Path ORAM (Stefanov et al., CCS'13) with a non-recursive position map.
/// The ObliDB-style engine (src/edb/oblidb_engine.h) uses it for oblivious
/// point accesses to encrypted records, so the server learns nothing about
/// *which* record an access touches — every access reads and rewrites one
/// uniformly random root-to-leaf path.
///
/// OramMirror (oram_mirror.h) composes one PathOram per storage shard.
///
/// Parameters: capacity N; every bucket holds Z = kBucketSize = 4 blocks.
/// The tree has 2^ceil(log2(max(N,2))) leaves; the stash holds overflow
/// blocks and is expected to stay O(log N) (we track its high-water mark
/// for tests). One access costs O(height * Z + stash) and, unless it
/// stores a new block or copies a value out, allocates nothing
/// (docs/ORAM.md, "Access procedure").
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"

namespace dpsync::oram {

/// Access transcript entry — what a server observes: which leaf path was
/// touched. Collected for the obliviousness property tests.
struct PathAccess {
  uint64_t leaf = 0;
};

/// One ORAM block: an application identifier, the leaf it is assigned to
/// (Path ORAM's block header, so eviction never consults the position
/// map) and an opaque payload.
struct OramBlock {
  static constexpr uint64_t kInvalidId = ~0ull;
  uint64_t id = kInvalidId;
  uint64_t leaf = 0;
  Bytes data;

  bool valid() const { return id != kInvalidId; }
};

/// Tree-based ORAM with per-access path read/write.
class PathOram {
 public:
  /// Z, the blocks one bucket holds.
  static constexpr size_t kBucketSize = 4;

  struct Config {
    size_t capacity = 1024;   ///< max number of live blocks
    uint64_t seed = 42;       ///< seeds leaf assignment randomness
    bool record_trace = false;  ///< keep the access transcript (tests)
  };

  explicit PathOram(const Config& config);

  /// Inserts or overwrites block `id`. Fails with OutOfRange when the ORAM
  /// is at capacity and `id` is new.
  Status Write(uint64_t id, Bytes value);

  /// Reads block `id` (the access is indistinguishable from a write).
  StatusOr<Bytes> Read(uint64_t id);

  /// Performs the oblivious path access for `id` without copying the
  /// value out of the stash — the scan hot path.
  Status Touch(uint64_t id);

  /// Deletes block `id`. Performs a normal path access, then drops the
  /// block. NotFound if absent.
  Status Remove(uint64_t id);

  /// True if block `id` is live (no path access — position map only).
  bool Contains(uint64_t id) const { return position_map_.count(id) != 0; }

  /// Live blocks currently stored.
  size_t size() const { return position_map_.size(); }
  size_t capacity() const { return config_.capacity; }
  size_t num_leaves() const { return num_leaves_; }
  /// Buckets per path (tree height + 1) — what the cost model charges.
  size_t num_levels() const { return num_levels_; }

  /// Stash diagnostics (post-eviction occupancy).
  size_t stash_size() const { return stash_.size(); }
  size_t max_stash_size() const { return max_stash_size_; }

  /// Total path accesses performed.
  int64_t access_count() const { return access_count_; }

  /// The observable access transcript (empty unless record_trace).
  const std::vector<PathAccess>& trace() const { return trace_; }

 private:
  enum class Op { kRead, kTouch, kWrite, kRemove };

  /// The single access procedure all operations funnel through.
  StatusOr<Bytes> Access(Op op, uint64_t id, Bytes* new_value);

  /// Writes the stash back along the path to `leaf`, deepest-first.
  void Evict(uint64_t leaf);

  uint64_t RandomLeaf() { return rng_.Next() % num_leaves_; }

  Config config_;
  size_t num_leaves_;
  size_t num_levels_;  ///< tree height + 1 (root..leaf inclusive)
  /// Heap-ordered buckets (root = node 0, children of n at 2n+1 and 2n+2),
  /// kBucketSize slots each: node n's bucket is slots [n*Z, n*Z + Z).
  std::vector<OramBlock> tree_;
  std::unordered_map<uint64_t, uint64_t> position_map_;  ///< id -> leaf
  std::vector<OramBlock> stash_;
  /// Eviction buffers: each stash block's deepest level on the path, the
  /// per-level counts, and the stash indices ordered deepest-first.
  std::vector<size_t> evict_level_;
  std::vector<size_t> level_start_;
  std::vector<size_t> evict_order_;
  Rng rng_;
  size_t max_stash_size_ = 0;
  int64_t access_count_ = 0;
  std::vector<PathAccess> trace_;
};

}  // namespace dpsync::oram
