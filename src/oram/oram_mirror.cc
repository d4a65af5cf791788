#include "oram/oram_mirror.h"

#include <algorithm>
#include <string>

#include "common/parallel.h"
#include "common/shard_router.h"

namespace dpsync::oram {

uint64_t DeriveOramShardSeed(uint64_t master_seed, int shard) {
  // FNV-1a over (master_seed ‖ shard), both little-endian: deterministic,
  // shard-distinct, and decorrelated from the master seed's other uses.
  uint8_t buf[12];
  StoreLE64(buf, master_seed);
  StoreLE32(buf + 8, static_cast<uint32_t>(shard));
  return Fnv1a64(buf, sizeof(buf));
}

OramMirror::OramMirror(int num_shards, const OramMirrorConfig& config) {
  const size_t shards = static_cast<size_t>(std::max(1, num_shards));
  const size_t per_shard = (config.capacity + shards - 1) / shards;
  trees_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    PathOram::Config tree_cfg;
    tree_cfg.capacity = std::max<size_t>(1, per_shard);
    tree_cfg.seed = DeriveOramShardSeed(config.master_seed,
                                        static_cast<int>(s));
    tree_cfg.record_trace = config.record_trace;
    trees_.push_back(std::make_unique<PathOram>(tree_cfg));
  }
}

size_t OramMirror::size() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree->size();
  return total;
}

size_t OramMirror::capacity() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree->capacity();
  return total;
}

Status OramMirror::Append(std::vector<Entry> entries) {
  Status first_failure;
  for (Entry& e : entries) {
    Status st;
    if (e.shard < 0 || e.shard >= num_shards()) {
      st = Status::InvalidArgument("ORAM block for tree " +
                                   std::to_string(e.shard) + " of " +
                                   std::to_string(num_shards()));
    } else {
      PathOram& tree = *trees_[static_cast<size_t>(e.shard)];
      st = tree.Write(tree.size(), std::move(e.value));
    }
    if (!st.ok() && first_failure.ok()) first_failure = std::move(st);
  }
  return first_failure;
}

StatusOr<OramTouchCost> OramMirror::TouchAll() {
  DPSYNC_RETURN_IF_ERROR(ParallelShardStatus(trees_.size(), [&](size_t s) {
    PathOram& tree = *trees_[s];
    for (uint64_t id = 0, n = tree.size(); id < n; ++id) {
      DPSYNC_RETURN_IF_ERROR(tree.Touch(id));
    }
    return Status::Ok();
  }));
  OramTouchCost cost;
  for (const auto& tree : trees_) {
    const auto paths = static_cast<int64_t>(tree->size());
    cost.paths += paths;
    cost.buckets += paths * static_cast<int64_t>(tree->num_levels());
  }
  return cost;
}

MirrorStashStats OramMirror::StashStats() const {
  MirrorStashStats stats;
  stats.live_blocks = size();
  for (const auto& tree : trees_) {
    stats.stash_size += tree->stash_size();
    stats.max_stash_size = std::max(stats.max_stash_size,
                                    tree->max_stash_size());
    stats.access_count += tree->access_count();
  }
  return stats;
}

}  // namespace dpsync::oram
