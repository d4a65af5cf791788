#include "oram/oram_mirror.h"

#include <algorithm>

#include "common/parallel.h"

namespace dpsync::oram {

uint64_t DeriveOramShardSeed(uint64_t master_seed, int shard) {
  // FNV-1a over (master_seed ‖ shard), both little-endian: deterministic,
  // shard-distinct, and decorrelated from the master seed's other uses.
  uint8_t buf[12];
  StoreLE64(buf, master_seed);
  StoreLE32(buf + 8, static_cast<uint32_t>(shard));
  return Fnv1a64(buf, sizeof(buf));
}

OramMirror::OramMirror(const OramMirrorConfig& config)
    : router_(std::max(1, config.num_shards)) {
  const size_t shards = static_cast<size_t>(router_.num_shards());
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
  ids_.resize(shards);
}

size_t OramMirror::size() const {
  size_t total = 0;
  for (const auto& ids : ids_) total += ids.size();
  return total;
}

size_t OramMirror::capacity() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree->capacity();
  return total;
}

Status OramMirror::Append(std::vector<Entry> entries) {
  // Route, then write tree after tree. Trees are disjoint, so a tree that
  // fails stops alone and the others keep writing.
  const uint64_t first = size();
  std::vector<std::vector<size_t>> per_tree(trees_.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    per_tree[static_cast<size_t>(router_.Route(*entries[i].identity))]
        .push_back(i);
  }
  Status first_failure;
  for (size_t s = 0; s < trees_.size(); ++s) {
    for (size_t i : per_tree[s]) {
      Status st = trees_[s]->Write(first + i, std::move(entries[i].value));
      if (!st.ok()) {
        if (first_failure.ok()) first_failure = std::move(st);
        break;
      }
      ids_[s].push_back(first + i);
    }
  }
  return first_failure;
}

StatusOr<OramTouchCost> OramMirror::TouchAll() {
  DPSYNC_RETURN_IF_ERROR(ParallelShardStatus(trees_.size(), [&](size_t s) {
    for (uint64_t id : ids_[s]) DPSYNC_RETURN_IF_ERROR(trees_[s]->Touch(id));
    return Status::Ok();
  }));
  OramTouchCost cost;
  for (size_t s = 0; s < trees_.size(); ++s) {
    const auto paths = static_cast<int64_t>(ids_[s].size());
    cost.paths += paths;
    cost.buckets += paths * static_cast<int64_t>(trees_[s]->num_levels());
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
