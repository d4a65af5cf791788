#include "oram/path_oram.h"

#include <algorithm>
#include <cassert>

namespace dpsync::oram {

namespace {
size_t CeilLog2(size_t n) {
  size_t bits = 0;
  size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}
}  // namespace

PathOram::PathOram(const Config& config) : config_(config), rng_(config.seed) {
  size_t leaf_bits = CeilLog2(std::max<size_t>(config.capacity, 2));
  num_leaves_ = size_t{1} << leaf_bits;
  num_levels_ = leaf_bits + 1;
  tree_.resize(2 * num_leaves_ - 1);
  for (auto& bucket : tree_) bucket.resize(config_.bucket_size);
}

size_t PathOram::NodeIndex(uint64_t leaf, size_t level) const {
  // Nodes are heap-indexed: root = 0, leaf l = (num_leaves_-1) + l. The
  // node at `level` on the path is the leaf's ancestor at that depth.
  size_t node = (num_leaves_ - 1) + static_cast<size_t>(leaf);
  for (size_t i = num_levels_ - 1; i > level; --i) node = (node - 1) / 2;
  return node;
}

bool PathOram::PathsIntersectAt(uint64_t leaf, uint64_t other_leaf,
                                size_t level) const {
  return NodeIndex(leaf, level) == NodeIndex(other_leaf, level);
}

StatusOr<Bytes> PathOram::Access(Op op, uint64_t id, Bytes* new_value) {
  auto pos_it = position_map_.find(id);
  const bool exists = pos_it != position_map_.end();
  if (!exists && op != Op::kWrite) {
    return Status::NotFound("ORAM block not found: " + std::to_string(id));
  }
  if (!exists && position_map_.size() >= config_.capacity) {
    return Status::OutOfRange("ORAM at capacity");
  }

  // 1. Look up (or mint) the block's leaf, then remap it to a fresh
  //    uniformly random leaf — the core of Path ORAM's obliviousness.
  uint64_t old_leaf = exists ? pos_it->second : RandomLeaf();
  ++access_count_;
  if (config_.record_trace) trace_.push_back({old_leaf});

  // 2. Read the whole path into the stash.
  for (size_t level = 0; level < num_levels_; ++level) {
    auto& bucket = tree_[NodeIndex(old_leaf, level)];
    for (auto& block : bucket) {
      if (!block.valid()) continue;
      stash_[block.id] = std::move(block.data);
      block = OramBlock{};
    }
  }

  // 3. Serve the request from the stash. A touch verifies presence but
  //    skips the copy-out — scans only need the path access itself.
  Bytes result;
  if (op == Op::kRead || op == Op::kTouch) {
    auto it = stash_.find(id);
    if (it == stash_.end()) {
      return Status::Internal("position map points to a missing block");
    }
    if (op == Op::kRead) result = it->second;
  } else if (op == Op::kWrite) {
    stash_[id] = std::move(*new_value);
  } else {  // kRemove
    stash_.erase(id);
  }

  // 4. Update the position map.
  uint64_t new_leaf = RandomLeaf();
  if (op == Op::kRemove) {
    position_map_.erase(id);
  } else {
    position_map_[id] = new_leaf;
  }

  // 5. Evict: refill the path bottom-up with stash blocks whose assigned
  //    path shares the bucket.
  for (size_t level = num_levels_; level-- > 0;) {
    auto& bucket = tree_[NodeIndex(old_leaf, level)];
    size_t slot = 0;
    for (auto it = stash_.begin(); it != stash_.end() && slot < bucket.size();) {
      auto pm = position_map_.find(it->first);
      if (pm == position_map_.end()) {
        // Orphaned stash entry (shouldn't happen); drop it.
        it = stash_.erase(it);
        continue;
      }
      if (PathsIntersectAt(old_leaf, pm->second, level)) {
        bucket[slot].id = it->first;
        bucket[slot].data = std::move(it->second);
        ++slot;
        it = stash_.erase(it);
      } else {
        ++it;
      }
    }
  }
  max_stash_size_ = std::max(max_stash_size_, stash_.size());
  return result;
}

Status PathOram::Write(uint64_t id, Bytes value) {
  if (id == OramBlock::kInvalidId) {
    return Status::InvalidArgument("reserved ORAM block id");
  }
  auto r = Access(Op::kWrite, id, &value);
  return r.ok() ? Status::Ok() : r.status();
}

StatusOr<Bytes> PathOram::Read(uint64_t id) {
  return Access(Op::kRead, id, nullptr);
}

Status PathOram::Touch(uint64_t id) {
  auto r = Access(Op::kTouch, id, nullptr);
  return r.ok() ? Status::Ok() : r.status();
}

Status PathOram::Remove(uint64_t id) {
  auto r = Access(Op::kRemove, id, nullptr);
  return r.ok() ? Status::Ok() : r.status();
}

}  // namespace dpsync::oram
