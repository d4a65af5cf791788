#include "oram/path_oram.h"

#include <algorithm>

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

/// Bits needed to write `x`, 0 for 0 (C++20's std::bit_width).
size_t BitWidth(uint64_t x) {
  return x == 0 ? 0 : 64 - static_cast<size_t>(__builtin_clzll(x));
}
}  // namespace

PathOram::PathOram(const Config& config) : config_(config), rng_(config.seed) {
  size_t leaf_bits = CeilLog2(std::max<size_t>(config.capacity, 2));
  num_leaves_ = size_t{1} << leaf_bits;
  num_levels_ = leaf_bits + 1;
  tree_.resize((2 * num_leaves_ - 1) * kBucketSize);
  level_start_.resize(num_levels_);
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

  // 1. Look up (or mint) the block's leaf: the path this access touches.
  const uint64_t old_leaf = exists ? pos_it->second : RandomLeaf();
  ++access_count_;
  if (config_.record_trace) trace_.push_back({old_leaf});

  // 2. Read the whole path into the stash, walking up from the leaf
  //    (heap order: node n's parent is (n - 1) / 2).
  for (size_t node = num_leaves_ - 1 + old_leaf;; node = (node - 1) / 2) {
    OramBlock* bucket = &tree_[node * kBucketSize];
    for (size_t z = 0; z < kBucketSize; ++z) {
      if (!bucket[z].valid()) continue;
      stash_.push_back(std::move(bucket[z]));
      bucket[z].id = OramBlock::kInvalidId;
    }
    if (node == 0) break;
  }

  // 3. Serve the request from the stash. A touch verifies presence but
  //    skips the copy-out — scans only need the path access itself.
  size_t at = 0;
  while (at < stash_.size() && stash_[at].id != id) ++at;
  Bytes result;
  if (op == Op::kWrite) {
    if (at == stash_.size()) stash_.push_back({id, 0, Bytes{}});
    stash_[at].data = std::move(*new_value);
  } else if (at == stash_.size()) {
    return Status::Internal("position map points to a missing block");
  } else if (op == Op::kRead) {
    result = stash_[at].data;
  }

  // 4. Remap the block to a fresh uniformly random leaf — the core of
  //    Path ORAM's obliviousness. A removal draws it too and drops it, so
  //    every access to an existing block draws exactly once.
  const uint64_t new_leaf = RandomLeaf();
  if (op == Op::kRemove) {
    stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(at));
    position_map_.erase(pos_it);
  } else {
    stash_[at].leaf = new_leaf;
    if (exists) {
      pos_it->second = new_leaf;
    } else {
      position_map_.emplace(id, new_leaf);
    }
  }

  // 5. Write the stash back along the same path.
  Evict(old_leaf);
  max_stash_size_ = std::max(max_stash_size_, stash_.size());
  return result;
}

void PathOram::Evict(uint64_t leaf) {
  // A block may sit at `level` of this path iff its own path passes the
  // same node there, i.e. at every level above the highest bit in which
  // the two leaves differ. Counting-sort the stash by that deepest legal
  // level, deepest first; ties keep stash order.
  const size_t height = num_levels_ - 1;
  const size_t n = stash_.size();
  evict_level_.resize(n);
  evict_order_.resize(n);
  std::fill(level_start_.begin(), level_start_.end(), 0);
  for (size_t i = 0; i < n; ++i) {
    evict_level_[i] = height - BitWidth(stash_[i].leaf ^ leaf);
    ++level_start_[evict_level_[i]];
  }
  for (size_t level = num_levels_, offset = 0; level-- > 0;) {
    const size_t count = level_start_[level];
    level_start_[level] = offset;
    offset += count;
  }
  for (size_t i = 0; i < n; ++i) {
    evict_order_[level_start_[evict_level_[i]]++] = i;
  }

  // Fill the path from the leaf up: each bucket takes the deepest waiting
  // blocks that may sit there. Any block legal at a level is legal at
  // every level above it, so the waiting blocks stay a suffix of the order.
  size_t next = 0;
  size_t node = num_leaves_ - 1 + leaf;
  for (size_t level = height;; --level, node = (node - 1) / 2) {
    OramBlock* bucket = &tree_[node * kBucketSize];
    for (size_t z = 0; z < kBucketSize && next < n &&
                       evict_level_[evict_order_[next]] >= level;
         ++z, ++next) {
      OramBlock& block = stash_[evict_order_[next]];
      bucket[z] = std::move(block);
      block.id = OramBlock::kInvalidId;
    }
    if (level == 0) break;
  }
  stash_.erase(std::remove_if(stash_.begin(), stash_.end(),
                              [](const OramBlock& b) { return !b.valid(); }),
               stash_.end());
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
