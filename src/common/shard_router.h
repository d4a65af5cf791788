/// \file shard_router.h
/// Deterministic record-identity routing for sharded containers.
/// Records are routed by an FNV-1a hash of their serialized payload — a
/// pure function of record identity, so the same record lands on the same
/// shard in every run and the placement is independent of arrival order.
/// The payload includes the isDummy attribute, so dummies spread across
/// shards like real records.
///
/// The per-shard sizes still leak more than the update pattern: the hash
/// is unkeyed, so an adversary who knows the other records of a batch can
/// compute where a target record lands. Over 200 pairs of neighbouring
/// 20-record batches written into a 4-shard store (equal totals, one
/// record swapped as a FIFO fetch on neighbouring streams would), the
/// per-shard counts differed in 151 pairs. ROADMAP direction 2's second
/// step fixes it by placing a record by its append index instead.
///
/// Placement is decided once, where a record is stored: by
/// edb::EncryptedTableStore, and in the distributed topology by the
/// coordinator, whose shard servers store each ciphertext on the local
/// shard it names. The store hands that shard to its oblivious index
/// (oram::OramMirror), so a record's storage shard and its ORAM tree
/// agree by construction.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace dpsync {

/// 64-bit FNV-1a over a byte buffer (also used for schema fingerprints).
inline uint64_t Fnv1a64(const uint8_t* data, size_t len,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Maps record payloads to shard indices.
class ShardRouter {
 public:
  explicit ShardRouter(int num_shards) : num_shards_(num_shards) {}

  int num_shards() const { return num_shards_; }

  /// Shard for a record with the given serialized payload.
  int Route(const Bytes& payload) const {
    if (num_shards_ <= 1) return 0;
    return static_cast<int>(Fnv1a64(payload.data(), payload.size()) %
                            static_cast<uint64_t>(num_shards_));
  }

 private:
  int num_shards_;
};

}  // namespace dpsync
