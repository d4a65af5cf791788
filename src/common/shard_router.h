/// \file shard_router.h
/// Deterministic record-identity routing for sharded containers.
/// Records are routed by an FNV-1a hash of their serialized payload — a
/// pure function of record identity, so the same record lands on the same
/// shard in every run and the placement is independent of arrival order.
/// (The payload includes the isDummy attribute, so dummies spread across
/// shards exactly like real records and per-shard sizes leak nothing new.)
///
/// Both the storage spine (edb::EncryptedTableStore) and the oblivious
/// index (oram::OramMirror) route through this one router, which is what
/// guarantees a record's storage shard and its ORAM tree always agree.
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
