/// \file local_cache.h
/// The local cache sigma (paper §3.2.1): a lightweight owner-side buffer
/// holding records that have been received but not yet synchronized.
/// Supports the three basic operations len / write / read, where read(n)
/// pops up to n records and pads with dummy records when the cache holds
/// fewer — exactly the behaviour Algorithm 2's Perturb relies on.
///
/// Reads pop oldest first: preserving arrival order is what gives DP-Sync
/// the strong variant of the consistent-eventually property (P3).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/record.h"

namespace dpsync {

/// Owner-side staging buffer with dummy-padded reads.
class LocalCache {
 public:
  /// \param dummy_factory used to fabricate padding records on short reads
  explicit LocalCache(DummyFactory dummy_factory);

  /// Number of records currently cached ("get cache length").
  int64_t len() const { return static_cast<int64_t>(buffer_.size()); }

  /// Appends a record ("write cache").
  void Write(Record r);

  /// Pops up to `n` records, oldest first ("read cache"). If n > len(),
  /// all cached records are returned followed by (n - len()) fresh
  /// dummies, so the result always has exactly max(n, 0) records.
  std::vector<Record> Read(int64_t n);

  /// Largest value len() has ever reached (for the Theorem 6/8 cache-size
  /// bound checks).
  int64_t peak_len() const { return peak_len_; }

  /// Total dummies fabricated by short reads so far.
  int64_t dummies_created() const { return dummies_created_; }

 private:
  DummyFactory dummy_factory_;
  std::deque<Record> buffer_;
  int64_t peak_len_ = 0;
  int64_t dummies_created_ = 0;
};

}  // namespace dpsync
