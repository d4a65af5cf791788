/// \file snapshot.h
/// The SnapshotView seam: an immutable, lock-free view of one table's
/// *committed prefix* at a CommitEpoch.
///
/// DP-Sync's flush discipline gives every table a natural commit point —
/// records become query-visible only when a strategy flushes them — so the
/// committed prefix is a stable relation between flushes. The encrypted
/// table store tracks a per-table CommitEpoch (advanced by Flush), keeps
/// its enclave-resident plaintext mirrors in fixed-capacity, address-
/// stable RowChunks, and can capture the committed prefix as a
/// SnapshotView: a list of row spans plus shared ownership of the chunks
/// they point into.
///
/// The whole point of the chunk shape is that a capture is O(#chunks) and
/// copies nothing: a chunk reserves its full capacity up front and is only
/// ever appended to in place, so rows never move once decrypted. A reader
/// holding a SnapshotView therefore scans without any lock while the owner
/// keeps appending — the writer only writes rows *beyond* every captured
/// span, and the reader never consults a container size, only the span
/// bounds frozen at capture time (under the table mutex, which provides
/// the happens-before edge for everything inside those bounds). Chunks
/// dropped by Reopen stay alive through the view's shared_ptrs.
///
/// Every scan and join reads through a snapshot, on both storage methods:
/// an ORAM-indexed read pays its oblivious touches under the same brief
/// lock that captures the view (edb::EncryptedTableStore::Snapshot), which
/// records that work in the view, then reads the view like a linear one
/// (docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "oram/oram_mirror.h"
#include "query/columnar.h"
#include "query/executor.h"

namespace dpsync::edb {

/// One fixed-capacity block of decrypted enclave rows. The capacity is
/// reserved at construction and writers never push past it, so element
/// addresses are stable for the chunk's lifetime — the invariant every
/// outstanding SnapshotView relies on. Append() is the only sanctioned
/// write path: it enforces the capacity bound instead of trusting call
/// sites, because one push_back past the reservation would reallocate the
/// vector and dangle every pinned span silently.
///
/// When constructed with a schema, the chunk also maintains a columnar
/// projection of the same rows (`columns`): per-column contiguous arrays
/// the vectorized scan path folds directly. The projection follows the
/// exact same discipline — reserved at full capacity, append-only, never
/// moves — so captured column pointers stay valid under concurrent
/// appends for the same reason captured row pointers do.
struct RowChunk {
  explicit RowChunk(size_t capacity, const query::Schema* schema = nullptr)
      : capacity_(capacity) {
    rows.reserve(capacity);
    if (schema != nullptr) columns.emplace(*schema, capacity);
  }

  /// Appends one row in place (row-major and, when present, columnar).
  /// Fails (leaving the chunk untouched) when the chunk is already at
  /// capacity; callers roll a fresh chunk instead.
  Status Append(query::Row row) {
    if (rows.size() >= capacity_) {
      return Status::FailedPrecondition(
          "RowChunk: append past reserved capacity would reallocate and "
          "dangle outstanding SnapshotView spans");
    }
    if (columns) columns->Append(row);
    rows.push_back(std::move(row));
    return Status::Ok();
  }

  bool full() const { return rows.size() >= capacity_; }
  size_t capacity() const { return capacity_; }

  std::vector<query::Row> rows;
  /// Columnar mirror of `rows` (same order, same bounds); nullopt for
  /// chunks built without a schema.
  std::optional<query::ColumnarBlock> columns;

 private:
  size_t capacity_;
};

/// An immutable view of a table's committed prefix. Cheap to copy/move;
/// valid independent of the table's lifetime (it co-owns the chunks).
struct SnapshotView {
  /// The CommitEpoch the view was captured at (monotone per table;
  /// advanced by every Flush that committed new records, and by Reopen).
  uint64_t epoch = 0;
  /// Committed rows across all shards — what a snapshot scan reports as
  /// records_scanned and what the cost model charges.
  int64_t total_rows = 0;
  /// The committed rows, shard-major, in per-shard append order.
  std::vector<query::RowSpan> spans;
  /// Committed rows per storage shard (indexed like the store's shards).
  std::vector<int64_t> shard_rows;
  /// Keeps every chunk the spans point into alive.
  std::vector<std::shared_ptr<const RowChunk>> retained;
  /// The ORAM work the capture paid on an indexed table (zero on a linear
  /// one): one path per mirrored record, committed or not.
  oram::OramTouchCost oram;
};

}  // namespace dpsync::edb
