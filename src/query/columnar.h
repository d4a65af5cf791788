/// \file columnar.h
/// Columnar projection of append-only row storage. A ColumnarBlock keeps
/// per-column contiguous arrays (int64/double values, std::string cells,
/// and a 0/1 null mask) alongside a row-major container that shares its
/// append discipline: every array reserves the block's full capacity up
/// front and is only ever appended to in place, so element addresses are
/// stable for the block's lifetime — the same never-moves invariant that
/// makes edb::RowChunk safe to scan from a pinned SnapshotView while the
/// owner keeps appending (see docs/STORAGE.md).
///
/// Readers never touch the block itself: a capture (taken under the same
/// lock that orders appends) freezes raw array pointers into ColumnSpans,
/// and the vectorized executor reads strictly inside the captured bounds.
/// A column whose appended values ever contradict the declared schema type
/// stops growing its arrays ("poisoned"); captures that would reach past
/// the typed prefix simply report the column as untyped and the scan
/// kernel falls back to its row loop — wrong answers are impossible, only
/// speed is lost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "query/schema.h"
#include "query/value.h"

namespace dpsync::query {

/// Borrowed, address-stable view of one column over one row span. The
/// pointers are captured while holding the lock that orders appends and
/// index row 0 of the owning block; callers must only dereference indices
/// inside the row bounds frozen at capture time. `type == kNull` means the
/// column has no usable typed projection for this span (poisoned, or the
/// span predates the columnar mirror) and the row loop must be used.
struct ColumnSpan {
  ValueType type = ValueType::kNull;
  const int64_t* ints = nullptr;        ///< set when type == kInt
  const double* doubles = nullptr;      ///< set when type == kDouble
  const std::string* strings = nullptr; ///< set when type == kString
  const uint8_t* nulls = nullptr;       ///< 1 = NULL at that row; always set
                                        ///< when type != kNull

  bool typed() const { return type != ValueType::kNull; }
};

/// Per-column contiguous storage for one fixed-capacity block of rows.
/// Append-only; single writer under an external lock; arbitrary lock-free
/// readers through previously captured ColumnSpans.
class ColumnarBlock {
 public:
  /// Reserves every array at `capacity` so appends never reallocate.
  ColumnarBlock(const Schema& schema, size_t capacity);

  /// Appends one row's cells column-by-column. Cells beyond the row's
  /// length, like unknown columns in scalar evaluation, are stored as
  /// NULL. A cell whose type contradicts the schema poisons that column:
  /// its arrays freeze at their current length and later captures report
  /// it untyped. Never reallocates; appends past capacity are ignored
  /// (the owning chunk enforces the bound before calling).
  void Append(const Row& row);

  size_t rows() const { return rows_; }

  /// Freezes raw pointers for a capture of the first `take` rows. Must be
  /// called under the lock that orders Append (the pointers stay valid
  /// after it is released — arrays never move). A column whose typed
  /// prefix is shorter than `take` is reported as untyped.
  std::vector<ColumnSpan> CaptureSpans(size_t take) const;

 private:
  struct Column {
    ValueType type = ValueType::kNull;
    size_t typed_rows = 0;  ///< length of the arrays; stops at poisoning
    bool poisoned = false;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    std::vector<uint8_t> nulls;
  };

  size_t capacity_ = 0;
  size_t rows_ = 0;
  std::vector<Column> cols_;
};

}  // namespace dpsync::query
