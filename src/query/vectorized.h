/// \file vectorized.h
/// Columnar (vectorized) execution primitives for the scan path:
///  - VectorPredicate: a WHERE tree compiled against a schema into flat
///    per-column comparison ops that fill a 0/1 selection bitmap over a
///    tile of rows, with semantics bit-identical to Expr::Eval + Truthy
///    (NULL operands compare false; mixed string/number comparisons order
///    strings after numbers; double comparisons go through the same
///    (x < y, x > y) trichotomy as Value::Compare, so NaN behaves
///    identically).
///  - FlatGroupMap: ClickHouse-style open-addressing hash aggregation
///    keyed on an int64 group column, used for per-chunk partials that
///    merge in deterministic chunk order.
///  - Mix64: the one 64-bit hash finalizer (FlatGroupMap and the hash
///    join), and MarkRealRows: the one Appendix-B real-row test (both join
///    kernels).
///
/// Everything here is a pure function of captured ColumnSpans: no locks,
/// no access past the row bounds the caller derived from its span capture.
/// The scan kernel decides per scan whether these apply (see
/// ExecuteScanPartial); whenever they do not, its row loop answers
/// instead.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/ast.h"
#include "query/columnar.h"
#include "query/schema.h"

namespace dpsync::query {

/// Mirrors ColumnExpr::Eval's name resolution: exact match first, then a
/// qualified reference ("T.col") falls back to the unqualified column.
std::optional<size_t> ResolveColumnName(const Schema& schema,
                                        const std::string& name);

/// The splitmix64 finalizer: cheap and well-distributed for power-of-two
/// masking even on sequential keys. It is a bijection on 64-bit words —
/// adding a constant, `h ^= h >> s` for s > 0 and multiplying by an odd
/// constant are each invertible mod 2^64 — so two int64 keys hash equal
/// exactly when they are equal, and a table keyed on int64 may compare
/// hashes alone. executor_test inverts it step by step to pin this.
inline uint64_t Mix64(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Appendix B's real-row test, the one both join kernels apply to each
/// side's own rows: a row is real when its own cell in column `dummy_col`
/// is non-NULL and Compare()s equal to 0. Fills real[0, n) for rows
/// [begin, begin + n) of a span whose rows are `rows` and whose columnar
/// projection is `cols` (empty when it has none). A typed int projection
/// answers from its null mask and values without reading a row; any other
/// span (poisoned, untyped or unprojected) reads each row's cell. A row
/// shorter than the schema has no cell there and is not real — the
/// projection stores that cell as NULL, so both readings agree.
/// `dummy_col` nullopt (a schema without isDummy) marks every row real.
void MarkRealRows(const Row* rows, const std::vector<ColumnSpan>& cols,
                  std::optional<size_t> dummy_col, size_t begin, size_t n,
                  uint8_t* real);

/// A WHERE tree compiled into flat selection-bitmap ops over one schema.
class VectorPredicate {
 public:
  /// Compiles `where` against `schema`. Lowerable trees are built only
  /// from {column cmp literal, literal cmp column, column BETWEEN literal
  /// AND literal, AND, OR, NOT}. Returns nullopt when the tree shape or a
  /// column's declared type cannot be lowered; callers fall back to row
  /// evaluation. A null `where` compiles to an always-true predicate
  /// (callers usually skip the bitmap entirely in that case).
  static std::optional<VectorPredicate> Compile(const Expr* where,
                                                const Schema& schema);

  /// Schema indices of every column the compiled ops read.
  const std::vector<size_t>& columns() const { return cols_; }

  /// True when every column this predicate reads has a typed projection of
  /// the compiled type in `cols` (one ColumnSpan per schema column).
  bool CompatibleWith(const std::vector<ColumnSpan>& cols) const;

  /// Fills out[0..n) with the selection for rows [begin, begin+n) of the
  /// span whose column projections are `cols`. Requires
  /// CompatibleWith(cols). `scratch` holds per-node tile buffers and is
  /// reused across calls (sized lazily); keep one per worker.
  void Eval(const std::vector<ColumnSpan>& cols, size_t begin, size_t n,
            uint8_t* out, std::vector<std::vector<uint8_t>>* scratch) const;

 private:
  struct Node {
    enum class Kind {
      kConstFalse,  ///< a NULL literal operand: no row ever matches
      kCmpInt,      ///< int column vs int literal (exact int64 trichotomy)
      kCmpDouble,   ///< numeric column vs numeric literal, as double
      kCmpString,   ///< string column vs string literal
      kCmpFixed,    ///< mixed string/number: Compare() is row-independent
      kAnd,
      kOr,
      kNot,
    };
    Kind kind = Kind::kConstFalse;
    CmpOp op = CmpOp::kEq;
    size_t col = 0;       ///< schema index (leaf kinds)
    int64_t ilit = 0;     ///< kCmpInt
    double dlit = 0.0;    ///< kCmpDouble
    std::string slit;     ///< kCmpString
    int fixed_cmp = 0;    ///< kCmpFixed: precomputed Compare() sign
    int lhs = -1;         ///< child node index (kAnd/kOr/kNot)
    int rhs = -1;         ///< child node index (kAnd/kOr)
  };

  /// Lowers one subtree, appending nodes in evaluation (post) order.
  /// Returns the subtree's root node index, or -1 if not lowerable.
  int CompileExpr(const Expr& e, const Schema& schema);
  /// Lowers `col op lit` (already flipped so the column is on the left).
  int CompileCompare(CmpOp op, size_t col, const Value& lit,
                     const Schema& schema);

  std::vector<Node> nodes_;
  std::vector<size_t> cols_;
};

/// Open-addressing hash table from int64 group key to AggAccumulator-like
/// payload, in the style of ClickHouse's HashMap: power-of-two capacity,
/// linear probing, grow at ~70% load. Used for per-chunk group-by
/// partials; iteration order is arbitrary, which is fine because partials
/// merge per group into an ordered map in deterministic chunk order.
template <typename Payload>
class FlatGroupMap {
 public:
  /// `proto` is copied into every fresh slot (it carries the aggregate
  /// function; accumulator state starts empty).
  explicit FlatGroupMap(Payload proto) : proto_(std::move(proto)) {
    Rehash(kInitialSlots);
  }

  /// Returns the payload slot for `key`, inserting an empty one on first
  /// sight.
  Payload& Upsert(int64_t key) {
    if ((size_ + 1) * 10 >= keys_.size() * 7) Rehash(keys_.size() * 2);
    size_t mask = keys_.size() - 1;
    size_t i = Mix64(static_cast<uint64_t>(key)) & mask;
    while (used_[i]) {
      if (keys_[i] == key) return payloads_[i];
      i = (i + 1) & mask;
    }
    used_[i] = 1;
    keys_[i] = key;
    ++size_;
    return payloads_[i];
  }

  /// The slot for NULL group keys (SQL groups all NULLs together).
  Payload& NullSlot() {
    if (!has_null_) {
      null_slot_ = proto_;
      has_null_ = true;
    }
    return null_slot_;
  }
  bool has_null() const { return has_null_; }
  const Payload& null_slot() const { return null_slot_; }

  size_t size() const { return size_; }

  /// Visits every non-NULL group (arbitrary order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (used_[i]) fn(keys_[i], payloads_[i]);
    }
  }

 private:
  static constexpr size_t kInitialSlots = 64;

  void Rehash(size_t new_slots) {
    std::vector<int64_t> keys(new_slots, 0);
    std::vector<uint8_t> used(new_slots, 0);
    std::vector<Payload> payloads(new_slots, proto_);
    size_t mask = new_slots - 1;
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (!used_[i]) continue;
      size_t j = Mix64(static_cast<uint64_t>(keys_[i])) & mask;
      while (used[j]) j = (j + 1) & mask;
      used[j] = 1;
      keys[j] = keys_[i];
      payloads[j] = std::move(payloads_[i]);
    }
    keys_ = std::move(keys);
    used_ = std::move(used);
    payloads_ = std::move(payloads);
  }

  Payload proto_;
  std::vector<int64_t> keys_;
  std::vector<uint8_t> used_;
  std::vector<Payload> payloads_;
  size_t size_ = 0;
  bool has_null_ = false;
  Payload null_slot_ = proto_;
};

}  // namespace dpsync::query
