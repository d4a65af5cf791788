#include "query/executor.h"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.h"
#include "query/vectorized.h"

namespace dpsync::query {

namespace {

/// Scans below this many total rows stay on the calling thread; the paper's
/// unit-test tables never reach it, so small scans behave exactly as the
/// pre-sharding executor did.
constexpr size_t kParallelScanThreshold = 8192;

/// Tile size for the columnar loop: selection bitmaps are computed and
/// folded this many rows at a time, bounding scratch memory and keeping
/// the predicate's column reads cache-resident. Tiling never reorders the
/// fold — rows are consumed in strict ascending order within each pool
/// chunk — so it cannot affect FP-sensitive answers.
constexpr size_t kVectorTileRows = 2048;

/// Invokes `fn(span, lo, hi)` for every maximal per-span segment of the
/// global row range [begin, end), walking the span list in order. Spans
/// are the only row access path: snapshot-backed spans may alias
/// containers a concurrent writer is growing, and reading strictly inside
/// each span's captured bounds is what keeps that safe.
template <typename Fn>
void ForEachSpanSegment(const std::vector<RowSpan>& spans, size_t begin,
                        size_t end, Fn&& fn) {
  size_t offset = 0;
  for (const auto& span : spans) {
    size_t span_end = offset + span.size;
    if (span_end > begin) {
      size_t lo = begin > offset ? begin - offset : 0;
      size_t hi = (end < span_end ? end : span_end) - offset;
      fn(span, lo, hi);
    }
    offset = span_end;
    if (offset >= end) break;
  }
}

/// One span-aligned scan chunk: rows [begin, end) of spans[span].
struct ScanChunk {
  size_t span = 0;
  size_t begin = 0;
  size_t end = 0;
};

/// The canonical scan decomposition: each non-empty span splits
/// independently into even row ranges (pool-width chunks once the span
/// crosses the parallel threshold), and a chunk never straddles a span
/// boundary. Scan reductions fold chunk partials left within their span
/// and span partials left in span order, so the merge tree is a pure
/// function of the ordered span row counts — NOT of how ParallelFor
/// schedules the chunks (partials are indexed per chunk, so a nested
/// collapse changes nothing) and NOT of how spans are grouped into
/// processes. A shard server folding its local spans' chunks and a
/// coordinator folding per-span cells in global shard order
/// (dist/coordinator.cc) replay exactly this tree, which is what makes
/// distributed answers bit-identical for FP-sensitive aggregates
/// (SUM/AVG over doubles).
std::vector<ScanChunk> SpanAlignedScanChunks(const std::vector<RowSpan>& spans) {
  std::vector<ScanChunk> chunks;
  for (size_t s = 0; s < spans.size(); ++s) {
    const size_t n = spans[s].size;
    if (n == 0) continue;
    const size_t count =
        n >= kParallelScanThreshold
            ? std::min(SharedPool()->num_threads(), n)
            : 1;
    const size_t base = n / count;
    const size_t extra = n % count;
    size_t begin = 0;
    for (size_t c = 0; c < count; ++c) {
      const size_t end = begin + base + (c < extra ? 1 : 0);
      chunks.push_back({s, begin, end});
      begin = end;
    }
  }
  return chunks;
}

/// Runs `fn(i)` for every chunk index: inline on the calling thread when
/// the scan covers fewer than kParallelScanThreshold rows, on the shared
/// pool otherwise. Scheduling is free to batch indices per worker;
/// determinism comes from per-chunk partial indexing, never from the
/// schedule, so the choice moves no answer.
template <typename Fn>
void RunScanChunks(size_t n, size_t total_rows, Fn&& fn) {
  if (total_rows < kParallelScanThreshold) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  SharedPool()->ParallelFor(n, n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Whether every non-empty span carries a full columnar projection whose
/// column `idx` is typed `t`.
bool SpansTyped(const std::vector<RowSpan>& spans, size_t n_cols, size_t idx,
                ValueType t) {
  for (const auto& span : spans) {
    if (span.size == 0) continue;
    if (span.columns.size() != n_cols || span.columns[idx].type != t) {
      return false;
    }
  }
  return true;
}

/// The columnar loop's per-scan plan: the typed columns the fold reads and
/// the compiled WHERE.
struct ColumnarScan {
  AggFunc func = AggFunc::kCount;
  /// Typed numeric aggregate column; nullopt for COUNT, which ignores its
  /// input value entirely (Add() returns before reading it).
  std::optional<size_t> measure;
  /// int64 group-key column; nullopt for ungrouped scans.
  std::optional<size_t> key;
  std::optional<VectorPredicate> where;
};

/// Decides, once per scan, whether the columnar loop applies. Eligibility
/// is all-or-nothing across spans — every non-empty span must carry a full
/// columnar projection with the columns the fold reads typed — so a scan
/// never switches loops between chunks. Group keys run through
/// FlatGroupMap, which is keyed on raw int64 (the only key type the
/// evaluation schemas group by); string/double keys stay on the row loop.
std::optional<ColumnarScan> PlanColumnarScan(const SelectQuery& q,
                                             const SelectItem& agg,
                                             const Schema& schema,
                                             const std::vector<RowSpan>& spans) {
  for (const auto& span : spans) {
    if (span.size > 0 && span.columns.size() != schema.size()) {
      return std::nullopt;
    }
  }
  ColumnarScan scan;
  scan.func = agg.agg;
  if (agg.agg != AggFunc::kCount) {
    auto idx = ResolveColumnName(schema, agg.column);
    if (!idx) return std::nullopt;  // unknown column: the row loop feeds NULLs
    const ValueType t = schema.fields()[*idx].type;
    if (t != ValueType::kInt && t != ValueType::kDouble) return std::nullopt;
    if (!SpansTyped(spans, schema.size(), *idx, t)) return std::nullopt;
    scan.measure = idx;
  }
  if (q.where) {
    scan.where = VectorPredicate::Compile(q.where.get(), schema);
    if (!scan.where) return std::nullopt;
    for (const auto& span : spans) {
      if (span.size > 0 && !scan.where->CompatibleWith(span.columns)) {
        return std::nullopt;
      }
    }
  }
  if (!q.group_by.empty()) {
    auto idx = ResolveColumnName(schema, q.group_by[0]);
    if (!idx || schema.fields()[*idx].type != ValueType::kInt ||
        !SpansTyped(spans, schema.size(), *idx, ValueType::kInt)) {
      return std::nullopt;
    }
    scan.key = idx;
  }
  return scan;
}

/// The columnar loop over rows [begin, end) of one span: per tile, the
/// WHERE fills a selection bitmap and the fold reads typed column arrays,
/// adding selected rows in strict ascending order — the row loop's order,
/// which is what makes the cell bit-identical to it.
void FoldColumnarChunk(const ColumnarScan& scan, const RowSpan& span,
                       size_t begin, size_t end, SpanPartial* cell) {
  std::vector<std::vector<uint8_t>> scratch;
  std::vector<uint8_t> sel;
  auto select = [&](size_t t, size_t n) -> const uint8_t* {
    if (!scan.where) return nullptr;
    sel.resize(n);
    scan.where->Eval(span.columns, t, n, sel.data(), &scratch);
    return sel.data();
  };
  const ColumnSpan* mc = scan.measure ? &span.columns[*scan.measure] : nullptr;
  if (!scan.key) {
    for (size_t t = begin; t < end; t += kVectorTileRows) {
      const size_t n = std::min(kVectorTileRows, end - t);
      const uint8_t* selp = select(t, n);
      if (mc == nullptr) {
        cell->total.FoldCount(n, selp);
      } else {
        cell->total.FoldColumn(*mc, t, n, selp);
      }
    }
    return;
  }
  FlatGroupMap<AggAccumulator> groups{AggAccumulator(scan.func)};
  const ColumnSpan& kc = span.columns[*scan.key];
  for (size_t t = begin; t < end; t += kVectorTileRows) {
    const size_t n = std::min(kVectorTileRows, end - t);
    const uint8_t* selp = select(t, n);
    for (size_t i = 0; i < n; ++i) {
      if (selp != nullptr && !selp[i]) continue;
      const size_t r = t + i;
      AggAccumulator& acc =
          kc.nulls[r] ? groups.NullSlot() : groups.Upsert(kc.ints[r]);
      if (mc == nullptr || mc->nulls[r]) {
        acc.AddNull();
      } else {
        acc.AddMeasure(mc->type == ValueType::kInt
                           ? static_cast<double>(mc->ints[r])
                           : mc->doubles[r]);
      }
    }
  }
  // The hash table's visit order is arbitrary, which is fine: each group's
  // accumulator is copied out whole, and only accumulators of the same
  // group ever merge later.
  if (groups.has_null()) cell->groups.emplace(Value(), groups.null_slot());
  groups.ForEach([&](int64_t key, const AggAccumulator& acc) {
    cell->groups.emplace(Value(key), acc);
  });
}

}  // namespace

void AggAccumulator::Add(const Value& v) {
  ++count_;
  if (func_ == AggFunc::kCount) return;
  if (v.is_null()) return;
  double d = v.AsDouble();
  sum_ += d;
  if (!seen_ || d < min_) min_ = d;
  if (!seen_ || d > max_) max_ = d;
  seen_ = true;
}

void AggAccumulator::Merge(const AggAccumulator& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.seen_) {
    if (!seen_ || other.min_ < min_) min_ = other.min_;
    if (!seen_ || other.max_ > max_) max_ = other.max_;
    seen_ = true;
  }
}

void AggAccumulator::FoldColumn(const ColumnSpan& col, size_t begin, size_t n,
                                const uint8_t* sel) {
  // One branch-free-ish loop per storage type, consuming rows in strict
  // ascending order. Each selected row replays Add()'s exact statement
  // sequence (via AddNull/AddMeasure), so the accumulator state after the
  // fold is bit-identical to the row loop's.
  const uint8_t* nu = col.nulls + begin;
  if (col.type == ValueType::kInt) {
    const int64_t* v = col.ints + begin;
    for (size_t i = 0; i < n; ++i) {
      if (sel != nullptr && !sel[i]) continue;
      if (nu[i]) {
        AddNull();
      } else {
        AddMeasure(static_cast<double>(v[i]));
      }
    }
    return;
  }
  const double* v = col.doubles + begin;
  for (size_t i = 0; i < n; ++i) {
    if (sel != nullptr && !sel[i]) continue;
    if (nu[i]) {
      AddNull();
    } else {
      AddMeasure(v[i]);
    }
  }
}

void AggAccumulator::FoldCount(size_t n, const uint8_t* sel) {
  if (sel == nullptr) {
    count_ += static_cast<int64_t>(n);
    return;
  }
  int64_t c = 0;
  for (size_t i = 0; i < n; ++i) c += sel[i];
  count_ += c;
}

double AggAccumulator::Result() const {
  switch (func_) {
    case AggFunc::kCount:
      return static_cast<double>(count_);
    case AggFunc::kSum:
      return sum_;
    case AggFunc::kAvg:
      return count_ > 0 && seen_ ? sum_ / static_cast<double>(count_) : 0.0;
    case AggFunc::kMin:
      return seen_ ? min_ : 0.0;
    case AggFunc::kMax:
      return seen_ ? max_ : 0.0;
    case AggFunc::kNone:
      return 0.0;
  }
  return 0.0;
}

Schema JoinedSchema(const Table& left, const Table& right) {
  std::vector<Field> fields;
  fields.reserve(left.schema.size() + right.schema.size());
  for (const auto& f : left.schema.fields()) {
    fields.push_back({left.name + "." + f.name, f.type});
  }
  for (const auto& f : right.schema.fields()) {
    fields.push_back({right.name + "." + f.name, f.type});
  }
  return Schema(std::move(fields));
}

StatusOr<QueryResult> Executor::Execute(const SelectQuery& q) const {
  const Table* table = catalog_->Find(q.table);
  if (!table) return Status::NotFound("unknown table: " + q.table);
  if (q.join) {
    const Table* right = catalog_->Find(q.join->table);
    if (!right) return Status::NotFound("unknown table: " + q.join->table);
    return ExecuteJoin(q, *table, *right);
  }
  return ExecuteScan(q, *table);
}

StatusOr<QueryResult> Executor::ExecuteScan(const SelectQuery& q,
                                            const Table& table) const {
  // The L-0 oblivious scan: the kernel touches every row of every span.
  // Finalizing its partial here is what guarantees the local answer and a
  // coordinator's fold over shipped per-span cells come from one
  // implementation.
  auto partial = ExecuteScanPartial(q, table, options_.vectorized);
  if (!partial.ok()) return partial.status();
  return partial.value().Finalize();
}

namespace {

// --- partitioned hash join ------------------------------------------------
//
// The join runs in three phases, each a pure function of the captured
// spans (safe over snapshot-backed tables with no lock held):
//   1. key extraction: both sides' ON keys are hoisted once into flat
//      arrays — straight off the typed columnar projections for int/string
//      keys, through the scalar cell access (mirroring ColumnExpr::Eval)
//      otherwise — along with a splitmix64 hash per key;
//   2. build: the right side's rows are scattered by the hash's top bits
//      into partitions, and each partition builds an open-addressing table
//      (capacity reserved from its row count) whose per-key chains keep
//      append order;
//   3. probe: the left side is walked in strict ascending row order in
//      fixed chunks; each chunk accumulates its own partial and partials
//      merge in chunk order — the scan path's reduction discipline, which
//      is what keeps FP-sensitive aggregates deterministic. The chunk
//      bounds come from RunJoinChunks, never from the calling thread, so
//      Execute, Submit and ExecuteMany all replay the same merge tree.
//
// Match enumeration order is exactly the old row-at-a-time join's: probe
// rows ascending, and per key the build rows in append order. Partitioning
// only routes lookups; it never reorders Add() calls.

/// Build-side partition count when the build side is large enough to fan
/// out (power of two; the hash's top bits select the partition, the low
/// bits the slot, so the two decisions stay independent).
constexpr size_t kJoinBuildPartitions = 64;
constexpr int kJoinPartitionShift = 58;
static_assert(kJoinBuildPartitions == (size_t{1} << (64 - kJoinPartitionShift)),
              "partition selector must cover exactly the partition count");

/// splitmix64 finalizer — the FlatGroupMap hashing discipline
/// (query/vectorized.h), reused for join-key partitioning and the
/// per-partition open-addressing tables.
inline uint64_t SplitMix64(uint64_t h) {
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

inline uint64_t HashJoinBytes(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;  // FNV prime
  }
  return SplitMix64(h);
}

/// Hash of a non-null scalar join key. Keys that Compare() equal MUST hash
/// equal: numeric keys hash their coerced double's bit pattern — the exact
/// coercion Compare() applies to mixed int/double pairs — with -0.0
/// canonicalized to +0.0 (they compare equal) and every NaN payload to one
/// pattern. Strings hash their bytes; strings never Compare() equal to
/// numbers, so hash collisions across the two spaces are resolved by the
/// full Compare() in the table.
inline uint64_t HashJoinValue(const Value& v) {
  if (v.type() == ValueType::kString) {
    const std::string& s = v.AsString();
    return HashJoinBytes(s.data(), s.size());
  }
  double d = v.AsDouble();
  if (d == 0.0) d = 0.0;  // collapses -0.0 onto +0.0
  uint64_t bits = 0x7ff8000000000000ull;  // canonical NaN
  if (d == d) std::memcpy(&bits, &d, sizeof(bits));
  return SplitMix64(bits);
}

/// Which representation the hoisted key arrays use. Typed modes require
/// BOTH sides' declared key types to agree and every non-empty span to
/// carry that typed projection (a poisoned column reports untyped and
/// drops the join to kValue — the scalar row fallback).
enum class JoinKeyMode { kInt, kString, kValue };

/// One side's hoisted join state: row pointers plus per-row key arrays.
struct JoinSide {
  size_t rows = 0;
  std::vector<const Row*> row_ptrs;
  /// 1 = key is non-null and the row passed its dummy filter.
  std::vector<uint8_t> valid;
  std::vector<uint64_t> hash;            ///< valid rows only
  std::vector<int64_t> ints;             ///< JoinKeyMode::kInt
  std::vector<const std::string*> strs;  ///< JoinKeyMode::kString
  std::vector<Value> vals;               ///< JoinKeyMode::kValue
};

/// Pre-filter for one side's own `isDummy = 0` conjunct, mirroring that
/// CompareExpr's evaluation over the combined row: active-but-unresolved
/// means the conjunct evaluates NULL and excludes every row.
struct JoinDummyFilter {
  bool active = false;
  bool resolved = false;
  size_t col = 0;
};

inline bool PassesDummyFilter(const JoinDummyFilter& f, const Row& row) {
  if (!f.active) return true;
  if (!f.resolved || f.col >= row.size()) return false;
  const Value& cell = row[f.col];
  return !cell.is_null() &&
         cell.Compare(Value(static_cast<int64_t>(0))) == 0;
}

/// True when `e` is exactly `<col> = 0` (the conjunct MakeNotDummyPredicate
/// builds).
bool IsNotDummyConjunct(const Expr* e, const std::string& col) {
  if (e == nullptr || e->kind() != ExprKind::kCompare) return false;
  const auto& cmp = static_cast<const CompareExpr&>(*e);
  if (cmp.op() != CmpOp::kEq) return false;
  if (cmp.lhs().kind() != ExprKind::kColumn ||
      cmp.rhs().kind() != ExprKind::kLiteral) {
    return false;
  }
  if (static_cast<const ColumnExpr&>(cmp.lhs()).name() != col) return false;
  const Value& v = static_cast<const LiteralExpr&>(cmp.rhs()).value();
  return v.type() == ValueType::kInt && v.AsInt() == 0;
}

/// Recognizes `[user AND] lcol = 0 AND rcol = 0` — the exact tree
/// RewriteForDummies appends for joins — and returns true with `*user_out`
/// set to the remaining user predicate (null when the WHERE was only the
/// conjuncts). The predicates are pure, so hoisting the conjuncts into
/// row filters cannot change any pair's outcome.
bool SplitDummyConjuncts(const Expr* where, const std::string& lcol,
                         const std::string& rcol, const Expr** user_out) {
  *user_out = nullptr;
  if (where == nullptr || where->kind() != ExprKind::kLogical) return false;
  const auto& outer = static_cast<const LogicalExpr&>(*where);
  if (outer.op() != LogicalExpr::Op::kAnd ||
      !IsNotDummyConjunct(&outer.rhs(), rcol)) {
    return false;
  }
  const Expr* lhs = &outer.lhs();
  if (IsNotDummyConjunct(lhs, lcol)) return true;
  if (lhs->kind() != ExprKind::kLogical) return false;
  const auto& inner = static_cast<const LogicalExpr&>(*lhs);
  if (inner.op() != LogicalExpr::Op::kAnd ||
      !IsNotDummyConjunct(&inner.rhs(), lcol)) {
    return false;
  }
  *user_out = &inner.lhs();
  return true;
}

/// Runs `fn(chunk, begin, end)` over [0, n) split into
/// min(max_chunks, n, pool width) even chunks (the first n % chunks take
/// one extra element). The join computes these bounds itself and hands
/// chunk INDICES to ParallelFor, exactly as RunScanChunks does, so the
/// decomposition — and with it every chunk-indexed partial and the
/// FP-sensitive merge over them — is a function of (n, max_chunks, pool
/// width) alone. Inside a pool task (Submit, ExecuteMany) ParallelFor
/// collapses to one inline call that walks every index, which changes
/// only the thread, never the bounds.
template <typename Fn>
void RunJoinChunks(size_t n, size_t max_chunks, Fn&& fn) {
  if (n == 0) return;
  const size_t chunks = std::min({max_chunks, n, SharedPool()->num_threads()});
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  SharedPool()->ParallelFor(chunks, chunks, [&](size_t, size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) {
      const size_t begin = c * base + std::min(c, extra);
      fn(c, begin, begin + base + (c < extra ? 1 : 0));
    }
  });
}

/// Hoists one side's keys (and row pointers) into flat arrays. Output is
/// a pure per-row function, so the parallel fill is chunking-independent.
void ExtractJoinSide(const std::vector<RowSpan>& spans, size_t total,
                     std::optional<size_t> key_idx, JoinKeyMode mode,
                     const JoinDummyFilter& filter, JoinSide* out) {
  out->rows = total;
  out->row_ptrs.resize(total);
  out->valid.assign(total, 0);
  out->hash.resize(total);
  switch (mode) {
    case JoinKeyMode::kInt:
      out->ints.resize(total);
      break;
    case JoinKeyMode::kString:
      out->strs.resize(total);
      break;
    case JoinKeyMode::kValue:
      out->vals.assign(total, Value());
      break;
  }
  const size_t max_chunks =
      total >= kParallelScanThreshold ? SharedPool()->num_threads() : 1;
  RunJoinChunks(total, max_chunks, [&](size_t, size_t begin, size_t end) {
    size_t g = begin;
    ForEachSpanSegment(spans, begin, end,
                       [&](const RowSpan& span, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i, ++g) {
        const Row& row = span.data[i];
        out->row_ptrs[g] = &row;
        if (!PassesDummyFilter(filter, row)) continue;
        switch (mode) {
          case JoinKeyMode::kInt: {
            const ColumnSpan& kc = span.columns[*key_idx];
            if (kc.nulls[i]) continue;
            out->ints[g] = kc.ints[i];
            out->hash[g] = SplitMix64(static_cast<uint64_t>(kc.ints[i]));
            break;
          }
          case JoinKeyMode::kString: {
            const ColumnSpan& kc = span.columns[*key_idx];
            if (kc.nulls[i]) continue;
            out->strs[g] = &kc.strings[i];
            out->hash[g] =
                HashJoinBytes(kc.strings[i].data(), kc.strings[i].size());
            break;
          }
          case JoinKeyMode::kValue: {
            if (!key_idx || *key_idx >= row.size()) continue;
            const Value& v = row[*key_idx];
            if (v.is_null()) continue;
            out->vals[g] = v;
            out->hash[g] = HashJoinValue(v);
            break;
          }
        }
        out->valid[g] = 1;
      }
    });
  });
}

inline bool JoinKeysEqual(JoinKeyMode mode, const JoinSide& a, size_t ia,
                          const JoinSide& b, size_t ib) {
  switch (mode) {
    case JoinKeyMode::kInt:
      return a.ints[ia] == b.ints[ib];
    case JoinKeyMode::kString:
      return *a.strs[ia] == *b.strs[ib];
    case JoinKeyMode::kValue:
      return a.vals[ia].Compare(b.vals[ib]) == 0;
  }
  return false;
}

/// One build-side partition: an open-addressing table (slot -> entry)
/// over the partition's rows, with per-key chains in append order.
struct JoinPartition {
  std::vector<uint32_t> rows;  ///< global build row ids, append order
  struct Entry {
    uint64_t hash = 0;
    uint32_t rep = 0;   ///< global row id of the key's first occurrence
    int32_t head = -1;  ///< chain head/tail: indices into `rows`
    int32_t tail = -1;
  };
  std::vector<uint32_t> slots;  ///< entry index + 1; 0 = empty
  std::vector<Entry> entries;
  std::vector<int32_t> next;  ///< chain links over `rows` indices
  uint64_t mask = 0;
};

/// Builds one partition's table. Capacity is reserved up front from the
/// partition's row count (power of two, <=50% load), so inserting never
/// rehashes.
void BuildJoinPartition(JoinKeyMode mode, const JoinSide& build,
                        JoinPartition* p) {
  const size_t m = p->rows.size();
  size_t slot_count = 16;
  while (slot_count < m * 2) slot_count <<= 1;
  p->slots.assign(slot_count, 0);
  p->mask = slot_count - 1;
  p->entries.clear();
  p->entries.reserve(m);
  p->next.assign(m, -1);
  for (size_t j = 0; j < m; ++j) {
    const uint32_t g = p->rows[j];
    const uint64_t h = build.hash[g];
    size_t s = h & p->mask;
    for (;;) {
      if (p->slots[s] == 0) {
        JoinPartition::Entry e;
        e.hash = h;
        e.rep = g;
        e.head = e.tail = static_cast<int32_t>(j);
        p->entries.push_back(e);
        p->slots[s] = static_cast<uint32_t>(p->entries.size());
        break;
      }
      JoinPartition::Entry& e = p->entries[p->slots[s] - 1];
      if (e.hash == h && JoinKeysEqual(mode, build, e.rep, build, g)) {
        p->next[e.tail] = static_cast<int32_t>(j);
        e.tail = static_cast<int32_t>(j);
        break;
      }
      s = (s + 1) & p->mask;
    }
  }
}

}  // namespace

StatusOr<QueryResult> Executor::ExecuteJoin(const SelectQuery& q,
                                            const Table& left,
                                            const Table& right) const {
  const SelectItem* agg = q.AggregateItem();
  if (!agg) return Status::Unimplemented("join queries must aggregate");
  if (q.group_by.size() > 1) {
    return Status::Unimplemented("GROUP BY supports a single column");
  }
  const Schema joined = JoinedSchema(left, right);

  // Appendix-B fast path: when the engine vouches for the rewritten WHERE
  // (join_skip_dummy_rows), recognize its per-side `isDummy = 0` conjuncts,
  // hoist them into key-extraction row filters and evaluate only the user
  // remainder per pair. Unrecognized trees keep the full WHERE.
  const Expr* where = q.where.get();
  JoinDummyFilter lfilter, rfilter;
  if (options_.join_skip_dummy_rows) {
    const std::string lcol = left.name + "." + Schema::kDummyColumn;
    const std::string rcol = right.name + "." + Schema::kDummyColumn;
    const Expr* user = nullptr;
    if (SplitDummyConjuncts(where, lcol, rcol, &user)) {
      where = user;
      lfilter.active = rfilter.active = true;
      if (auto idx = ResolveColumnName(left.schema, lcol)) {
        lfilter.resolved = true;
        lfilter.col = *idx;
      }
      if (auto idx = ResolveColumnName(right.schema, rcol)) {
        rfilter.resolved = true;
        rfilter.col = *idx;
      }
    }
  }

  const auto lspans = left.Spans();
  const auto rspans = right.Spans();
  const size_t n1 = left.TotalRows();
  const size_t n2 = right.TotalRows();

  // Key extraction (phase 1). Typed modes require both declared types to
  // agree and every non-empty span to carry the typed projection; anything
  // else — poisoned columns, unresolved keys, mixed declarations — takes
  // the scalar Value path, whose cell access and NULL handling mirror
  // ColumnExpr::Eval exactly.
  const auto lkey_idx = ResolveColumnName(left.schema, q.join->left_column);
  const auto rkey_idx = ResolveColumnName(right.schema, q.join->right_column);
  JoinKeyMode mode = JoinKeyMode::kValue;
  if (lkey_idx && rkey_idx) {
    const ValueType lt = left.schema.fields()[*lkey_idx].type;
    const ValueType rt = right.schema.fields()[*rkey_idx].type;
    if (lt == rt && (lt == ValueType::kInt || lt == ValueType::kString) &&
        SpansTyped(lspans, left.schema.size(), *lkey_idx, lt) &&
        SpansTyped(rspans, right.schema.size(), *rkey_idx, rt)) {
      mode = lt == ValueType::kInt ? JoinKeyMode::kInt : JoinKeyMode::kString;
    }
  }
  JoinSide L, R;
  ExtractJoinSide(lspans, n1, lkey_idx, mode, lfilter, &L);
  ExtractJoinSide(rspans, n2, rkey_idx, mode, rfilter, &R);

  // Build (phase 2): scatter by the hash's top bits, then build each
  // partition's table on the pool. Partition contents are a pure function
  // of the keys, so the partition count and build parallelism can never
  // affect an answer — only the probe's chunk-order merge matters, and
  // that is fixed below.
  const size_t num_partitions =
      n2 >= kParallelScanThreshold ? kJoinBuildPartitions : 1;
  std::vector<JoinPartition> partitions(num_partitions);
  for (size_t g = 0; g < n2; ++g) {
    if (!R.valid[g]) continue;
    const size_t p =
        num_partitions == 1 ? 0 : (R.hash[g] >> kJoinPartitionShift);
    partitions[p].rows.push_back(static_cast<uint32_t>(g));
  }
  RunJoinChunks(num_partitions, SharedPool()->num_threads(),
                [&](size_t, size_t begin, size_t end) {
                  for (size_t p = begin; p < end; ++p) {
                    BuildJoinPartition(mode, R, &partitions[p]);
                  }
                });

  // Probe plumbing shared by the scalar and grouped paths.
  const bool needs_value = agg->agg != AggFunc::kCount || !agg->column.empty();
  std::optional<size_t> agg_idx;
  if (needs_value) agg_idx = ResolveColumnName(joined, agg->column);
  const bool need_combined = where != nullptr || needs_value;

  // Group key (single column): resolved against the joined schema exactly
  // as ColumnExpr::Eval would — so it must be table-qualified — then
  // mapped to the owning side. An int-typed key with full columnar
  // projections runs on FlatGroupMap; everything else (string/double
  // keys, scalar spans, unresolved names) groups through the ordered map.
  const bool grouped = !q.group_by.empty();
  bool gk_left = false;
  std::optional<size_t> gk_col;
  bool gk_typed_int = false;
  std::vector<int64_t> gk_ints;
  std::vector<uint8_t> gk_nulls;
  if (grouped) {
    if (auto jidx = ResolveColumnName(joined, q.group_by[0])) {
      if (*jidx < left.schema.size()) {
        gk_left = true;
        gk_col = *jidx;
      } else {
        gk_col = *jidx - left.schema.size();
      }
      const Schema& gschema = gk_left ? left.schema : right.schema;
      const auto& gspans = gk_left ? lspans : rspans;
      const size_t gtotal = gk_left ? n1 : n2;
      if (gschema.fields()[*gk_col].type == ValueType::kInt &&
          SpansTyped(gspans, gschema.size(), *gk_col, ValueType::kInt)) {
        gk_typed_int = true;
        gk_ints.resize(gtotal);
        gk_nulls.assign(gtotal, 1);
        const size_t max_chunks =
            gtotal >= kParallelScanThreshold ? SharedPool()->num_threads() : 1;
        RunJoinChunks(gtotal, max_chunks,
                      [&](size_t, size_t begin, size_t end) {
          size_t g = begin;
          ForEachSpanSegment(gspans, begin, end,
                             [&](const RowSpan& span, size_t lo, size_t hi) {
            const ColumnSpan& kc = span.columns[*gk_col];
            for (size_t i = lo; i < hi; ++i, ++g) {
              if (!kc.nulls[i]) {
                gk_nulls[g] = 0;
                gk_ints[g] = kc.ints[i];
              }
            }
          });
        });
      }
    }
  }

  // Probe (phase 3). Enumerates matches in the reference order: probe
  // rows strictly ascending, build rows per key in append order.
  auto probe_range = [&](size_t begin, size_t end, auto&& on_match) {
    for (size_t r = begin; r < end; ++r) {
      if (!L.valid[r]) continue;
      const uint64_t h = L.hash[r];
      const JoinPartition& part =
          partitions[num_partitions == 1 ? 0 : (h >> kJoinPartitionShift)];
      if (part.entries.empty()) continue;
      size_t s = h & part.mask;
      const JoinPartition::Entry* e = nullptr;
      while (part.slots[s] != 0) {
        const JoinPartition::Entry& cand = part.entries[part.slots[s] - 1];
        if (cand.hash == h && JoinKeysEqual(mode, L, r, R, cand.rep)) {
          e = &cand;
          break;
        }
        s = (s + 1) & part.mask;
      }
      if (e == nullptr) continue;
      for (int32_t j = e->head; j != -1; j = part.next[j]) {
        on_match(r, part.rows[j]);
      }
    }
  };
  // Materializes the combined row only when a predicate or the aggregate
  // reads it; pure-COUNT probes never touch row cells at all.
  auto eval_pair = [&](size_t r, uint32_t g, Row& combined, auto&& add) {
    if (need_combined) {
      const Row& lrow = *L.row_ptrs[r];
      const Row& rrow = *R.row_ptrs[g];
      combined.clear();
      combined.reserve(lrow.size() + rrow.size());
      combined.insert(combined.end(), lrow.begin(), lrow.end());
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      if (where != nullptr && !where->Eval(joined, combined).Truthy()) return;
    }
    Value v;
    if (needs_value && agg_idx && *agg_idx < combined.size()) {
      v = combined[*agg_idx];
    }
    add(r, g, std::move(v));
  };

  const size_t probe_chunks =
      n1 >= kParallelScanThreshold ? SharedPool()->num_threads() : 1;

  if (!grouped) {
    std::vector<AggAccumulator> partials(std::max<size_t>(1, probe_chunks),
                                         AggAccumulator(agg->agg));
    RunJoinChunks(n1, probe_chunks,
                  [&](size_t chunk, size_t begin, size_t end) {
                    AggAccumulator& acc = partials[chunk];
                    Row combined;
                    probe_range(begin, end, [&](size_t r, uint32_t g) {
                      eval_pair(r, g, combined,
                                [&](size_t, uint32_t, Value v) {
                                  acc.Add(v);
                                });
                    });
                  });
    AggAccumulator acc(agg->agg);
    for (const auto& partial : partials) acc.Merge(partial);
    return QueryResult::Scalar(acc.Result());
  }

  std::map<Value, AggAccumulator> groups;
  if (gk_typed_int) {
    using GroupMap = FlatGroupMap<AggAccumulator>;
    std::vector<GroupMap> partials(std::max<size_t>(1, probe_chunks),
                                   GroupMap(AggAccumulator(agg->agg)));
    RunJoinChunks(n1, probe_chunks,
                  [&](size_t chunk, size_t begin, size_t end) {
                    GroupMap& local = partials[chunk];
                    Row combined;
                    probe_range(begin, end, [&](size_t r, uint32_t g) {
                      eval_pair(r, g, combined,
                                [&](size_t lr, uint32_t rr, Value v) {
                                  const size_t sg = gk_left ? lr : rr;
                                  AggAccumulator& acc =
                                      gk_nulls[sg] ? local.NullSlot()
                                                   : local.Upsert(gk_ints[sg]);
                                  acc.Add(v);
                                });
                    });
                  });
    // Chunk-order grouped merge — the vectorized scan's discipline: visit
    // order within a chunk is arbitrary but merges only combine
    // accumulators of the SAME group, and chunk order fixes each group's
    // sequence.
    for (const auto& partial : partials) {
      if (partial.has_null()) {
        auto [it, inserted] = groups.try_emplace(Value(), agg->agg);
        (void)inserted;
        it->second.Merge(partial.null_slot());
      }
      partial.ForEach([&](int64_t key, const AggAccumulator& acc) {
        auto [it, inserted] = groups.try_emplace(Value(key), agg->agg);
        (void)inserted;
        it->second.Merge(acc);
      });
    }
  } else {
    std::vector<std::map<Value, AggAccumulator>> partials(
        std::max<size_t>(1, probe_chunks));
    RunJoinChunks(n1, probe_chunks,
                  [&](size_t chunk, size_t begin, size_t end) {
                    auto& local = partials[chunk];
                    Row combined;
                    probe_range(begin, end, [&](size_t r, uint32_t g) {
                      eval_pair(r, g, combined,
                                [&](size_t lr, uint32_t rr, Value v) {
                                  const Row& grow = gk_left
                                                        ? *L.row_ptrs[lr]
                                                        : *R.row_ptrs[rr];
                                  Value key;
                                  if (gk_col && *gk_col < grow.size()) {
                                    key = grow[*gk_col];
                                  }
                                  auto [it, _] =
                                      local.try_emplace(key, agg->agg);
                                  it->second.Add(v);
                                });
                    });
                  });
    for (auto& partial : partials) {
      for (auto& [key, acc] : partial) {
        auto [it, inserted] = groups.try_emplace(key, agg->agg);
        (void)inserted;
        it->second.Merge(acc);
      }
    }
  }
  QueryResult result;
  result.grouped = true;
  for (const auto& [k, acc] : groups) result.groups[k] = acc.Result();
  return result;
}

void ScanPartial::AppendSpan(SpanPartial cell) {
  total.Merge(cell.total);
  for (const auto& [key, acc] : cell.groups) {
    auto [it, inserted] = groups.try_emplace(key, func);
    (void)inserted;
    it->second.Merge(acc);
  }
  spans.push_back(std::move(cell));
}

Status ScanPartial::MergeFrom(const ScanPartial& other) {
  if (other.func != func || other.grouped != grouped) {
    return Status::InvalidArgument(
        "cannot merge partials of different query shapes");
  }
  // Replay `other` one span cell at a time rather than folding its
  // pre-merged aggregate: FP addition is non-associative, and only the
  // per-span granularity reproduces the single-process span-order fold.
  for (const auto& cell : other.spans) AppendSpan(cell);
  records_scanned += other.records_scanned;
  return Status::Ok();
}

QueryResult ScanPartial::Finalize() const {
  if (!grouped) return QueryResult::Scalar(total.Result());
  QueryResult result;
  result.grouped = true;
  for (const auto& [k, acc] : groups) result.groups[k] = acc.Result();
  return result;
}

ScanRowStep::ScanRowStep(const SelectQuery& q)
    : where_(q.where.get()),
      func_(q.AggregateItem()->agg),
      needs_value_(func_ != AggFunc::kCount ||
                   !q.AggregateItem()->column.empty()),
      grouped_(!q.group_by.empty()),
      agg_col_(q.AggregateItem()->column),
      key_col_(grouped_ ? q.group_by[0] : "") {}

Value ScanRowStep::Fold(const Schema& schema, const Row& row,
                        SpanPartial* cell) const {
  Value v;
  if (where_ != nullptr && !where_->Eval(schema, row).Truthy()) return v;
  if (needs_value_) v = agg_col_.Eval(schema, row);
  if (!grouped_) {
    cell->total.Add(v);
    return v;
  }
  auto [it, inserted] =
      cell->groups.try_emplace(key_col_.Eval(schema, row), func_);
  (void)inserted;
  it->second.Add(v);
  return v;
}

StatusOr<ScanPartial> ExecuteScanPartial(const SelectQuery& q,
                                         const Table& table, bool vectorized) {
  const SelectItem* agg = q.AggregateItem();
  if (!agg) {
    return Status::Unimplemented(
        "projection-only queries are not supported; use an aggregate");
  }
  if (q.join) {
    return Status::Unimplemented("partial execution does not support joins");
  }
  if (q.group_by.size() > 1) {
    return Status::Unimplemented("GROUP BY supports a single column");
  }

  const auto spans = table.Spans();
  const size_t total_rows = table.TotalRows();
  const auto chunks = SpanAlignedScanChunks(spans);
  std::optional<ColumnarScan> columnar;
  if (vectorized) columnar = PlanColumnarScan(q, *agg, table.schema, spans);
  const ScanRowStep step(q);

  // One partial per chunk of the canonical decomposition. Expression
  // evaluation and the columnar folds are pure reads of the spans' captured
  // bounds, which is what makes both loops safe on pool threads — and over
  // an epoch snapshot while the owner keeps appending.
  std::vector<SpanPartial> partials(chunks.size(),
                                    SpanPartial{AggAccumulator(agg->agg), {}});
  RunScanChunks(chunks.size(), total_rows, [&](size_t idx) {
    const ScanChunk& c = chunks[idx];
    const RowSpan& span = spans[c.span];
    if (columnar) {
      FoldColumnarChunk(*columnar, span, c.begin, c.end, &partials[idx]);
      return;
    }
    for (size_t r = c.begin; r < c.end; ++r) {
      step.Fold(table.schema, span.data[r], &partials[idx]);
    }
  });

  // The per-span cells, built here for both loops: chunk partials fold
  // left into a fresh cell in chunk order (per group for grouped scans),
  // and cells fold left in span order (AppendSpan).
  ScanPartial out;
  out.func = agg->agg;
  out.grouped = !q.group_by.empty();
  out.total = AggAccumulator(agg->agg);
  out.records_scanned = static_cast<int64_t>(total_rows);
  for (size_t i = 0; i < chunks.size();) {
    SpanPartial cell{AggAccumulator(agg->agg), {}};
    const size_t span = chunks[i].span;
    for (; i < chunks.size() && chunks[i].span == span; ++i) {
      cell.total.Merge(partials[i].total);
      for (const auto& [key, acc] : partials[i].groups) {
        auto [it, inserted] = cell.groups.try_emplace(key, agg->agg);
        (void)inserted;
        it->second.Merge(acc);
      }
    }
    out.AppendSpan(std::move(cell));
  }
  return out;
}

}  // namespace dpsync::query
