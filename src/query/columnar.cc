#include "query/columnar.h"

namespace dpsync::query {

ColumnarBlock::ColumnarBlock(const Schema& schema, size_t capacity)
    : capacity_(capacity) {
  cols_.resize(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    Column& col = cols_[i];
    col.type = schema.fields()[i].type;
    switch (col.type) {
      case ValueType::kInt:
        col.ints.reserve(capacity);
        break;
      case ValueType::kDouble:
        col.doubles.reserve(capacity);
        break;
      case ValueType::kString:
        col.strings.reserve(capacity);
        break;
      case ValueType::kNull:
        // A schema cannot usefully declare a NULL-typed column; keep it
        // permanently untyped rather than guessing a storage class.
        col.poisoned = true;
        break;
    }
    if (!col.poisoned) col.nulls.reserve(capacity);
  }
}

void ColumnarBlock::Append(const Row& row) {
  if (rows_ >= capacity_) return;  // owning chunk enforces this bound
  for (size_t i = 0; i < cols_.size(); ++i) {
    Column& col = cols_[i];
    if (col.poisoned) continue;
    const Value* v = i < row.size() ? &row[i] : nullptr;
    const bool is_null = v == nullptr || v->is_null();
    if (!is_null && v->type() != col.type) {
      // Type contradicts the schema: freeze the arrays where they are.
      // Rows already inside any captured bound stay valid (arrays never
      // shrink or move); this and later rows are only reachable through
      // the scan kernel's row loop.
      col.poisoned = true;
      continue;
    }
    switch (col.type) {
      case ValueType::kInt:
        col.ints.push_back(is_null ? 0 : v->AsInt());
        break;
      case ValueType::kDouble:
        col.doubles.push_back(is_null ? 0.0 : v->AsDouble());
        break;
      case ValueType::kString:
        col.strings.push_back(is_null ? std::string() : v->AsString());
        break;
      case ValueType::kNull:
        break;
    }
    col.nulls.push_back(is_null ? 1 : 0);
    ++col.typed_rows;
  }
  ++rows_;
}

std::vector<ColumnSpan> ColumnarBlock::CaptureSpans(size_t take) const {
  std::vector<ColumnSpan> spans(cols_.size());
  for (size_t i = 0; i < cols_.size(); ++i) {
    const Column& col = cols_[i];
    // The capture is typed only when the column's typed prefix covers it;
    // a poisoning after `take` rows does not matter for this capture.
    if (col.typed_rows < take || col.type == ValueType::kNull) continue;
    ColumnSpan& span = spans[i];
    span.type = col.type;
    span.nulls = col.nulls.data();
    switch (col.type) {
      case ValueType::kInt:
        span.ints = col.ints.data();
        break;
      case ValueType::kDouble:
        span.doubles = col.doubles.data();
        break;
      case ValueType::kString:
        span.strings = col.strings.data();
        break;
      case ValueType::kNull:
        break;
    }
  }
  return spans;
}

}  // namespace dpsync::query
