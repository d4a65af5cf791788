/// \file schema.h
/// Relational schemas and row serialization. Every DP-Sync-compatible
/// schema carries an `isDummy` attribute (Appendix B) inside the encrypted
/// payload; the query rewriter uses it to make dummy records invisible to
/// query answers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "query/value.h"

namespace dpsync::query {

/// A named, typed column.
struct Field {
  std::string name;
  ValueType type = ValueType::kInt;
};

/// An ordered list of fields with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  const std::vector<Field>& fields() const { return fields_; }
  size_t size() const { return fields_.size(); }

  /// Index of the column named `name`, or nullopt.
  std::optional<size_t> FindIndex(const std::string& name) const;

  /// True if the schema has an isDummy column (required for rewriting).
  bool HasDummyFlag() const { return FindIndex(kDummyColumn).has_value(); }

  /// Canonical name of the dummy-flag attribute.
  static constexpr const char* kDummyColumn = "isDummy";

 private:
  std::vector<Field> fields_;
};

/// A tuple matching some schema.
using Row = std::vector<Value>;

/// Serializes a row to bytes (int/double: 8 bytes LE; string: u16 length +
/// bytes; null: type tag only). The schema is NOT embedded — both sides
/// agree on it out of band, as in any encrypted database deployment.
Bytes SerializeRow(const Row& row);

/// Parses a row produced by SerializeRow. Fails on truncated input.
StatusOr<Row> DeserializeRow(const Bytes& bytes);

}  // namespace dpsync::query
