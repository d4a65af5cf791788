#include "query/plan.h"

#include "query/rewriter.h"

namespace dpsync::query {

std::string CanonicalText(const SelectQuery& q) { return q.ToString(); }

uint64_t FingerprintText(const std::string& text) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

uint64_t FingerprintSelect(const SelectQuery& q) {
  return FingerprintText(CanonicalText(q));
}

SelectQuery NormalizeSelect(const SelectQuery& q) {
  return q;  // deep copy via SelectQuery's cloning copy-assignment
}

const char* PlanKindName(PlanKind kind) {
  return kind == PlanKind::kJoin ? "join" : "scan";
}

const char* AccessPathName(AccessPath path) {
  return path == AccessPath::kOramIndexed ? "oram-indexed" : "linear-scan";
}

namespace {

/// Whether `name` dereferences a column of `schema`, with the same
/// qualified-name fallback ColumnExpr::Eval applies ("T.col" matches a
/// bare "col").
bool ResolvesIn(const Schema& schema, const std::string& name) {
  if (schema.FindIndex(name)) return true;
  auto dot = name.rfind('.');
  if (dot == std::string::npos) return false;
  return schema.FindIndex(name.substr(dot + 1)).has_value();
}

/// Whether `name` binds in the schema of `left_table JOIN right_table` —
/// whose fields are all table-qualified ("T.col"), so only an exact
/// qualified match resolves (ColumnExpr::Eval's bare-name fallback strips
/// to an unqualified name, which no joined field carries).
bool ResolvesInJoined(const std::string& left_table, const Schema& left,
                      const std::string& right_table, const Schema& right,
                      const std::string& name) {
  for (const auto& f : left.fields()) {
    if (left_table + "." + f.name == name) return true;
  }
  for (const auto& f : right.fields()) {
    if (right_table + "." + f.name == name) return true;
  }
  return false;
}

}  // namespace

StatusOr<std::shared_ptr<const QueryPlan>> PlanSelect(
    const SelectQuery& q, const SchemaLookup& lookup,
    const PlannerOptions& opts) {
  auto plan = std::make_shared<QueryPlan>();
  plan->normalized = NormalizeSelect(q);
  plan->canonical_text = CanonicalText(plan->normalized);
  plan->fingerprint = FingerprintText(plan->canonical_text);
  plan->catalog_epoch = opts.catalog_epoch;

  // Capability check before table resolution, matching the legacy engines'
  // error ordering.
  if (q.join && !opts.supports_join) {
    return Status::Unimplemented(opts.engine_name +
                                 " does not support join operators");
  }

  const Schema* schema = lookup(q.table);
  if (!schema) return Status::NotFound("unknown table: " + q.table);
  plan->table = q.table;
  const Schema* join_schema = nullptr;
  if (q.join) {
    join_schema = lookup(q.join->table);
    if (!join_schema) {
      return Status::NotFound("unknown table: " + q.join->table);
    }
    plan->join_table = q.join->table;
    plan->kind = PlanKind::kJoin;
  }

  // Shape validation, with the executor's exact messages so the one-shot
  // Query() shim reports what the legacy path reported — just earlier.
  const SelectItem* agg = q.AggregateItem();
  if (q.join) {
    if (!agg) return Status::Unimplemented("join queries must aggregate");
  } else if (!agg) {
    return Status::Unimplemented(
        "projection-only queries are not supported; use an aggregate");
  }
  if (q.group_by.size() > 1) {
    return Status::Unimplemented("GROUP BY supports a single column");
  }
  plan->aggregate = *agg;
  plan->grouped = !q.group_by.empty();

  // Strict binding of the names the executor dereferences. A join's group
  // key evaluates against the joined (table-qualified) schema.
  if (!q.group_by.empty()) {
    const bool bound =
        q.join ? ResolvesInJoined(q.table, *schema, q.join->table,
                                  *join_schema, q.group_by[0])
               : ResolvesIn(*schema, q.group_by[0]);
    if (!bound) {
      return Status::InvalidArgument("unknown GROUP BY column: " +
                                     q.group_by[0]);
    }
  }
  if (!agg->column.empty()) {
    bool bound = ResolvesIn(*schema, agg->column) ||
                 (join_schema && ResolvesIn(*join_schema, agg->column));
    if (!bound) {
      return Status::InvalidArgument("unknown aggregate column: " +
                                     agg->column);
    }
  }
  if (q.join) {
    // Join keys may name either side (qualified or bare); require each to
    // bind somewhere so the hash/nested-loop key is never silently NULL.
    for (const std::string* key : {&q.join->left_column,
                                   &q.join->right_column}) {
      if (!ResolvesIn(*schema, *key) && !ResolvesIn(*join_schema, *key)) {
        return Status::InvalidArgument("unknown join key: " + *key);
      }
    }
  }

  plan->rewritten = RewriteForDummies(plan->normalized);
  plan->access_path =
      opts.oram_indexed ? AccessPath::kOramIndexed : AccessPath::kLinearScan;
  return std::shared_ptr<const QueryPlan>(std::move(plan));
}

}  // namespace dpsync::query
