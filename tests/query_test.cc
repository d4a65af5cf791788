// Tests for the relational layer: values, schemas, row serialization, the
// SQL parser, the reference executor, and dummy-aware query rewriting.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/ast.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "query/result.h"
#include "query/rewriter.h"
#include "query/schema.h"
#include "query/value.h"

namespace dpsync::query {
namespace {

// ---------------------------------------------------------------- Values

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(int64_t{3}).type(), ValueType::kInt);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{3}).Compare(Value(3.5)), 0);
  EXPECT_GT(Value(4.1).Compare(Value(int64_t{4})), 0);
}

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value(std::string("abc")).Compare(Value(std::string("abd"))), 0);
  // Numbers order before strings.
  EXPECT_LT(Value(int64_t{5}).Compare(Value(std::string("5"))), 0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(int64_t{0}).Truthy());
  EXPECT_TRUE(Value(int64_t{1}).Truthy());
  EXPECT_FALSE(Value(std::string("")).Truthy());
  EXPECT_TRUE(Value(0.1).Truthy());
}

TEST(ValueTest, BoolHelper) {
  EXPECT_EQ(Value::Bool(true).AsInt(), 1);
  EXPECT_EQ(Value::Bool(false).AsInt(), 0);
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, FindIndex) {
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kDouble}});
  EXPECT_EQ(s.FindIndex("b").value(), 1u);
  EXPECT_FALSE(s.FindIndex("c").has_value());
}

TEST(SchemaTest, DummyFlagDetection) {
  Schema with({{"x", ValueType::kInt}, {"isDummy", ValueType::kInt}});
  Schema without({{"x", ValueType::kInt}});
  EXPECT_TRUE(with.HasDummyFlag());
  EXPECT_FALSE(without.HasDummyFlag());
}

TEST(RowSerializationTest, RoundTripAllTypes) {
  Row row{Value(int64_t{-42}), Value(3.25), Value(std::string("hello")),
          Value()};
  auto back = DeserializeRow(SerializeRow(row));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 4u);
  EXPECT_EQ((*back)[0].AsInt(), -42);
  EXPECT_DOUBLE_EQ((*back)[1].AsDouble(), 3.25);
  EXPECT_EQ((*back)[2].AsString(), "hello");
  EXPECT_TRUE((*back)[3].is_null());
}

TEST(RowSerializationTest, TruncatedInputRejected) {
  Row row{Value(int64_t{1})};
  Bytes bytes = SerializeRow(row);
  bytes.resize(bytes.size() - 2);
  EXPECT_FALSE(DeserializeRow(bytes).ok());
}

TEST(RowSerializationTest, EmptyBytesRejected) {
  EXPECT_FALSE(DeserializeRow({}).ok());
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, PaperQ1) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->table, "YellowCab");
  ASSERT_EQ(q->items.size(), 1u);
  EXPECT_EQ(q->items[0].agg, AggFunc::kCount);
  ASSERT_NE(q->where, nullptr);
  EXPECT_FALSE(q->join.has_value());
}

TEST(ParserTest, PaperQ2) {
  auto q = ParseSelect(
      "SELECT pickupID, COUNT(*) AS PickupCnt FROM YellowCab GROUP BY "
      "pickupID");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->items.size(), 2u);
  EXPECT_EQ(q->items[0].agg, AggFunc::kNone);
  EXPECT_EQ(q->items[1].agg, AggFunc::kCount);
  EXPECT_EQ(q->items[1].alias, "PickupCnt");
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0], "pickupID");
}

TEST(ParserTest, PaperQ3) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM YellowCab INNER JOIN GreenTaxi ON "
      "YellowCab.pickTime = GreenTaxi.pickTime");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q->join.has_value());
  EXPECT_EQ(q->join->table, "GreenTaxi");
  EXPECT_EQ(q->join->left_column, "YellowCab.pickTime");
  EXPECT_EQ(q->join->right_column, "GreenTaxi.pickTime");
}

TEST(ParserTest, SumAvgMinMax) {
  for (const char* f : {"SUM", "AVG", "MIN", "MAX"}) {
    auto q = ParseSelect(std::string("SELECT ") + f + "(fare) FROM T");
    ASSERT_TRUE(q.ok()) << f;
    EXPECT_EQ(q->items[0].column, "fare");
  }
}

TEST(ParserTest, BooleanPredicates) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM T WHERE a >= 3 AND (b < 7 OR NOT c = 1)");
  ASSERT_TRUE(q.ok());
  ASSERT_NE(q->where, nullptr);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(ParseSelect("select count(*) from T where x = 1").ok());
}

TEST(ParserTest, StringLiteral) {
  auto q = ParseSelect("SELECT COUNT(*) FROM T WHERE name = 'bob'");
  ASSERT_TRUE(q.ok());
}

TEST(ParserTest, StringLiteralWithEscapedQuote) {
  // '' inside a string literal is an escaped single quote, and ToString
  // renders it back the same way (injective canonical text).
  auto e = ParseExpression("name = 'it''s'");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "name = 'it''s'");
  Schema s({{"name", ValueType::kString}});
  EXPECT_TRUE((*e)->Eval(s, {Value(std::string("it's"))}).Truthy());
  EXPECT_FALSE((*e)->Eval(s, {Value(std::string("its"))}).Truthy());
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseSelect("FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(* FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM T WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM T GROUP").ok());
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM T").ok());
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) FROM T trailing junk").ok());
}

TEST(ParserTest, ToStringRoundTrips) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM YellowCab WHERE pickupID BETWEEN 50 AND 100");
  ASSERT_TRUE(q.ok());
  auto again = ParseSelect(q->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), q->ToString());
}

TEST(ParserTest, ExpressionEntryPoint) {
  auto e = ParseExpression("x BETWEEN 1 AND 5");
  ASSERT_TRUE(e.ok());
  Schema s({{"x", ValueType::kInt}});
  EXPECT_TRUE((*e)->Eval(s, {Value(int64_t{3})}).Truthy());
  EXPECT_FALSE((*e)->Eval(s, {Value(int64_t{9})}).Truthy());
}

// -------------------------------------------------------------- Executor

Table MakeTestTable() {
  Table t;
  t.name = "T";
  t.schema = Schema({{"id", ValueType::kInt},
                     {"zone", ValueType::kInt},
                     {"fare", ValueType::kDouble},
                     {"isDummy", ValueType::kInt}});
  auto add = [&](int64_t id, int64_t zone, double fare, bool dummy) {
    t.rows.push_back({Value(id), Value(zone), Value(fare), Value::Bool(dummy)});
  };
  add(1, 10, 5.0, false);
  add(2, 10, 7.0, false);
  add(3, 20, 9.0, false);
  add(4, 30, 11.0, false);
  add(5, 20, 1.0, true);  // dummy
  return t;
}

TEST(ExecutorTest, CountStar) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto q = ParseSelect("SELECT COUNT(*) FROM T");
  auto r = ex.Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 5.0);  // no rewrite: dummies counted
}

TEST(ExecutorTest, WhereFilters) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto q = ParseSelect("SELECT COUNT(*) FROM T WHERE zone BETWEEN 10 AND 20");
  auto r = ex.Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 4.0);
}

TEST(ExecutorTest, SumAvgMinMax) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  EXPECT_DOUBLE_EQ(
      ex.Execute(ParseSelect("SELECT SUM(fare) FROM T").value())->scalar, 33.0);
  EXPECT_DOUBLE_EQ(
      ex.Execute(ParseSelect("SELECT AVG(fare) FROM T").value())->scalar, 6.6);
  EXPECT_DOUBLE_EQ(
      ex.Execute(ParseSelect("SELECT MIN(fare) FROM T").value())->scalar, 1.0);
  EXPECT_DOUBLE_EQ(
      ex.Execute(ParseSelect("SELECT MAX(fare) FROM T").value())->scalar, 11.0);
}

TEST(ExecutorTest, GroupByCounts) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto r = ex.Execute(
      ParseSelect("SELECT zone, COUNT(*) FROM T GROUP BY zone").value());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->grouped);
  EXPECT_DOUBLE_EQ(r->groups.at(Value(int64_t{10})), 2.0);
  EXPECT_DOUBLE_EQ(r->groups.at(Value(int64_t{20})), 2.0);
  EXPECT_DOUBLE_EQ(r->groups.at(Value(int64_t{30})), 1.0);
}

TEST(ExecutorTest, UnknownTableIsNotFound) {
  Catalog c;
  Executor ex(&c);
  EXPECT_EQ(ex.Execute(ParseSelect("SELECT COUNT(*) FROM X").value())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(ExecutorTest, ProjectionOnlyUnimplemented) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  EXPECT_EQ(
      ex.Execute(ParseSelect("SELECT zone FROM T").value()).status().code(),
      StatusCode::kUnimplemented);
}

TEST(ExecutorTest, HashJoinCountsMatches) {
  Table a;
  a.name = "A";
  a.schema = Schema({{"k", ValueType::kInt}, {"isDummy", ValueType::kInt}});
  Table b;
  b.name = "B";
  b.schema = Schema({{"k", ValueType::kInt}, {"isDummy", ValueType::kInt}});
  for (int64_t i = 0; i < 6; ++i) {
    a.rows.push_back({Value(i), Value::Bool(false)});
  }
  for (int64_t i = 3; i < 9; ++i) {
    b.rows.push_back({Value(i), Value::Bool(false)});
  }
  Catalog c;
  c.AddTable(&a);
  c.AddTable(&b);
  Executor ex(&c);
  auto q = ParseSelect("SELECT COUNT(*) FROM A INNER JOIN B ON A.k = B.k");
  auto r = ex.Execute(q.value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 3.0);  // keys 3,4,5
}

TEST(ExecutorTest, JoinDuplicateKeysMultiply) {
  Table a;
  a.name = "A";
  a.schema = Schema({{"k", ValueType::kInt}});
  Table b;
  b.name = "B";
  b.schema = Schema({{"k", ValueType::kInt}});
  a.rows = {{Value(int64_t{1})}, {Value(int64_t{1})}};
  b.rows = {{Value(int64_t{1})}, {Value(int64_t{1})}, {Value(int64_t{1})}};
  Catalog c;
  c.AddTable(&a);
  c.AddTable(&b);
  Executor ex(&c);
  auto r = ex.Execute(
      ParseSelect("SELECT COUNT(*) FROM A INNER JOIN B ON A.k = B.k").value());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 6.0);
}

// --------------------------------------------------------------- Results

TEST(QueryResultTest, ScalarL1) {
  EXPECT_DOUBLE_EQ(QueryResult::Scalar(10).L1DistanceTo(QueryResult::Scalar(7)),
                   3.0);
}

TEST(QueryResultTest, GroupedL1UnionOfKeys) {
  QueryResult a, b;
  a.grouped = b.grouped = true;
  a.groups[Value(int64_t{1})] = 5;
  a.groups[Value(int64_t{2})] = 3;
  b.groups[Value(int64_t{2})] = 1;
  b.groups[Value(int64_t{3})] = 4;
  // |5-0| + |3-1| + |0-4| = 11
  EXPECT_DOUBLE_EQ(a.L1DistanceTo(b), 11.0);
  EXPECT_DOUBLE_EQ(b.L1DistanceTo(a), 11.0);
}

TEST(QueryResultTest, EmptyGroupsZeroDistance) {
  QueryResult a, b;
  a.grouped = b.grouped = true;
  EXPECT_DOUBLE_EQ(a.L1DistanceTo(b), 0.0);
}

// -------------------------------------------------------------- Rewriter

TEST(RewriterTest, ScanGainsDummyFilter) {
  auto q = ParseSelect("SELECT COUNT(*) FROM T");
  auto rewritten = RewriteForDummies(q.value());
  ASSERT_NE(rewritten.where, nullptr);
  EXPECT_NE(rewritten.where->ToString().find("isDummy"), std::string::npos);
}

TEST(RewriterTest, ExistingWhereIsPreserved) {
  auto q = ParseSelect("SELECT COUNT(*) FROM T WHERE zone = 10");
  auto rewritten = RewriteForDummies(q.value());
  std::string s = rewritten.where->ToString();
  EXPECT_NE(s.find("zone"), std::string::npos);
  EXPECT_NE(s.find("isDummy"), std::string::npos);
}

TEST(RewriterTest, JoinFiltersBothSides) {
  auto q = ParseSelect(
      "SELECT COUNT(*) FROM A INNER JOIN B ON A.k = B.k");
  auto rewritten = RewriteForDummies(q.value());
  std::string s = rewritten.where->ToString();
  EXPECT_NE(s.find("A.isDummy"), std::string::npos);
  EXPECT_NE(s.find("B.isDummy"), std::string::npos);
}

TEST(RewriterTest, RewrittenQueryIgnoresDummies) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto q = ParseSelect("SELECT COUNT(*) FROM T");
  auto r = ex.Execute(RewriteForDummies(q.value()));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 4.0);  // dummy row excluded
}

TEST(RewriterTest, RewrittenGroupByDropsDummyGroupContributions) {
  Table t = MakeTestTable();
  Catalog c;
  c.AddTable(&t);
  Executor ex(&c);
  auto q = ParseSelect("SELECT zone, COUNT(*) FROM T GROUP BY zone");
  auto r = ex.Execute(RewriteForDummies(q.value()));
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->groups.at(Value(int64_t{20})), 1.0);  // dummy excluded
}

TEST(RewriterTest, OriginalQueryUntouched) {
  auto q = ParseSelect("SELECT COUNT(*) FROM T");
  auto copy = RewriteForDummies(q.value());
  EXPECT_EQ(q->where, nullptr);
  (void)copy;
}

// --------------------------------------------------- Plans & fingerprints

TEST(PlanTest, EquivalentSpellingsShareAFingerprint) {
  // Keyword case, redundant parens, whitespace and `<>` vs `!=` all
  // normalize away; a different constant does not.
  auto a = ParseSelect(
      "SELECT COUNT(*) FROM T WHERE a >= 3 AND (b < 7 OR NOT c = 1)");
  auto b = ParseSelect(
      "select   count(*) from T where ((a >= 3)) and (b < 7 or not (c = 1))");
  auto c = ParseSelect(
      "SELECT COUNT(*) FROM T WHERE a >= 4 AND (b < 7 OR NOT c = 1)");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(FingerprintText(CanonicalText(a.value())),
            FingerprintText(CanonicalText(b.value())));
  EXPECT_NE(FingerprintText(CanonicalText(a.value())),
            FingerprintText(CanonicalText(c.value())));
  auto ne1 = ParseSelect("SELECT COUNT(*) FROM T WHERE a != 1");
  auto ne2 = ParseSelect("SELECT COUNT(*) FROM T WHERE a <> 1");
  EXPECT_EQ(FingerprintText(CanonicalText(ne1.value())),
            FingerprintText(CanonicalText(ne2.value())));
}

Schema PlanTestSchema() {
  return Schema({{"a", ValueType::kInt},
                 {"b", ValueType::kInt},
                 {"fare", ValueType::kDouble},
                 {"isDummy", ValueType::kInt}});
}

StatusOr<std::shared_ptr<const QueryPlan>> PlanOn(const std::string& sql,
                                                  PlannerOptions opts = {}) {
  auto q = ParseSelect(sql);
  if (!q.ok()) return q.status();
  static Schema schema = PlanTestSchema();
  return PlanSelect(
      q.value(),
      [](const std::string& name) -> const Schema* {
        return (name == "T" || name == "G") ? &schema : nullptr;
      },
      opts);
}

TEST(PlanTest, BindsTablesAndRewritesDummies) {
  auto plan = PlanOn("SELECT COUNT(*) FROM T WHERE a BETWEEN 1 AND 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, PlanKind::kScan);
  EXPECT_EQ((*plan)->table, "T");
  EXPECT_NE((*plan)->rewritten.where, nullptr);
  EXPECT_NE((*plan)->rewritten.where->ToString().find("isDummy"),
            std::string::npos);
  // The normalized half stays the analyst's query, un-rewritten.
  EXPECT_EQ((*plan)->canonical_text.find("isDummy"), std::string::npos);
}

TEST(PlanTest, UnknownTableAndStrictBindingFailAtPlanTime) {
  EXPECT_EQ(PlanOn("SELECT COUNT(*) FROM Nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(PlanOn("SELECT a, COUNT(*) FROM T GROUP BY typo")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanOn("SELECT SUM(typo) FROM T").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      PlanOn("SELECT COUNT(*) FROM T INNER JOIN G ON T.typo = G.a")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanOn("SELECT a FROM T").status().code(),
            StatusCode::kUnimplemented);
}

TEST(PlanTest, JoinCapabilityGate) {
  PlannerOptions no_join;
  no_join.supports_join = false;
  no_join.engine_name = "Crypt-eps";
  auto plan =
      PlanOn("SELECT COUNT(*) FROM T INNER JOIN G ON T.a = G.a", no_join);
  EXPECT_EQ(plan.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(plan.status().message(),
            "Crypt-eps does not support join operators");
  auto ok = PlanOn("SELECT COUNT(*) FROM T INNER JOIN G ON T.a = G.a");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->kind, PlanKind::kJoin);
  EXPECT_EQ((*ok)->join_table, "G");
}

// ------------------------------------- Fingerprint round-trip (property)

/// Tiny deterministic generator of parser-shaped ASTs. Literals are
/// restricted to values whose textual form round-trips (ints, halves,
/// simple strings); every structural shape the parser accepts is covered.
class QueryGenerator {
 public:
  explicit QueryGenerator(uint64_t seed) : rng_(seed) {}

  SelectQuery Gen() {
    SelectQuery q;
    q.table = "T";
    bool join = Chance(4);
    if (join) {
      JoinClause j;
      j.table = "G";
      j.left_column = "T." + Column();
      j.right_column = "G." + Column();
      q.join = j;
    }
    // Optional plain columns ahead of the single aggregate.
    if (!join && Chance(3)) {
      q.items.push_back({AggFunc::kNone, Column(), MaybeAlias()});
    }
    SelectItem agg;
    agg.agg = Pick<AggFunc>({AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                             AggFunc::kMin, AggFunc::kMax});
    agg.column = (agg.agg == AggFunc::kCount && Chance(2)) ? "" : Column();
    agg.alias = MaybeAlias();
    q.items.push_back(agg);
    if (Chance(2)) q.where = GenPredicate(2);
    if (!join && Chance(3)) {
      q.group_by.push_back(Column());
      if (Chance(4)) q.group_by.push_back("T." + Column());
    }
    return q;
  }

 private:
  bool Chance(int one_in) { return rng_.UniformInt(0, one_in - 1) == 0; }

  template <typename T>
  T Pick(std::initializer_list<T> options) {
    auto it = options.begin();
    std::advance(it, rng_.UniformInt(
                         0, static_cast<int64_t>(options.size()) - 1));
    return *it;
  }

  std::string Column() {
    return Pick<std::string>({"a", "b", "fare", "zone", "pickTime"});
  }

  std::string MaybeAlias() {
    return Chance(3) ? Pick<std::string>({"x1", "total", "cnt"}) : "";
  }

  ExprPtr Operand() {
    switch (rng_.UniformInt(0, 3)) {
      case 0:
        return std::make_unique<ColumnExpr>(Column());
      case 1:
        return std::make_unique<ColumnExpr>("T." + Column());
      case 2:
        return std::make_unique<LiteralExpr>(
            Value(rng_.UniformInt(-100, 100)));
      default:
        if (Chance(3)) {
          return std::make_unique<LiteralExpr>(Value(
              Pick<std::string>({"bob", "zone4", "", "it's", "''", "a'b'c"})));
        }
        // Halves print and re-parse exactly ("12.5").
        return std::make_unique<LiteralExpr>(
            Value(static_cast<double>(rng_.UniformInt(-40, 40)) + 0.5));
    }
  }

  ExprPtr GenLeaf() {
    if (Chance(4)) {
      return std::make_unique<BetweenExpr>(Operand(), Operand(), Operand());
    }
    auto op = Pick<CmpOp>({CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                           CmpOp::kGt, CmpOp::kGe});
    return std::make_unique<CompareExpr>(op, Operand(), Operand());
  }

  ExprPtr GenPredicate(int depth) {
    if (depth == 0 || Chance(3)) return GenLeaf();
    switch (rng_.UniformInt(0, 2)) {
      case 0:
        return std::make_unique<LogicalExpr>(LogicalExpr::Op::kAnd,
                                             GenPredicate(depth - 1),
                                             GenPredicate(depth - 1));
      case 1:
        return std::make_unique<LogicalExpr>(LogicalExpr::Op::kOr,
                                             GenPredicate(depth - 1),
                                             GenPredicate(depth - 1));
      default:
        return std::make_unique<NotExpr>(GenPredicate(depth - 1));
    }
  }

  Rng rng_;
};

TEST(PlanTest, FingerprintRoundTripsThroughParserForEveryAstShape) {
  // Property: for any AST the parser accepts, re-parsing its own text
  // yields the same normalized fingerprint — the plan-cache key is stable
  // across the print/parse round trip (and the round trip itself is a
  // fixed point: text(parse(text(q))) == text(q)).
  QueryGenerator gen(20260729);
  for (int i = 0; i < 500; ++i) {
    SelectQuery q = gen.Gen();
    const std::string text = CanonicalText(q);
    auto reparsed = ParseSelect(text);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i << ": " << reparsed.status().ToString()
        << "\n  text: " << text;
    EXPECT_EQ(FingerprintText(CanonicalText(reparsed.value())),
              FingerprintText(text))
        << "iteration " << i << "\n  text:     " << text
        << "\n  reparsed: " << CanonicalText(reparsed.value());
    EXPECT_EQ(CanonicalText(reparsed.value()), text) << "iteration " << i;
  }
}

}  // namespace
}  // namespace dpsync::query
