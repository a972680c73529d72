// Tier-1 smoke run of the differential fuzzing harness: 50 fixed seeds with
// every oracle enabled must produce zero violations, deterministically.
#include <gtest/gtest.h>

#include "db/database.h"
#include "harness/differ.h"
#include "harness/fuzz_session.h"
#include "harness/ref_executor.h"
#include "workload/querygen.h"

namespace systemr {
namespace {

std::unordered_map<RelId, std::vector<PageId>> RelPageMap(Database* db) {
  std::unordered_map<RelId, std::vector<PageId>> map;
  const Catalog& catalog = db->catalog();
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const TableInfo* t = catalog.table(static_cast<RelId>(i));
    map[t->id] = db->rss().segment(t->segment)->pages();
  }
  return map;
}

TEST(FuzzSmokeTest, FiftySeedsAllOraclesClean) {
  FuzzOptions options;
  options.queries_per_seed = 4;
  FuzzReport report;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SeedResult result = RunFuzzSeed(seed, options, &report);
    for (const std::string& v : result.violations) {
      ADD_FAILURE() << v;
    }
  }
  EXPECT_EQ(report.seeds, 50u);
  EXPECT_EQ(report.queries, 200u);
  EXPECT_FALSE(report.records.empty());
  // Every calibration record carries a finite, non-negative cost estimate
  // (empty-table queries may legitimately estimate zero).
  bool any_positive = false;
  uint64_t total_gets = 0;
  for (const CalibrationRecord& r : report.records) {
    EXPECT_GE(r.est_cost, 0.0) << r.sql;
    any_positive |= r.est_cost > 0.0;
    // Buffer counters: hits are a subset of gets, and every simulated fetch
    // is itself a get (gets = fetches + hits by construction).
    EXPECT_GE(r.buffer_gets, r.buffer_hits) << r.sql;
    total_gets += r.buffer_gets;
  }
  EXPECT_TRUE(any_positive);
  EXPECT_GT(total_gets, 0u);
}

// Directed differential coverage for the rebindable-operator executor paths:
// multi-way joins (cached inner subtrees re-bound per outer row) and
// correlated subqueries (operator tree built once, Rebind() per evaluation),
// checked multiset-identical against the reference executor over 50 seeds.
TEST(FuzzSmokeTest, CorrelatedSubqueriesAndMultiwayJoinsMatchReference) {
  // (family, sql): chain is F0-FK->F1-FK->F2; star is F0 with FK1/FK2/FK3.
  const struct {
    FuzzSchema::Family family;
    const char* sql;
  } kCases[] = {
      {FuzzSchema::Family::kChain,
       "SELECT F0.PK, F1.A, F2.B FROM F0, F1, F2 "
       "WHERE F0.FK = F1.PK AND F1.FK = F2.PK AND F0.A <> F2.D"},
      {FuzzSchema::Family::kStar,
       "SELECT F0.PK, F2.A FROM F0, F1, F2, F3 "
       "WHERE F0.FK1 = F1.PK AND F0.FK2 = F2.PK AND F0.FK3 = F3.PK "
       "AND F1.B <> F3.B"},
      {FuzzSchema::Family::kChain,
       "SELECT F0.PK, F0.A FROM F0 "
       "WHERE F0.B >= (SELECT MAX(F1.A) FROM F1 WHERE F1.PK = F0.FK)"},
      {FuzzSchema::Family::kChain,
       "SELECT F1.PK FROM F1 "
       "WHERE F1.A < (SELECT COUNT(*) FROM F2 WHERE F2.D = F1.D)"},
      {FuzzSchema::Family::kChain,
       "SELECT F0.PK FROM F0, F1 WHERE F0.FK = F1.PK "
       "AND F1.A <= (SELECT MAX(F2.A) FROM F2 WHERE F2.PK = F1.FK)"},
  };
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    for (const auto& c : kCases) {
      FuzzSchema schema = MakeFuzzSchema(c.family, seed);
      Database db(64);
      ASSERT_TRUE(BuildFuzzSchema(&db, schema, seed, true).ok());
      RefExecutor ref(&db.rss().store(), RelPageMap(&db));

      auto prepared = db.Prepare(c.sql);
      ASSERT_TRUE(prepared.ok()) << c.sql;
      auto ref_rows = ref.Execute(*prepared->block);
      ASSERT_TRUE(ref_rows.ok()) << c.sql;
      auto result = db.Run(*prepared);
      ASSERT_TRUE(result.ok())
          << c.sql << "\n" << result.status().ToString();
      EXPECT_TRUE(SameRowMultiset(*ref_rows, result->rows))
          << "seed=" << seed << " sql=[" << c.sql << "] "
          << DiffSummary(*ref_rows, result->rows);
    }
  }
}

// Expressions over aggregate results — IN-list, IS [NOT] NULL, [NOT] LIKE,
// BETWEEN and NOT in HAVING, arithmetic in HAVING and SELECT — checked
// multiset-identical against the reference executor. Each query runs through
// the sorted-group operator, the hash-group operator and a forced parallel
// partial aggregation. Group A=0 has only NULL B values, so SUM(B) IS NULL
// holds there; group A=k has k+1 rows.
TEST(FuzzSmokeTest, ExpressionsOverAggregatesMatchReference) {
  const char* kQueries[] = {
      "SELECT A, COUNT(*) FROM T GROUP BY A HAVING COUNT(*) IN (1, 5)",
      "SELECT A, SUM(B) FROM T GROUP BY A HAVING SUM(B) IS NULL",
      "SELECT A FROM T GROUP BY A HAVING SUM(B) IS NOT NULL",
      "SELECT A, MIN(S) FROM T GROUP BY A HAVING MIN(S) LIKE 'b%'",
      "SELECT A FROM T GROUP BY A HAVING MAX(S) NOT LIKE '%e%'",
      "SELECT A FROM T GROUP BY A HAVING SUM(B) IN (5, 30, 31)",
      "SELECT A, SUM(B) * 2 + COUNT(*) FROM T GROUP BY A "
      "HAVING COUNT(*) BETWEEN 2 AND 4",
      "SELECT A, MAX(B) - MIN(B) FROM T GROUP BY A "
      "HAVING NOT (COUNT(*) > 3 OR SUM(B) IS NULL)",
      "SELECT A, SUM(B) / COUNT(*), MAX(B) * 2 FROM T GROUP BY A "
      "HAVING MIN(S) NOT LIKE 'c%' AND COUNT(*) IN (2, 3, 4)",
      "SELECT COUNT(*), SUM(B) FROM T HAVING COUNT(*) IN (15, 16)",
  };
  const struct {
    const char* name;
    JoinMethodForce force;
    bool parallel;
  } kVariants[] = {
      {"sorted", JoinMethodForce::kMerge, false},
      {"hash", JoinMethodForce::kHash, false},
      {"parallel", JoinMethodForce::kHash, true},
  };
  Database db(64);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT, B INT, S STRING)").ok());
  const char* kWords[] = {"apple", "banana", "cherry", "bob", "plum"};
  for (int a = 0; a < 5; ++a) {
    for (int i = 0; i <= a; ++i) {
      std::string b = a == 0 ? "NULL" : std::to_string(a * 3 - i);
      std::string sql = "INSERT INTO T VALUES (" + std::to_string(a) + ", " +
                        b + ", '" + kWords[(a + i) % 5] + "')";
      ASSERT_TRUE(db.Execute(sql).ok()) << sql;
    }
  }
  ASSERT_TRUE(db.Execute("UPDATE STATISTICS T").ok());
  RefExecutor ref(&db.rss().store(), RelPageMap(&db));
  for (const auto& v : kVariants) {
    db.options().join.force = v.force;
    for (const char* sql : kQueries) {
      auto prepared = v.parallel ? db.Prepare(sql, 4, true) : db.Prepare(sql);
      ASSERT_TRUE(prepared.ok())
          << sql << "\n" << prepared.status().ToString();
      auto ref_rows = ref.Execute(*prepared->block);
      ASSERT_TRUE(ref_rows.ok())
          << sql << "\n" << ref_rows.status().ToString();
      auto result = db.Run(*prepared);
      ASSERT_TRUE(result.ok())
          << v.name << " " << sql << "\n" << result.status().ToString();
      EXPECT_TRUE(SameRowMultiset(*ref_rows, result->rows))
          << v.name << " sql=[" << sql << "] "
          << DiffSummary(*ref_rows, result->rows);
      EXPECT_FALSE(result->rows.empty()) << v.name << " " << sql;
    }
  }
}

// IN lists whose items are columns, arithmetic or aggregates (not only
// literals) compile to a per-row list rather than a sorted constant set, and
// a list naming another table's column is a join predicate. Every query is
// checked multiset-identical against the reference executor under the sorted,
// hash and forced-parallel variants.
TEST(FuzzSmokeTest, InListExpressionItemsMatchReference) {
  const char* kQueries[] = {
      "SELECT A, B FROM T WHERE A IN (B, 3)",
      "SELECT A FROM T WHERE A IN (1 + 1)",
      "SELECT A, B FROM T WHERE A NOT IN (B - 1, 4)",
      "SELECT A, B FROM T WHERE B IN (NULL, A * 3)",
      "SELECT A, B FROM T WHERE A IN (B / 2, 0) OR B IN (5, 6)",
      "SELECT A, SUM(B) FROM T GROUP BY A HAVING SUM(B) IN (A + 20, 31)",
      "SELECT A, COUNT(*) FROM T GROUP BY A HAVING COUNT(*) IN (A + 1, 0)",
      "SELECT T.A, U.C FROM T, U WHERE T.A IN (U.C, 0)",
      "SELECT T.A, U.C FROM T, U WHERE T.B = U.C AND U.D IN (T.A, 2)",
  };
  const struct {
    const char* name;
    JoinMethodForce force;
    bool parallel;
  } kVariants[] = {
      {"sorted", JoinMethodForce::kMerge, false},
      {"hash", JoinMethodForce::kHash, false},
      {"parallel", JoinMethodForce::kHash, true},
  };
  Database db(64);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (A INT, B INT)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE U (C INT, D INT)").ok());
  for (int i = 0; i < 40; ++i) {
    std::string b = i % 9 == 0 ? "NULL" : std::to_string((i * 7) % 13);
    ASSERT_TRUE(db.Execute("INSERT INTO T VALUES (" + std::to_string(i % 6) +
                           ", " + b + ")")
                    .ok());
    ASSERT_TRUE(db.Execute("INSERT INTO U VALUES (" + std::to_string(i % 11) +
                           ", " + std::to_string(i % 4) + ")")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX T_A ON T (A)").ok());
  ASSERT_TRUE(db.Execute("CREATE INDEX U_C ON U (C)").ok());
  ASSERT_TRUE(db.Execute("UPDATE STATISTICS T").ok());
  ASSERT_TRUE(db.Execute("UPDATE STATISTICS U").ok());
  RefExecutor ref(&db.rss().store(), RelPageMap(&db));
  for (const auto& v : kVariants) {
    db.options().join.force = v.force;
    for (const char* sql : kQueries) {
      auto prepared = v.parallel ? db.Prepare(sql, 4, true) : db.Prepare(sql);
      ASSERT_TRUE(prepared.ok())
          << sql << "\n" << prepared.status().ToString();
      auto ref_rows = ref.Execute(*prepared->block);
      ASSERT_TRUE(ref_rows.ok())
          << sql << "\n" << ref_rows.status().ToString();
      auto result = db.Run(*prepared);
      ASSERT_TRUE(result.ok())
          << v.name << " " << sql << "\n" << result.status().ToString();
      EXPECT_TRUE(SameRowMultiset(*ref_rows, result->rows))
          << v.name << " sql=[" << sql << "] "
          << DiffSummary(*ref_rows, result->rows);
      EXPECT_FALSE(result->rows.empty()) << v.name << " " << sql;
    }
  }
}

// Targeted hash-join differential run: 200 seeds with every multi-table
// query forced through the hash join wherever an equi predicate allows
// (non-equi joins keep nested loop — forcing must never lose DP
// completeness). Baselines and metamorphic variants are off: this is pure
// engine-vs-reference coverage of the hash build/probe paths, including
// hash aggregation (forced by the same knob for GROUP BY blocks).
TEST(FuzzSmokeTest, TwoHundredSeedsForcedHashJoinClean) {
  FuzzOptions options;
  options.queries_per_seed = 3;
  options.check_baselines = false;
  options.metamorphic = false;
  options.record_calibration = true;
  options.force = JoinMethodForce::kHash;
  FuzzReport report;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SeedResult result = RunFuzzSeed(seed, options, &report);
    for (const std::string& v : result.violations) {
      ADD_FAILURE() << v;
    }
  }
  EXPECT_EQ(report.seeds, 200u);
  EXPECT_EQ(report.queries, 600u);
  // The forced runs must actually exercise the hash table: across 600
  // queries at least some joins build and probe.
  uint64_t build = 0, probe = 0;
  for (const CalibrationRecord& r : report.records) {
    build += r.hash_build_rows;
    probe += r.hash_probe_rows;
  }
  EXPECT_GT(build, 0u);
  EXPECT_GT(probe, 0u);
}

TEST(FuzzSmokeTest, Deterministic) {
  FuzzOptions options;
  options.queries_per_seed = 3;
  FuzzReport a, b;
  RunFuzzSeed(7, options, &a);
  RunFuzzSeed(7, options, &b);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].sql, b.records[i].sql);
    EXPECT_EQ(a.records[i].actual_rows, b.records[i].actual_rows);
    EXPECT_DOUBLE_EQ(a.records[i].est_cost, b.records[i].est_cost);
  }
}

// The oracles are only trustworthy if the comparator itself can fail: feed
// it deliberate mismatches.
TEST(FuzzSmokeTest, DifferDetectsMismatches) {
  std::vector<Row> a = {{Value::Int(1), Value::Int(2)},
                        {Value::Int(3), Value::Int(4)}};
  std::vector<Row> reordered = {a[1], a[0]};
  EXPECT_TRUE(SameRowMultiset(a, reordered));

  std::vector<Row> missing = {a[0]};
  EXPECT_FALSE(SameRowMultiset(a, missing));

  std::vector<Row> duplicated = {a[0], a[0]};
  EXPECT_FALSE(SameRowMultiset(a, duplicated));  // Multiplicities matter.

  std::vector<Row> null_vs_zero = {{Value::Int(1), Value::Null()},
                                   {Value::Int(3), Value::Int(4)}};
  EXPECT_FALSE(SameRowMultiset(a, null_vs_zero));

  EXPECT_NE(DiffSummary(a, missing), DiffSummary(a, a));
}

TEST(FuzzSmokeTest, SortednessOracleDetectsDisorder) {
  std::vector<Row> asc = {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(2)}};
  EXPECT_TRUE(RowsSorted(asc, {{0, true}}));
  EXPECT_FALSE(RowsSorted(asc, {{0, false}}));
  std::vector<Row> desc = {{Value::Int(5)}, {Value::Int(3)}};
  EXPECT_TRUE(RowsSorted(desc, {{0, false}}));
  EXPECT_FALSE(RowsSorted(desc, {{0, true}}));
}

}  // namespace
}  // namespace systemr
