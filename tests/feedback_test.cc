// Selectivity-feedback tests: signature normalization, the learned store,
// estimate convergence across executions, and the divergence-triggered
// plan-cache replan (which must fire exactly once per statement).
#include "optimizer/feedback.h"

#include <gtest/gtest.h>

#include "db/database.h"
#include "optimizer/cnf.h"
#include "session/session.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/datagen.h"

namespace systemr {
namespace {

class FeedbackTest : public ::testing::Test {
 protected:
  FeedbackTest() : db_(256) {
    DataGen gen(&db_, 7);
    TableSpec t;
    t.name = "T";
    t.num_rows = 1000;
    t.columns = {{"K", ValueType::kInt64, 1000, 0, /*sequential=*/true},
                 {"A", ValueType::kInt64, 100, 0, false},
                 // Values are uppercase A-Z strings, so a lowercase LIKE
                 // pattern matches nothing while its estimate stays at the
                 // 1/10 guess — a reliable mis-estimate for these tests.
                 {"S", ValueType::kString, 30, 0, false}};
    t.indexes = {{"T_K", {"K"}, true, false}};
    EXPECT_TRUE(gen.CreateAndLoad(t).ok());
  }

  // Signature of the first boolean factor of `sql`.
  std::string Signature(const std::string& sql) {
    auto stmt = Parse(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Binder binder(&db_.catalog());
    auto block = binder.Bind(*stmt->select);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    block_ = std::move(*block);
    auto factors = ExtractBooleanFactors(*block_);
    EXPECT_FALSE(factors.empty());
    return FactorSignature(*factors[0].expr, *block_);
  }

  double EstimatedRows(const std::string& sql) {
    auto q = db_.Prepare(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q->est_rows;
  }

  Database db_;
  std::unique_ptr<BoundQueryBlock> block_;
};

// Literals and `?` parameters normalize to the same signature; different
// columns and operators do not collide.
TEST_F(FeedbackTest, SignatureNormalizesValues) {
  std::string s1 = Signature("SELECT K FROM T WHERE A = 5");
  EXPECT_FALSE(s1.empty());
  EXPECT_EQ(s1, Signature("SELECT K FROM T WHERE A = 123456"));
  EXPECT_EQ(s1, Signature("SELECT K FROM T WHERE A = ?"));
  EXPECT_NE(s1, Signature("SELECT K FROM T WHERE K = 5"));
  EXPECT_NE(s1, Signature("SELECT K FROM T WHERE A > 5"));
}

// Aliases vanish: the signature names the real table, so equivalent
// predicates through different correlation names share feedback.
TEST_F(FeedbackTest, SignatureSharedAcrossAliases) {
  EXPECT_EQ(Signature("SELECT X.K FROM T X WHERE X.A = 1"),
            Signature("SELECT K FROM T WHERE A = 1"));
}

// IN-list items are part of the signature; LIKE keeps its pattern.
TEST_F(FeedbackTest, SignatureKeepsShapeDetails) {
  EXPECT_NE(Signature("SELECT K FROM T WHERE A IN (1, 2)"),
            Signature("SELECT K FROM T WHERE A IN (1, 2, 3)"));
  EXPECT_EQ(Signature("SELECT K FROM T WHERE A IN (7, 8, 9)"),
            Signature("SELECT K FROM T WHERE A IN (1, 2, 3)"));
  EXPECT_NE(Signature("SELECT K FROM T WHERE S LIKE 'AB%'"),
            Signature("SELECT K FROM T WHERE S LIKE 'ZZ%'"));
  // A column item is not a value position: it stays in the signature.
  std::string col_list = Signature("SELECT K FROM T WHERE A IN (K, 3)");
  EXPECT_FALSE(col_list.empty());
  EXPECT_EQ(col_list, Signature("SELECT K FROM T WHERE A IN (K, 9)"));
  EXPECT_NE(col_list, Signature("SELECT K FROM T WHERE A IN (1, 3)"));
  EXPECT_NE(col_list, Signature("SELECT K FROM T WHERE A IN (K + 1, 3)"));
  EXPECT_EQ(Signature("SELECT K FROM T WHERE A IN (?, 3)"),
            Signature("SELECT K FROM T WHERE A IN (1, 3)"));
}

// Join factors, multi-table predicates, and subqueries are not signable.
TEST_F(FeedbackTest, SignatureRejectsNonLocalFactors) {
  EXPECT_EQ(Signature("SELECT X.K FROM T X, T Y WHERE X.A = Y.A"), "");
  EXPECT_EQ(Signature("SELECT K FROM T WHERE A IN (SELECT A FROM T)"), "");
  EXPECT_EQ(Signature("SELECT X.K FROM T X, T Y WHERE X.A IN (Y.A, 3)"), "");
}

// The store keys observations by signature and counts them.
TEST_F(FeedbackTest, StoreRecordsPerSignature) {
  SelectivityFeedback fb;
  fb.Record("T.A=$", 0.01);
  fb.Record("T.A=$", 0.02);
  fb.Record("T.K=$", 0.5);
  EXPECT_EQ(fb.size(), 2u);
  EXPECT_EQ(fb.records(), 3u);
  auto a = fb.Lookup("T.A=$");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->n, 2u);
  // Geometric mean of 0.01 and 0.02 lies between them.
  EXPECT_GT(a->selectivity, 0.01);
  EXPECT_LT(a->selectivity, 0.02);
  EXPECT_FALSE(fb.Lookup("T.S=$").has_value());
}

// Blend ramps from the model toward the learned value as n grows.
TEST_F(FeedbackTest, BlendRampsWithObservations) {
  const double model = 0.1, learned = 0.001;
  EXPECT_DOUBLE_EQ(SelectivityFeedback::Blend(model, learned, 0), model);
  double b1 = SelectivityFeedback::Blend(model, learned, 1);
  double b4 = SelectivityFeedback::Blend(model, learned, 4);
  double b64 = SelectivityFeedback::Blend(model, learned, 64);
  EXPECT_LT(b1, model);
  EXPECT_LT(b4, b1);
  EXPECT_LT(b64, b4);
  EXPECT_NEAR(b64, learned, learned);  // Within 2x after many observations.
}

// Bounded store: the least recently touched signature is evicted.
TEST_F(FeedbackTest, LruEviction) {
  SelectivityFeedback fb(/*capacity=*/2);
  fb.Record("a", 0.1);
  fb.Record("b", 0.2);
  fb.Record("a", 0.1);  // Touch a; b is now LRU.
  fb.Record("c", 0.3);
  EXPECT_EQ(fb.size(), 2u);
  EXPECT_TRUE(fb.Lookup("a").has_value());
  EXPECT_FALSE(fb.Lookup("b").has_value());
  EXPECT_TRUE(fb.Lookup("c").has_value());
}

// Executing a statement records observations into the database's store.
TEST_F(FeedbackTest, RunRecordsObservations) {
  EXPECT_EQ(db_.feedback().records(), 0u);
  ASSERT_TRUE(db_.Query("SELECT K FROM T WHERE S LIKE 'zzz%'").ok());
  EXPECT_GT(db_.feedback().records(), 0u);
}

// Convergence: a predicate the model badly over-estimates (LIKE has no
// histogram support, so F = 1/10 → 100 rows, actual 0) is corrected after a
// handful of executions.
TEST_F(FeedbackTest, EstimatesConvergeAfterExecutions) {
  const std::string sql = "SELECT K FROM T WHERE S LIKE 'zzz%'";
  double before = EstimatedRows(sql);
  EXPECT_NEAR(before, 100.0, 5.0) << "Table 1 guess: 1/10 of 1000 rows";
  for (int i = 0; i < 20; ++i) {
    auto r = db_.Query(sql);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->rows.empty());
  }
  double after = EstimatedRows(sql);
  EXPECT_LT(after, 10.0) << "learned selectivity should dominate by now";
  EXPECT_LT(after, before / 10.0);
}

// Divergence replan: one bad execution re-optimizes the cached plan exactly
// once; later executions of the (now marked) plan never replan again.
TEST_F(FeedbackTest, PlanCacheReplansExactlyOnce) {
  PlanCache cache(16);
  Session session(&db_, &cache);
  const std::string sql = "SELECT K FROM T WHERE S LIKE 'zzz%'";

  auto stmt = session.Prepare(sql);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(session.stats().optimizations, 1u);

  // est ~100 vs actual 0 → q-error far above the threshold → replan.
  ASSERT_TRUE(stmt->Execute().ok());
  EXPECT_EQ(session.stats().feedback_replans, 1u);
  EXPECT_EQ(session.stats().optimizations, 2u);
  EXPECT_TRUE(stmt->plan().feedback_replanned);

  // The replanned plan may still miss (feedback ramps gradually), but the
  // marker guarantees no second replan — ever.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(stmt->Execute().ok());
  }
  EXPECT_EQ(session.stats().feedback_replans, 1u);
  EXPECT_EQ(session.stats().optimizations, 2u);

  // A second session picks the marked plan up from the shared cache and
  // never replans either.
  Session other(&db_, &cache);
  auto stmt2 = other.Prepare(sql);
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(other.stats().cache_hits, 1u);
  ASSERT_TRUE(stmt2->Execute().ok());
  EXPECT_EQ(other.stats().feedback_replans, 0u);
}

// An accurate statement never triggers the replan machinery.
TEST_F(FeedbackTest, AccurateEstimatesDoNotReplan) {
  PlanCache cache(16);
  Session session(&db_, &cache);
  // K is sequential 0..999 with a histogram: the range estimate is tight.
  auto stmt = session.Prepare("SELECT K FROM T WHERE K < 500");
  ASSERT_TRUE(stmt.ok());
  for (int i = 0; i < 3; ++i) {
    auto r = stmt->Execute();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows.size(), 500u);
  }
  EXPECT_EQ(session.stats().feedback_replans, 0u);
}

}  // namespace
}  // namespace systemr
