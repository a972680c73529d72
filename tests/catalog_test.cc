// Catalog + statistics tests: NCARD/TCARD/P/ICARD/NINDX semantics from §4,
// clustering measurement, and index scans through catalog-created indexes.
#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace systemr {
namespace {

// Advances a scan that is expected to never hit a storage error.
bool NextOk(RsiScan* scan, Row* row) {
  bool has = false;
  Status st = scan->Next(row, nullptr, &has);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return st.ok() && has;
}

Schema EmpSchema() {
  return Schema({{"EMPNO", ValueType::kInt64},
                 {"NAME", ValueType::kString},
                 {"DNO", ValueType::kInt64},
                 {"JOB", ValueType::kInt64},
                 {"SAL", ValueType::kInt64}});
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest() : rss_(256), catalog_(&rss_) {}

  void LoadEmp(int n, int dno_domain, bool sorted_by_dno) {
    ASSERT_TRUE(catalog_.CreateTable("EMP", EmpSchema()).ok());
    Rng rng(42);
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back({Value::Int(i), Value::Str("E" + std::to_string(i)),
                      Value::Int(rng.Uniform(0, dno_domain - 1)),
                      Value::Int(rng.Uniform(0, 9)),
                      Value::Int(rng.Uniform(10000, 50000))});
    }
    if (sorted_by_dno) {
      std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a[2].AsInt() < b[2].AsInt();
      });
    }
    for (const Row& r : rows) {
      ASSERT_TRUE(catalog_.Insert("EMP", r).ok());
    }
  }

  Rss rss_;
  Catalog catalog_;
};

TEST_F(CatalogTest, CreateTableAndLookup) {
  ASSERT_TRUE(catalog_.CreateTable("EMP", EmpSchema()).ok());
  EXPECT_NE(catalog_.FindTable("EMP"), nullptr);
  EXPECT_EQ(catalog_.FindTable("NOPE"), nullptr);
  EXPECT_FALSE(catalog_.CreateTable("EMP", EmpSchema()).ok())
      << "duplicate table name must fail";
}

TEST_F(CatalogTest, InsertTypeChecks) {
  ASSERT_TRUE(catalog_.CreateTable("EMP", EmpSchema()).ok());
  Row bad_arity = {Value::Int(1)};
  EXPECT_FALSE(catalog_.Insert("EMP", bad_arity).ok());
  Row bad_type = {Value::Str("x"), Value::Str("n"), Value::Int(1),
                  Value::Int(1), Value::Int(1)};
  EXPECT_FALSE(catalog_.Insert("EMP", bad_type).ok());
}

TEST_F(CatalogTest, UpdateStatisticsComputesNcardTcardP) {
  LoadEmp(1200, 10, false);
  ASSERT_TRUE(catalog_.UpdateStatistics("EMP").ok());
  const TableInfo* t = catalog_.FindTable("EMP");
  EXPECT_EQ(t->ncard, 1200u);
  EXPECT_GT(t->tcard, 1u);
  EXPECT_EQ(t->tcard, rss_.heap(t->id)->segment()->num_pages());
  EXPECT_DOUBLE_EQ(t->p, 1.0) << "EMP is alone in its segment";
  EXPECT_TRUE(t->has_stats);
}

TEST_F(CatalogTest, SharedSegmentGivesFractionalP) {
  ASSERT_TRUE(catalog_.CreateTable("A", EmpSchema()).ok());
  SegmentId seg = catalog_.FindTable("A")->segment;
  ASSERT_TRUE(catalog_.CreateTable("B", EmpSchema(), seg).ok());
  Rng rng(1);
  for (int i = 0; i < 400; ++i) {
    Row r = {Value::Int(i), Value::Str("n"), Value::Int(rng.Uniform(0, 9)),
             Value::Int(0), Value::Int(0)};
    ASSERT_TRUE(catalog_.Insert(i % 2 == 0 ? "A" : "B", r).ok());
  }
  ASSERT_TRUE(catalog_.UpdateStatistics("A").ok());
  const TableInfo* a = catalog_.FindTable("A");
  // Interleaved inserts: nearly every page holds tuples of both relations.
  EXPECT_GT(a->p, 0.9);
  EXPECT_EQ(a->ncard, 200u);
}

TEST_F(CatalogTest, IndexCreationInitializesStatistics) {
  LoadEmp(1000, 10, false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(idx.ok());
  const IndexInfo* info = *idx;
  EXPECT_EQ(info->icard_leading, 10u) << "ICARD of DNO";
  EXPECT_GT(info->nindx, 0u);
  EXPECT_EQ(info->low_key.AsInt(), 0);
  EXPECT_EQ(info->high_key.AsInt(), 9);
  // Table stats are initialized too (§4: index creation initializes stats).
  EXPECT_TRUE(catalog_.FindTable("EMP")->has_stats);
}

TEST_F(CatalogTest, ClusteringMeasuredFromPhysicalOrder) {
  LoadEmp(3000, 20, /*sorted_by_dno=*/true);
  auto idx =
      catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, /*clustered=*/true);
  ASSERT_TRUE(idx.ok());
  EXPECT_TRUE((*idx)->clustered);
  EXPECT_GT((*idx)->cluster_ratio, 0.95);
}

TEST_F(CatalogTest, NonClusteredIndexDetected) {
  LoadEmp(3000, 1000, /*sorted_by_dno=*/false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false,
                                  /*clustered=*/false);
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE((*idx)->clustered);
  EXPECT_LT((*idx)->cluster_ratio, 0.5);
}

TEST_F(CatalogTest, CompositeIndexKey) {
  LoadEmp(500, 10, false);
  auto idx =
      catalog_.CreateIndex("EMP_DNO_JOB", "EMP", {"DNO", "JOB"}, false, false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->key_columns, (std::vector<size_t>{2, 3}));
  EXPECT_EQ((*idx)->icard_leading, 10u);
  EXPECT_GT((*idx)->icard, 10u) << "full key is finer than leading column";
  EXPECT_LE((*idx)->icard, 100u);
}

TEST_F(CatalogTest, UniqueIndexOnPrimaryKey) {
  LoadEmp(500, 10, false);
  auto idx = catalog_.CreateIndex("EMP_PK", "EMP", {"EMPNO"}, /*unique=*/true,
                                  false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ((*idx)->icard, 500u);
  // A duplicate EMPNO insert now fails through the catalog.
  Row dup = {Value::Int(7), Value::Str("dup"), Value::Int(0), Value::Int(0),
             Value::Int(0)};
  EXPECT_FALSE(catalog_.Insert("EMP", dup).ok());
}

TEST_F(CatalogTest, DuplicateIndexNameIsRejected) {
  LoadEmp(300, 10, false);
  ASSERT_TRUE(catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false)
                  .ok());
  size_t pages_before = rss_.store().num_pages();
  // Same name, same definition: a second tree would be maintained by every
  // later write for nothing.
  auto again = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  // Same name on other columns is just as taken.
  auto other = catalog_.CreateIndex("EMP_DNO", "EMP", {"JOB"}, false, false);
  EXPECT_EQ(other.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(rss_.store().num_pages(), pages_before)
      << "the name is checked before a tree is allocated";
  EXPECT_EQ(catalog_.FindTable("EMP")->indexes.size(), 1u);
}

TEST_F(CatalogTest, FailedIndexBuildRegistersNothing) {
  LoadEmp(300, 10, false);
  // DNO has only 10 distinct values: the unique build fails part-way.
  auto bad = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, /*unique=*/true,
                                  false);
  EXPECT_EQ(bad.status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog_.FindTable("EMP")->indexes.empty());
  // The name is still free, and the table still takes writes.
  auto good = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ((*good)->icard, 10u);
  Row row = {Value::Int(1000), Value::Str("new"), Value::Int(3), Value::Int(0),
             Value::Int(0)};
  EXPECT_TRUE(catalog_.Insert("EMP", row).ok());
}

TEST_F(CatalogTest, IndexScanThroughCatalogIndex) {
  LoadEmp(1000, 10, false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(idx.ok());
  KeyRange range;
  std::string key;
  Value::Int(4).EncodeKey(&key);
  range.start = key;
  range.stop = key;
  auto scan = rss_.OpenIndexScan(catalog_.FindTable("EMP")->id, (*idx)->id,
                                 range, {});
  ASSERT_TRUE(scan->Open().ok());
  Row row;
  int count = 0;
  while (NextOk(scan.get(), &row)) {
    EXPECT_EQ(row[2].AsInt(), 4);
    ++count;
  }
  // Cross-check against a full segment scan.
  auto seg_scan = rss_.OpenSegmentScan(catalog_.FindTable("EMP")->id, {});
  ASSERT_TRUE(seg_scan->Open().ok());
  int expect = 0;
  while (NextOk(seg_scan.get(), &row)) {
    if (row[2].AsInt() == 4) ++expect;
  }
  EXPECT_EQ(count, expect);
}

TEST_F(CatalogTest, IndexScanRangeBounds) {
  LoadEmp(1000, 100, false);
  auto idx = catalog_.CreateIndex("EMP_DNO", "EMP", {"DNO"}, false, false);
  ASSERT_TRUE(idx.ok());
  RelId rel = catalog_.FindTable("EMP")->id;

  auto count_range = [&](std::optional<int64_t> lo, bool lo_inc,
                         std::optional<int64_t> hi, bool hi_inc) {
    KeyRange range;
    if (lo) {
      std::string k;
      Value::Int(*lo).EncodeKey(&k);
      range.start = k;
      range.start_inclusive = lo_inc;
    }
    if (hi) {
      std::string k;
      Value::Int(*hi).EncodeKey(&k);
      range.stop = k;
      range.stop_inclusive = hi_inc;
    }
    auto scan = rss_.OpenIndexScan(rel, (*idx)->id, range, {});
    EXPECT_TRUE(scan->Open().ok());
    Row row;
    int n = 0;
    while (NextOk(scan.get(), &row)) ++n;
    return n;
  };

  // Reference counts from a segment scan.
  auto ref_count = [&](auto pred) {
    auto scan = rss_.OpenSegmentScan(rel, {});
    EXPECT_TRUE(scan->Open().ok());
    Row row;
    int n = 0;
    while (NextOk(scan.get(), &row)) {
      if (pred(row[2].AsInt())) ++n;
    }
    return n;
  };

  EXPECT_EQ(count_range(10, true, 20, true),
            ref_count([](int64_t v) { return v >= 10 && v <= 20; }));
  EXPECT_EQ(count_range(10, false, 20, false),
            ref_count([](int64_t v) { return v > 10 && v < 20; }));
  EXPECT_EQ(count_range(std::nullopt, true, 5, true),
            ref_count([](int64_t v) { return v <= 5; }));
  EXPECT_EQ(count_range(95, true, std::nullopt, true),
            ref_count([](int64_t v) { return v >= 95; }));
}

// --- Index shape ---
// NINDX feeds every index-access cost formula (§4), so the page layout that
// CREATE INDEX and later inserts produce is pinned: a change to the B-tree's
// write path that moved a split, reordered page allocation or changed the
// build's insertion order would move these figures, and with them estimated
// costs and plans.

struct Shape {
  size_t num_pages;
  size_t num_leaf_pages;
  int height;
  bool operator==(const Shape& o) const {
    return num_pages == o.num_pages && num_leaf_pages == o.num_leaf_pages &&
           height == o.height;
  }
};

std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << "{" << s.num_pages << ", " << s.num_leaf_pages << ", "
            << s.height << "}";
}

class IndexShapeTest : public CatalogTest {
 protected:
  Shape ShapeOf(const IndexInfo* info) {
    const BTree* tree = rss_.index(info->id);
    EXPECT_EQ(info->nindx, tree->num_pages()) << "NINDX is the page count";
    return {tree->num_pages(), tree->num_leaf_pages(), tree->height()};
  }

  // FNV-1a over every page of the store, in page-id order: heap and index
  // pages alike, so an index that is the same tree page for page hashes the
  // same.
  uint64_t StoreHash() {
    uint64_t h = 1469598103934665603ull;
    PageStore& store = rss_.store();
    for (PageId pid = 0; pid < store.num_pages(); ++pid) {
      const Page* page = store.Get(pid);
      if (page == nullptr) continue;
      for (char b : page->bytes) {
        h = (h ^ static_cast<uint8_t>(b)) * 1099511628211ull;
      }
    }
    return h;
  }

  // Every entry of `info`'s index, in key order, as (user key, TID).
  std::vector<std::pair<std::string, uint64_t>> Entries(const IndexInfo* info) {
    std::vector<std::pair<std::string, uint64_t>> out;
    BTree::Cursor c = rss_.index(info->id)->NewCursor();
    EXPECT_TRUE(c.SeekToFirst().ok());
    while (c.Valid()) {
      out.emplace_back(c.user_key(), c.tid().Pack());
      EXPECT_TRUE(c.Next().ok());
    }
    return out;
  }
};

TEST_F(IndexShapeTest, AscendingUniqueInts) {
  ASSERT_TRUE(catalog_.CreateTable("T", Schema({{"A", ValueType::kInt64},
                                                {"B", ValueType::kInt64}}))
                  .ok());
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(catalog_.Insert("T", {Value::Int(i), Value::Int(i % 7)}).ok());
  }
  auto idx = catalog_.CreateIndex("T_A", "T", {"A"}, /*unique=*/true, false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(ShapeOf(*idx), (Shape{266, 263, 3}));
  EXPECT_EQ(Entries(*idx).size(), 20000u);
  EXPECT_EQ(StoreHash(), 18344136168940258957ull);
}

TEST_F(IndexShapeTest, RandomOrderForeignKeyThenInserts) {
  ASSERT_TRUE(catalog_.CreateTable("T", Schema({{"ID", ValueType::kInt64},
                                                {"FK", ValueType::kInt64}}))
                  .ok());
  std::vector<int> ids(3000);
  for (int i = 0; i < 3000; ++i) ids[i] = i;
  Rng rng(7);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Uniform(0, i - 1)]);
  }
  for (int id : ids) {
    ASSERT_TRUE(
        catalog_.Insert("T", {Value::Int(id), Value::Int(rng.Uniform(0, 149))})
            .ok());
  }
  auto idx = catalog_.CreateIndex("T_FK", "T", {"FK"}, false, false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(ShapeOf(*idx), (Shape{32, 31, 2}));
  EXPECT_EQ((*idx)->icard, 150u);
  // Incremental maintenance splits pages too: pin the shape after inserts.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(catalog_
                    .Insert("T", {Value::Int(3000 + i),
                                  Value::Int(rng.Uniform(0, 149))})
                    .ok());
  }
  // NINDX itself stays stale until UPDATE STATISTICS; read the tree.
  const BTree* tree = rss_.index((*idx)->id);
  EXPECT_EQ((Shape{tree->num_pages(), tree->num_leaf_pages(), tree->height()}),
            (Shape{52, 51, 2}));
  EXPECT_EQ(Entries(*idx).size(), 5000u);
  EXPECT_EQ(StoreHash(), 11794444826321189150ull);
}

TEST_F(IndexShapeTest, StringKeys) {
  ASSERT_TRUE(catalog_.CreateTable("T", Schema({{"ID", ValueType::kInt64},
                                                {"S", ValueType::kString}}))
                  .ok());
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    // Variable-length keys with shared prefixes and duplicates.
    std::string s = "CUSTOMER-" + std::to_string(rng.Uniform(0, 2999)) +
                    rng.RandomString(static_cast<size_t>(rng.Uniform(0, 12)));
    ASSERT_TRUE(catalog_.Insert("T", {Value::Int(i), Value::Str(s)}).ok());
  }
  auto idx = catalog_.CreateIndex("T_S", "T", {"S"}, false, false);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(ShapeOf(*idx), (Shape{61, 60, 2}));
  std::vector<std::pair<std::string, uint64_t>> entries = Entries(*idx);
  EXPECT_EQ(entries.size(), 4000u);
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end()));
  EXPECT_EQ(StoreHash(), 17027410055146294921ull);
}

}  // namespace
}  // namespace systemr
