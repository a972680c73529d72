#include "rss/btree.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/value.h"
#include "rss/buffer_pool.h"
#include "rss/fault_injector.h"

namespace systemr {
namespace {

std::string IntKey(int64_t v) {
  std::string k;
  Value::Int(v).EncodeKey(&k);
  return k;
}

// Everything a reader can see of a tree: the full scan as (user key, TID)
// pairs, and ContainsKey for every key in [lo, hi]. Built from the decoded-
// node cache; comparing it before and after DropNodeCaches() proves every
// in-place node edit reached its page.
struct TreeView {
  std::vector<std::pair<std::string, uint64_t>> scan;
  std::vector<bool> contains;
  bool operator==(const TreeView& o) const {
    return scan == o.scan && contains == o.contains;
  }
};

std::vector<std::string> IntKeys(int64_t lo, int64_t hi) {
  std::vector<std::string> keys;
  for (int64_t k = lo; k <= hi; ++k) keys.push_back(IntKey(k));
  return keys;
}

TreeView ViewOf(const BTree& tree, const std::vector<std::string>& probes) {
  TreeView view;
  BTree::Cursor c = tree.NewCursor();
  EXPECT_TRUE(c.SeekToFirst().ok());
  while (c.Valid()) {
    view.scan.emplace_back(c.user_key(), c.tid().Pack());
    EXPECT_TRUE(c.Next().ok());
  }
  for (const std::string& key : probes) {
    StatusOr<bool> has = tree.ContainsKey(key);
    EXPECT_TRUE(has.ok());
    view.contains.push_back(has.ok() && *has);
  }
  return view;
}

// The cached view must equal the view re-decoded from page bytes.
void ExpectPagesMatchCache(const BTree& tree,
                           const std::vector<std::string>& probes) {
  TreeView cached = ViewOf(tree, probes);
  tree.DropNodeCaches();
  TreeView decoded = ViewOf(tree, probes);
  EXPECT_EQ(cached.scan.size(), decoded.scan.size());
  EXPECT_TRUE(cached == decoded) << "a node edit did not reach its page";
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&store_, 1024) {}
  PageStore store_;
  BufferPool pool_;
};

TEST_F(BTreeTest, EmptyTree) {
  BTree tree(&pool_, 0, /*unique=*/false);
  auto cursor = tree.NewCursor();
  cursor.SeekToFirst();
  EXPECT_FALSE(cursor.Valid());
  EXPECT_EQ(tree.num_pages(), 1u);
  EXPECT_EQ(tree.height(), 1);
}

TEST_F(BTreeTest, InsertAndScanInOrder) {
  BTree tree(&pool_, 0, /*unique=*/false);
  // Insert in scrambled order.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 1000; ++i) keys.push_back(i);
  Rng rng(3);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(0, i - 1)]);
  }
  for (int64_t k : keys) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(k), 0}).ok());
  }
  EXPECT_EQ(tree.num_entries(), 1000u);
  EXPECT_GT(tree.height(), 1);

  auto cursor = tree.NewCursor();
  int64_t expected = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) {
    EXPECT_EQ(cursor.user_key(), IntKey(expected));
    EXPECT_EQ(cursor.tid().page, static_cast<PageId>(expected));
    ++expected;
  }
  EXPECT_EQ(expected, 1000);
}

TEST_F(BTreeTest, SeekFindsLowerBound) {
  BTree tree(&pool_, 0, false);
  for (int64_t k = 0; k < 500; k += 5) {
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{0, 0}).ok());
  }
  auto cursor = tree.NewCursor();
  cursor.Seek(IntKey(12));  // Next key present is 15.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.user_key(), IntKey(15));
  cursor.Seek(IntKey(15));  // Exact.
  ASSERT_TRUE(cursor.Valid());
  EXPECT_EQ(cursor.user_key(), IntKey(15));
  cursor.Seek(IntKey(496));  // Past the end.
  EXPECT_FALSE(cursor.Valid());
}

TEST_F(BTreeTest, DuplicateKeysAllRetained) {
  BTree tree(&pool_, 0, /*unique=*/false);
  for (int rep = 0; rep < 300; ++rep) {
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(
          tree.Insert(IntKey(k), Tid{static_cast<PageId>(rep), 0}).ok());
    }
  }
  auto cursor = tree.NewCursor();
  cursor.Seek(IntKey(7));
  std::set<PageId> seen;
  int count = 0;
  while (cursor.Valid() && cursor.user_key() == IntKey(7)) {
    seen.insert(cursor.tid().page);
    ++count;
    cursor.Next();
  }
  EXPECT_EQ(count, 300);
  EXPECT_EQ(seen.size(), 300u);
}

TEST_F(BTreeTest, UniqueIndexRejectsDuplicates) {
  BTree tree(&pool_, 0, /*unique=*/true);
  ASSERT_TRUE(tree.Insert(IntKey(1), Tid{1, 0}).ok());
  Status st = tree.Insert(IntKey(1), Tid{2, 0});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(tree.Insert(IntKey(2), Tid{3, 0}).ok());
}

TEST_F(BTreeTest, LeafChainCoversAllEntries) {
  BTree tree(&pool_, 0, false);
  const int kN = 5000;
  for (int64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(tree.Insert(IntKey(k * 2), Tid{0, 0}).ok());
  }
  // A full scan must see every key despite many splits.
  auto cursor = tree.NewCursor();
  int count = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) ++count;
  EXPECT_EQ(count, kN);
  EXPECT_GE(tree.num_leaf_pages(), 2u);
  EXPECT_GT(tree.num_pages(), tree.num_leaf_pages());
}

TEST_F(BTreeTest, StringKeys) {
  BTree tree(&pool_, 0, false);
  std::vector<std::string> names = {"SMITH", "JONES", "ADAMS", "ZHANG",
                                    "MILLER"};
  for (size_t i = 0; i < names.size(); ++i) {
    std::string k;
    Value::Str(names[i]).EncodeKey(&k);
    ASSERT_TRUE(tree.Insert(k, Tid{static_cast<PageId>(i), 0}).ok());
  }
  std::sort(names.begin(), names.end());
  auto cursor = tree.NewCursor();
  size_t i = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next(), ++i) {
    std::string expect;
    Value::Str(names[i]).EncodeKey(&expect);
    EXPECT_EQ(cursor.user_key(), expect);
  }
  EXPECT_EQ(i, names.size());
}

// Property test: random inserts == sorted reference, across several sizes.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, MatchesSortedReference) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool, 0, false);
  Rng rng(GetParam());
  int n = GetParam() * 700 + 50;
  std::vector<int64_t> reference;
  for (int i = 0; i < n; ++i) {
    int64_t k = rng.Uniform(0, n / 2);  // Plenty of duplicates.
    reference.push_back(k);
    ASSERT_TRUE(tree.Insert(IntKey(k), Tid{static_cast<PageId>(i), 0}).ok());
  }
  std::sort(reference.begin(), reference.end());
  auto cursor = tree.NewCursor();
  size_t i = 0;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next(), ++i) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(cursor.user_key(), IntKey(reference[i]));
  }
  EXPECT_EQ(i, reference.size());

  // Range check: count keys in [n/8, n/4] both ways.
  int64_t lo = n / 8, hi = n / 4;
  size_t expect = 0;
  for (int64_t k : reference) {
    if (k >= lo && k <= hi) ++expect;
  }
  cursor.Seek(IntKey(lo));
  size_t got = 0;
  while (cursor.Valid() && cursor.user_key() <= IntKey(hi)) {
    ++got;
    cursor.Next();
  }
  EXPECT_EQ(got, expect);
  ExpectPagesMatchCache(tree, IntKeys(-1, n / 2 + 1));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BTreePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- Deletion ---

TEST_F(BTreeTest, DeleteRemovesExactEntry) {
  BTree tree(&pool_, 0, false);
  // Duplicate user keys with distinct TIDs: delete must hit the exact pair.
  for (PageId p = 0; p < 5; ++p) {
    ASSERT_TRUE(tree.Insert(IntKey(7), Tid{p, 0}).ok());
  }
  ASSERT_TRUE(tree.Delete(IntKey(7), Tid{2, 0}).ok());
  auto cursor = tree.NewCursor();
  cursor.Seek(IntKey(7));
  std::set<PageId> left;
  while (cursor.Valid() && cursor.user_key() == IntKey(7)) {
    left.insert(cursor.tid().page);
    cursor.Next();
  }
  EXPECT_EQ(left, (std::set<PageId>{0, 1, 3, 4}));
  EXPECT_EQ(tree.Delete(IntKey(7), Tid{2, 0}).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(IntKey(8), Tid{0, 0}).code(), StatusCode::kNotFound);
}

// Fuzz insert/delete against a std::multiset reference.
class BTreeDeleteFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreeDeleteFuzzTest, MatchesMultisetReference) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool, 0, false);
  Rng rng(GetParam() * 97 + 13);
  // Reference: multiset of (key, tid-as-id).
  std::multiset<std::pair<int64_t, uint32_t>> reference;
  uint32_t next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    if (reference.empty() || rng.Bernoulli(0.6)) {
      int64_t k = rng.Uniform(0, 200);
      uint32_t id = next_id++;
      ASSERT_TRUE(tree.Insert(IntKey(k), Tid{id, 0}).ok());
      reference.emplace(k, id);
    } else {
      // Delete a pseudo-random existing entry.
      auto it = reference.begin();
      std::advance(it, rng.Uniform(0, reference.size() - 1));
      ASSERT_TRUE(tree.Delete(IntKey(it->first), Tid{it->second, 0}).ok());
      reference.erase(it);
    }
  }
  // Full scan must match the reference in (key) order and count.
  EXPECT_EQ(tree.num_entries(), reference.size());
  auto cursor = tree.NewCursor();
  std::multiset<std::pair<int64_t, uint32_t>> seen;
  for (cursor.SeekToFirst(); cursor.Valid(); cursor.Next()) {
    size_t pos = 0;
    Value v;
    ASSERT_TRUE(Value::DecodeKey(cursor.user_key(), &pos, &v));
    seen.emplace(v.AsInt(), cursor.tid().page);
  }
  EXPECT_EQ(seen, reference);
  ExpectPagesMatchCache(tree, IntKeys(-1, 201));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeDeleteFuzzTest,
                         ::testing::Values(1, 2, 3, 4));

// A one-frame pool with persistent read faults armed: nearly every page
// access is a simulated disk read, so writes fail at every step — the
// descent, the fetch for write after a split allocated its right sibling,
// the parent's fetch after the child split. A write that fails must say so,
// must leave every cached node equal to its page, and must leave the tree's
// entries and height as they were. Its pages need not be: an insert
// allocates each right sibling and a new root before the fetch that fails,
// and those orphan pages stay counted in NINDX.
TEST(BTreeWriteFaultTest, FailedWritesLeaveNodesMatchingPages) {
  PageStore store;
  BufferPool pool(&store, 1);
  BTree tree(&pool, 0, /*unique=*/false);
  FaultConfig config;
  config.io_error_rate = 0.3;
  config.persistent_fraction = 1.0;
  FaultInjector injector(5, config);
  pool.set_fault_injector(&injector);
  // Long keys: about 20 entries per leaf, so splits are frequent.
  auto key = [](int64_t k) { return IntKey(k) + std::string(180, 'k'); };
  std::vector<std::string> probes;
  for (int64_t k = 0; k < 400; k += 8) probes.push_back(key(k));
  std::vector<std::pair<int64_t, uint32_t>> live;
  Rng rng(17);
  int failed = 0;
  int succeeded = 0;
  for (uint32_t op = 0; op < 1500; ++op) {
    const size_t pages_before = tree.num_pages();
    const int height_before = tree.height();
    injector.Arm();
    Status st;
    size_t victim = 0;
    bool insert = live.empty() || rng.Bernoulli(0.8);
    if (insert) {
      int64_t k = rng.Uniform(0, 399);
      st = tree.Insert(key(k), Tid{op, 0});
      if (st.ok()) live.emplace_back(k, op);
    } else {
      victim = static_cast<size_t>(rng.Uniform(0, live.size() - 1));
      st = tree.Delete(key(live[victim].first), Tid{live[victim].second, 0});
      if (st.ok()) live.erase(live.begin() + victim);
    }
    injector.Disarm();
    if (st.ok()) {
      ++succeeded;
      continue;
    }
    ++failed;
    EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
    EXPECT_EQ(tree.height(), height_before);
    // At most one sibling per level of the path plus a new root; a delete
    // allocates nothing.
    size_t orphan_limit = insert ? static_cast<size_t>(height_before) + 1 : 0;
    EXPECT_LE(tree.num_pages() - pages_before, orphan_limit);
    ExpectPagesMatchCache(tree, probes);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(failed, 100);
  EXPECT_GT(succeeded, 100);
  EXPECT_GT(tree.height(), 1);
  ExpectPagesMatchCache(tree, probes);
  // Every page a write changes is fetched before any node is edited, so a
  // failed write changed nothing: the tree holds exactly the writes that
  // succeeded.
  std::vector<std::pair<std::string, uint64_t>> expect;
  for (const auto& [k, op] : live) expect.emplace_back(key(k), Tid{op, 0}.Pack());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(ViewOf(tree, {}).scan, expect);
  EXPECT_EQ(tree.num_entries(), live.size());
}

}  // namespace
}  // namespace systemr
