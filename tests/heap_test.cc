// HeapFile + SegmentScan tests, including the §3 guarantees: a segment scan
// touches every non-empty segment page exactly once, and tuples of several
// relations can share a segment (and a page).
#include "rss/heap_file.h"

#include <gtest/gtest.h>

#include "rss/meter.h"
#include "rss/rss.h"

namespace systemr {
namespace {

Row MakeRow(int64_t id, const std::string& name) {
  return {Value::Int(id), Value::Str(name)};
}

// Advances a scan that is expected to never hit a storage error.
bool NextOk(RsiScan* scan, Row* row, Tid* tid) {
  bool has = false;
  Status st = scan->Next(row, tid, &has);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return st.ok() && has;
}

TEST(HeapFileTest, InsertAndReadBack) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);

  auto tid = heap->Insert(MakeRow(1, "alice"));
  ASSERT_TRUE(tid.ok());
  Row row;
  ASSERT_TRUE(heap->ReadTuple(*tid, &row).ok());
  EXPECT_EQ(row[0].AsInt(), 1);
  EXPECT_EQ(row[1].AsStr(), "alice");
}

TEST(HeapFileTest, SpillsAcrossPages) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i, "row-" + std::to_string(i))).ok());
  }
  EXPECT_GT(heap->segment()->num_pages(), 1u);
  EXPECT_EQ(heap->num_tuples(), 2000u);
}

TEST(HeapFileTest, OversizeTupleRejected) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  Row row = {Value::Str(std::string(5000, 'x'))};
  EXPECT_FALSE(heap->Insert(row).ok());
}

TEST(SegmentScanTest, ReturnsAllTuplesOfRelation) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i, "v")).ok());
  }
  auto scan = rss.OpenSegmentScan(0, {});
  ASSERT_TRUE(scan->Open().ok());
  Row row;
  Tid tid;
  int count = 0;
  int64_t sum = 0;
  while (NextOk(scan.get(), &row, &tid)) {
    ++count;
    sum += row[0].AsInt();
  }
  EXPECT_EQ(count, 500);
  EXPECT_EQ(sum, 499 * 500 / 2);
  EXPECT_EQ(rss.counters().rsi_calls, 500u);
}

TEST(SegmentScanTest, TwoRelationsSharingASegment) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* h0 = rss.CreateHeap(seg, 0);
  HeapFile* h1 = rss.CreateHeap(seg, 1);
  // Interleave inserts so both relations occupy the same pages.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h0->Insert(MakeRow(i, "zero")).ok());
    ASSERT_TRUE(h1->Insert(MakeRow(i, "one")).ok());
  }
  for (RelId rel : {RelId{0}, RelId{1}}) {
    auto scan = rss.OpenSegmentScan(rel, {});
    ASSERT_TRUE(scan->Open().ok());
    Row row;
    int count = 0;
    while (NextOk(scan.get(), &row, nullptr)) {
      ++count;
      EXPECT_EQ(row[1].AsStr(), rel == 0 ? "zero" : "one");
    }
    EXPECT_EQ(count, 100);
  }
}

TEST(SegmentScanTest, TouchesEachPageExactlyOnce) {
  Rss rss(/*buffer_pages=*/4);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i, std::string(40, 'p'))).ok());
  }
  size_t pages = heap->segment()->num_pages();
  ASSERT_GT(pages, 8u) << "need more pages than buffer frames";

  rss.pool().FlushAll();
  rss.pool().ResetStats();
  auto scan = rss.OpenSegmentScan(0, {});
  ASSERT_TRUE(scan->Open().ok());
  Row row;
  while (NextOk(scan.get(), &row, nullptr)) {
  }
  // §3: "each page is touched only once" — page fetches == segment pages.
  EXPECT_EQ(rss.pool().stats().fetches, pages);
}

TEST(SegmentScanTest, SargsFilterBelowRsi) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* heap = rss.CreateHeap(seg, 0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(heap->Insert(MakeRow(i % 10, "x")).ok());
  }
  Sarg sarg;
  sarg.AddConjunct({SargTerm{0, CompareOp::kEq, Value::Int(3)}});
  auto scan = rss.OpenSegmentScan(0, {sarg});
  ASSERT_TRUE(scan->Open().ok());
  Row row;
  int count = 0;
  while (NextOk(scan.get(), &row, nullptr)) ++count;
  EXPECT_EQ(count, 20);
  // Rejected tuples cost no RSI calls (§3).
  EXPECT_EQ(rss.counters().rsi_calls, 20u);
}

// --- The segment scan's page buffer ---
//
// SegmentScan decodes a page's qualifying tuples under one buffer get and
// hands them out one per Next. These tests pin what that buffer must not
// change: positions after a re-Open or a morsel range, tombstones and
// co-located relations, RSI metering per delivered tuple, and one buffer
// get per page visited.

// Fills relation 0 of a fresh segment with `n` rows (id = insertion order)
// and returns the heap.
HeapFile* FillRelation(Rss* rss, int n) {
  SegmentId seg = rss->CreateSegment();
  HeapFile* heap = rss->CreateHeap(seg, 0);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(heap->Insert(MakeRow(i, std::string(40, 'p'))).ok());
  }
  return heap;
}

// Drains `scan`, returning the ids (column 0) it delivered.
std::vector<int64_t> DrainIds(RsiScan* scan, std::vector<Tid>* tids = nullptr) {
  std::vector<int64_t> ids;
  Row row;
  Tid tid;
  while (NextOk(scan, &row, &tid)) {
    ids.push_back(row[0].AsInt());
    if (tids != nullptr) tids->push_back(tid);
  }
  return ids;
}

TEST(SegmentScanBufferTest, ReopenMidPageStartsOver) {
  Rss rss(16);
  FillRelation(&rss, 300);
  auto scan = rss.OpenSegmentScan(0, {});
  ASSERT_TRUE(scan->Open().ok());
  Row row;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(NextOk(scan.get(), &row, nullptr));
    EXPECT_EQ(row[0].AsInt(), i);
  }
  // The rest of the first page is still buffered; a re-Open drops it.
  ASSERT_TRUE(scan->Open().ok());
  std::vector<int64_t> ids = DrainIds(scan.get());
  ASSERT_EQ(ids.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(ids[i], i);
}

TEST(SegmentScanBufferTest, PageRangeMorselDropsBufferedTuples) {
  Rss rss(16);
  HeapFile* heap = FillRelation(&rss, 300);
  const std::vector<PageId>& pages = heap->segment()->pages();
  ASSERT_GE(pages.size(), 3u);
  auto owned = rss.OpenSegmentScan(0, {});
  auto* scan = static_cast<SegmentScan*>(owned.get());
  ASSERT_TRUE(scan->Open().ok());
  Row row;
  ASSERT_TRUE(NextOk(scan, &row, nullptr));  // Buffers page 0.

  // Morsel [1, 2): exactly the tuples of page 1, none left over from page 0.
  scan->SetPageRange(1, 2);
  ASSERT_TRUE(scan->Open().ok());
  std::vector<Tid> tids;
  std::vector<int64_t> ids = DrainIds(scan, &tids);
  ASSERT_FALSE(ids.empty());
  for (const Tid& t : tids) EXPECT_EQ(t.page, pages[1]);
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], ids[i - 1] + 1);

  // The three morsels [0,1), [1,2), [2,end) together cover the relation.
  size_t total = 0;
  for (auto [b, e] : {std::pair<size_t, size_t>{0, 1}, {1, 2}, {2, SIZE_MAX}}) {
    scan->SetPageRange(b, e);
    ASSERT_TRUE(scan->Open().ok());
    total += DrainIds(scan).size();
  }
  EXPECT_EQ(total, 300u);
}

TEST(SegmentScanBufferTest, SkipsTombstonesAndColocatedTuples) {
  Rss rss(16);
  SegmentId seg = rss.CreateSegment();
  HeapFile* h0 = rss.CreateHeap(seg, 0);
  HeapFile* h1 = rss.CreateHeap(seg, 1);
  std::vector<Tid> tids0;
  for (int i = 0; i < 200; ++i) {
    auto t = h0->Insert(MakeRow(i, "zero"));
    ASSERT_TRUE(t.ok());
    tids0.push_back(*t);
    ASSERT_TRUE(h1->Insert(MakeRow(i, "one")).ok());
  }
  // Tombstone every third tuple of relation 0, including a page's first.
  for (int i = 0; i < 200; i += 3) ASSERT_TRUE(h0->Delete(tids0[i]).ok());

  auto scan0 = rss.OpenSegmentScan(0, {});
  ASSERT_TRUE(scan0->Open().ok());
  std::vector<Tid> got_tids;
  std::vector<int64_t> ids = DrainIds(scan0.get(), &got_tids);
  std::vector<int64_t> want;
  for (int i = 0; i < 200; ++i) {
    if (i % 3 != 0) want.push_back(i);
  }
  EXPECT_EQ(ids, want);
  // Every delivered TID addresses the delivered tuple.
  for (size_t i = 0; i < ids.size(); ++i) {
    Row row;
    ASSERT_TRUE(h0->ReadTuple(got_tids[i], &row).ok());
    EXPECT_EQ(row[0].AsInt(), ids[i]);
  }

  auto scan1 = rss.OpenSegmentScan(1, {});
  ASSERT_TRUE(scan1->Open().ok());
  EXPECT_EQ(DrainIds(scan1.get()).size(), 200u);
}

TEST(SegmentScanBufferTest, EarlyStopMetersOnlyDeliveredTuples) {
  Rss rss(16);
  HeapFile* heap = FillRelation(&rss, 300);
  const PageId first = heap->segment()->pages()[0];
  auto scan = rss.OpenSegmentScan(0, {});
  ASSERT_TRUE(scan->Open().ok());
  MeterCounters meter;
  MeterScope scope(&meter);
  uint64_t before = rss.counters().rsi_calls;
  const uint64_t k = 3;
  Row row;
  Tid tid;
  for (uint64_t i = 0; i < k; ++i) {
    ASSERT_TRUE(NextOk(scan.get(), &row, &tid));
    EXPECT_EQ(tid.page, first);
  }
  // The page holds more than k tuples (all decoded), but only k were taken.
  EXPECT_EQ(rss.counters().rsi_calls - before, k);
  EXPECT_EQ(meter.rsi_calls, k);
  EXPECT_EQ(meter.logical_gets, 1u);
}

TEST(SegmentScanBufferTest, FullScanMakesOneBufferGetPerPage) {
  Rss rss(16);
  HeapFile* heap = FillRelation(&rss, 2000);
  size_t pages = heap->segment()->num_pages();
  ASSERT_GT(pages, 4u);
  rss.pool().ResetStats();
  auto scan = rss.OpenSegmentScan(0, {});
  ASSERT_TRUE(scan->Open().ok());
  EXPECT_EQ(DrainIds(scan.get()).size(), 2000u);
  EXPECT_EQ(rss.pool().stats().logical_gets, pages);
}

}  // namespace
}  // namespace systemr
