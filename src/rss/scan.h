// The RSI (RSS Interface): tuple-at-a-time scans with OPEN / NEXT / CLOSE
// (§3). Two scan types exist, exactly as in the paper:
//  - SegmentScan: touches every page of the segment once, returning tuples of
//    the requested relation;
//  - IndexScan: walks the chained B+-tree leaves between optional start and
//    stop keys, fetching the data tuple for each qualifying entry.
// Both apply SARGs below the interface: a tuple rejected by the SARGs costs
// no RSI call.
#ifndef SYSTEMR_RSS_SCAN_H_
#define SYSTEMR_RSS_SCAN_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "rss/btree.h"
#include "rss/heap_file.h"
#include "rss/sarg.h"

namespace systemr {

/// Counters shared by all scans of one RSS instance (atomic: scans from
/// concurrent sessions increment them). RSI calls approximate CPU cost in
/// the paper's COST formula (§4).
struct RssCounters {
  std::atomic<uint64_t> rsi_calls{0};
};

/// A scan takes a *set* of SARGs — the conjunction of the sargable boolean
/// factors, each of which is itself a DNF (§3/§4).
using SargList = std::vector<Sarg>;

inline bool MatchesAll(const SargList& sargs, const Row& row) {
  for (const Sarg& s : sargs) {
    if (!s.Matches(row)) return false;
  }
  return true;
}

class RsiScan {
 public:
  virtual ~RsiScan() = default;

  /// Positions the scan at the start. May be called repeatedly: a re-Open
  /// resets the position, so one scan object serves every probe of a
  /// nested-loop inner or correlated subquery.
  virtual Status Open() = 0;

  /// Advances to the next qualifying tuple. On success sets *has_row: true
  /// with the tuple in *row, false when the scan is exhausted. Each tuple
  /// delivered counts one RSI call. `*row` is used as a decode buffer: it may
  /// be overwritten even for tuples the SARGs reject, and holds the accepted
  /// tuple only when *has_row is true. Storage failures (kDataLoss, kIoError,
  /// kInternal) return non-OK; only a dangling index entry (the tuple was
  /// deleted) is skipped silently.
  virtual Status Next(Row* row, Tid* tid, bool* has_row) = 0;

  /// Mutable view of the scan's SARGs, so dynamically-bound terms (§5 join
  /// SARGs) can be updated in place between re-Opens instead of rebuilding
  /// the scan.
  virtual SargList* mutable_sargs() = 0;

  virtual void Close() = 0;
};

/// Segment scan with a page buffer: when its buffer is empty, Next decodes
/// every qualifying tuple of the next page under one buffer get, then hands
/// them out one per call. A scan therefore pays one buffer get per page
/// visited, and an RSI call is metered only when a tuple is delivered — a
/// consumer that stops early pays for exactly the tuples it took.
class SegmentScan : public RsiScan {
 public:
  SegmentScan(BufferPool* pool, const Segment* segment, RelId relid,
              SargList sargs, RssCounters* counters)
      : pool_(pool),
        segment_(segment),
        relid_(relid),
        sargs_(std::move(sargs)),
        counters_(counters) {}

  Status Open() override;
  Status Next(Row* row, Tid* tid, bool* has_row) override;
  SargList* mutable_sargs() override { return &sargs_; }
  void Close() override {}

  /// Restricts the scan to segment pages [begin, end) — the morsel contract
  /// for parallel execution. The range persists across re-Opens (Open resets
  /// the position to `begin`); `end` is clamped to the segment size. The
  /// default range covers the whole segment. Drops any buffered tuples.
  void SetPageRange(size_t begin, size_t end) {
    range_begin_ = begin;
    range_end_ = end;
    buf_len_ = buf_pos_ = 0;
  }

 private:
  size_t PageLimit() const {
    return range_end_ < segment_->pages().size() ? range_end_
                                                 : segment_->pages().size();
  }
  /// Refills the page buffer from page `page_idx_` and advances past it.
  Status DecodePage();

  BufferPool* pool_;
  const Segment* segment_;
  RelId relid_;
  SargList sargs_;
  RssCounters* counters_;

  size_t page_idx_ = 0;  // Next page to decode.
  bool at_end_ = false;  // No page left to decode.
  size_t range_begin_ = 0;
  size_t range_end_ = SIZE_MAX;  // Exclusive; SIZE_MAX = whole segment.

  // Page buffer: buf_rows_[buf_pos_..buf_len_) are the decoded, qualifying
  // tuples of the last page not yet delivered. Rows are swapped out to the
  // caller, so their storage is reused from page to page.
  std::vector<Row> buf_rows_;
  std::vector<Tid> buf_tids_;
  size_t buf_len_ = 0;
  size_t buf_pos_ = 0;
};

/// Key range for an index scan. Bounds are user-key encodings (possibly a
/// prefix of the full index key).
struct KeyRange {
  std::optional<std::string> start;
  bool start_inclusive = true;
  std::optional<std::string> stop;
  bool stop_inclusive = true;
};

class IndexScan : public RsiScan {
 public:
  IndexScan(const BTree* index, const HeapFile* heap, KeyRange range,
            SargList sargs, RssCounters* counters)
      : index_(index),
        heap_(heap),
        range_(std::move(range)),
        sargs_(std::move(sargs)),
        counters_(counters),
        cursor_(index->NewCursor()) {}

  Status Open() override;
  Status Next(Row* row, Tid* tid, bool* has_row) override;
  SargList* mutable_sargs() override { return &sargs_; }
  void Close() override {}

  /// Replaces the key range before a re-Open (nested-loop rebinding).
  void set_range(KeyRange range) { range_ = std::move(range); }

 private:
  /// True if the cursor's current key is within the stop bound.
  bool InRange() const;

  const BTree* index_;
  const HeapFile* heap_;
  KeyRange range_;
  SargList sargs_;
  RssCounters* counters_;
  BTree::Cursor cursor_;
  bool opened_ = false;
};

}  // namespace systemr

#endif  // SYSTEMR_RSS_SCAN_H_
