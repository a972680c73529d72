#include "rss/scan.h"

#include "rss/meter.h"

namespace systemr {

namespace {

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

Status SegmentScan::Open() {
  page_idx_ = range_begin_;
  at_end_ = page_idx_ >= PageLimit();
  buf_len_ = buf_pos_ = 0;
  return Status::OK();
}

Status SegmentScan::DecodePage() {
  buf_len_ = buf_pos_ = 0;
  size_t n = 0;  // Published to buf_len_ only once the page decoded cleanly.
  PageId pid = segment_->pages()[page_idx_];
  ASSIGN_OR_RETURN(Page * page, pool_->Fetch(pid));
  SlottedPage sp(page);
  if (!sp.ValidateHeader()) {
    return Status::DataLoss("corrupt slotted page " + std::to_string(pid));
  }
  for (uint16_t slot = 0; slot < sp.slot_count(); ++slot) {
    std::string_view record;
    switch (sp.ReadSlot(slot, &record)) {
      case SlotState::kEmpty:
        continue;  // Tombstone.
      case SlotState::kCorrupt:
        return Status::DataLoss("corrupt slot directory on page " +
                                std::to_string(pid));
      case SlotState::kLive:
        break;
    }
    RelId rel;
    if (!DecodeRelId(record, &rel)) {
      return Status::DataLoss("undecodable record on page " +
                              std::to_string(pid));
    }
    if (rel != relid_) continue;  // Tuple of a co-located relation.
    if (n == buf_rows_.size()) {
      buf_rows_.emplace_back();
      buf_tids_.emplace_back();
    }
    Row* row = &buf_rows_[n];
    if (!DecodeTuple(record, &rel, row)) {
      return Status::DataLoss("undecodable tuple on page " +
                              std::to_string(pid));
    }
    if (!MatchesAll(sargs_, *row)) continue;
    buf_tids_[n++] = Tid{pid, slot};
  }
  buf_len_ = n;
  if (++page_idx_ >= PageLimit()) at_end_ = true;
  return Status::OK();
}

Status SegmentScan::Next(Row* row, Tid* tid, bool* has_row) {
  *has_row = false;
  while (buf_pos_ == buf_len_) {
    if (at_end_) return Status::OK();
    RETURN_IF_ERROR(DecodePage());
  }
  // Swap rather than copy: the caller's old buffer becomes the decode
  // target for a later page.
  row->swap(buf_rows_[buf_pos_]);
  if (tid != nullptr) *tid = buf_tids_[buf_pos_];
  ++buf_pos_;
  counters_->rsi_calls.fetch_add(1, std::memory_order_relaxed);
  if (MeterCounters* m = CurrentMeter()) ++m->rsi_calls;
  *has_row = true;
  return Status::OK();
}

Status IndexScan::Open() {
  opened_ = true;
  if (range_.start.has_value()) {
    RETURN_IF_ERROR(cursor_.Seek(*range_.start));
    if (!range_.start_inclusive) {
      // Skip entries whose leading key column(s) equal the exclusive start.
      while (cursor_.Valid() && HasPrefix(cursor_.user_key(), *range_.start)) {
        RETURN_IF_ERROR(cursor_.Next());
      }
    }
  } else {
    RETURN_IF_ERROR(cursor_.SeekToFirst());
  }
  return Status::OK();
}

bool IndexScan::InRange() const {
  if (!range_.stop.has_value()) return true;
  const std::string& key = cursor_.user_key();
  const std::string& stop = *range_.stop;
  if (HasPrefix(key, stop)) return range_.stop_inclusive;
  return key.compare(stop) < 0;
}

Status IndexScan::Next(Row* row, Tid* tid, bool* has_row) {
  *has_row = false;
  while (cursor_.Valid() && InRange()) {
    Tid t = cursor_.tid();
    // Decode straight into the caller's buffer — no per-tuple Row.
    Status read = heap_->ReadTuple(t, row);
    RETURN_IF_ERROR(cursor_.Next());
    if (!read.ok()) {
      // A deleted tuple leaves a dangling entry until the index is
      // reorganized — skip it. Anything else (kDataLoss, kIoError,
      // kInternal) is a storage failure and must propagate.
      if (read.code() == StatusCode::kNotFound) continue;
      return read;
    }
    if (!MatchesAll(sargs_, *row)) continue;
    if (tid != nullptr) *tid = t;
    counters_->rsi_calls.fetch_add(1, std::memory_order_relaxed);
    if (MeterCounters* m = CurrentMeter()) ++m->rsi_calls;
    *has_row = true;
    return Status::OK();
  }
  return Status::OK();
}

}  // namespace systemr
