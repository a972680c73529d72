#include "catalog/catalog.h"

#include <mutex>

namespace systemr {

StatusOr<TableInfo*> Catalog::CreateTable(const std::string& name,
                                          Schema schema,
                                          std::optional<SegmentId> segment) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (table_by_name_.count(name) > 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  if (schema.num_columns() == 0) {
    return Status::InvalidArgument("table must have at least one column");
  }
  auto info = std::make_unique<TableInfo>();
  info->id = static_cast<RelId>(tables_.size());
  info->name = name;
  info->schema = std::move(schema);
  info->segment = segment.has_value() ? *segment : rss_->CreateSegment();
  rss_->CreateHeap(info->segment, info->id);
  table_by_name_[name] = info->id;
  tables_.push_back(std::move(info));
  {
    // DDL is auto-committed: logged as a logical record and synced at once.
    TableInfo* t = tables_.back().get();
    WalRecord rec;
    rec.type = WalRecordType::kCreateTable;
    CreateTablePayload payload;
    payload.name = t->name;
    payload.schema = t->schema;
    payload.has_segment = segment.has_value();
    payload.segment = segment.value_or(0);
    rec.payload = EncodeCreateTablePayload(payload);
    rss_->wal().Append(rec);
    rss_->wal().Sync();
  }
  BumpVersion();
  return tables_.back().get();
}

std::string Catalog::ExtractKey(const IndexInfo& info, const Row& row) {
  std::string key;
  for (size_t col : info.key_columns) row[col].EncodeKey(&key);
  return key;
}

StatusOr<IndexInfo*> Catalog::CreateIndex(
    const std::string& index_name, const std::string& table_name,
    const std::vector<std::string>& column_names, bool unique,
    bool clustered) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& existing : indexes_) {
    if (existing != nullptr && existing->name == index_name) {
      return Status::AlreadyExists("index " + index_name + " already exists");
    }
  }
  TableInfo* table = FindTableLocked(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  std::vector<size_t> key_columns;
  for (const std::string& cname : column_names) {
    auto col = table->schema.FindColumn(cname);
    if (!col.has_value()) {
      return Status::NotFound("no such column: " + cname);
    }
    key_columns.push_back(*col);
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("index needs at least one key column");
  }

  BTree* btree = rss_->CreateIndex(unique);
  auto info = std::make_unique<IndexInfo>();
  info->id = btree->id();
  info->name = index_name;
  info->rel = table->id;
  info->key_columns = std::move(key_columns);
  info->unique = unique;
  info->clustered = clustered;

  // Load the existing tuples one B-tree insert at a time, in heap (TID)
  // order: the tree gets exactly the pages, splits and NINDX that inserting
  // the same rows through DML would give it. A sorted bottom-up build would
  // be faster but would pack the leaves differently, changing NINDX and with
  // it every index-access cost estimate and possibly the chosen plans.
  auto scan = rss_->OpenSegmentScan(table->id, {});
  auto load = [&]() -> Status {
    RETURN_IF_ERROR(scan->Open());
    Row row;
    Tid tid;
    while (true) {
      bool has;
      RETURN_IF_ERROR(scan->Next(&row, &tid, &has));
      if (!has) return Status::OK();
      RETURN_IF_ERROR(btree->Insert(ExtractKey(*info, row), tid));
    }
  };
  Status loaded = load();
  scan->Close();
  RETURN_IF_ERROR(loaded);

  table->indexes.push_back(info->id);
  IndexId id = info->id;
  if (indexes_.size() <= id) indexes_.resize(id + 1);
  indexes_[id] = std::move(info);
  {
    // Index contents are not page-logged; recovery re-runs this DDL against
    // the recovered heap (after all data redo), which also rebuilds stats.
    WalRecord rec;
    rec.type = WalRecordType::kCreateIndex;
    CreateIndexPayload payload;
    payload.name = index_name;
    payload.table = table_name;
    payload.columns = column_names;
    payload.unique = unique;
    payload.clustered = clustered;
    rec.payload = EncodeCreateIndexPayload(payload);
    rss_->wal().Append(rec);
    rss_->wal().Sync();
  }
  // "Index creation initializes these statistics" (§4).
  RETURN_IF_ERROR(UpdateStatisticsLocked(table_name));
  BumpVersion();
  return indexes_[id].get();
}

void Catalog::BumpMutationCountersLocked(TableInfo* table) {
  if (table->has_stats &&
      ++table->mutations_since_stats >= kInsertsPerVersionBump) {
    table->stats_stale = true;
  }
  if (++mutations_since_bump_ >= kInsertsPerVersionBump) {
    mutations_since_bump_ = 0;
    BumpVersion();
  }
}

Status Catalog::InsertRowLocked(TableInfo* table, const Row& row,
                                TxnId wal_txn, Tid* out_tid) {
  if (row.size() != table->schema.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != table->schema.column(i).type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     table->schema.column(i).name);
    }
  }
  ASSIGN_OR_RETURN(Tid tid, rss_->heap(table->id)->Insert(row, wal_txn));
  for (size_t k = 0; k < table->indexes.size(); ++k) {
    const IndexInfo& info = *indexes_[table->indexes[k]];
    Status s = rss_->index(info.id)->Insert(ExtractKey(info, row), tid);
    if (!s.ok()) {
      // Row-level atomicity: take back the index entries already made and
      // the heap tuple, so a unique-key violation leaves nothing behind.
      for (size_t j = 0; j < k; ++j) {
        const IndexInfo& prev = *indexes_[table->indexes[j]];
        (void)rss_->index(prev.id)->Delete(ExtractKey(prev, row), tid);
      }
      (void)rss_->heap(table->id)->Delete(tid, wal_txn);
      return s;
    }
  }
  if (out_tid != nullptr) *out_tid = tid;
  return Status::OK();
}

Status Catalog::DeleteRowLocked(TableInfo* table, Tid tid, TxnId wal_txn,
                                Row* old_row, uint16_t* offset) {
  RETURN_IF_ERROR(rss_->heap(table->id)->ReadTuple(tid, old_row));
  for (size_t k = 0; k < table->indexes.size(); ++k) {
    const IndexInfo& info = *indexes_[table->indexes[k]];
    Status s = rss_->index(info.id)->Delete(ExtractKey(info, *old_row), tid);
    if (!s.ok()) {
      for (size_t j = 0; j < k; ++j) {
        const IndexInfo& prev = *indexes_[table->indexes[j]];
        (void)rss_->index(prev.id)->Insert(ExtractKey(prev, *old_row), tid);
      }
      return s;
    }
  }
  Status s = rss_->heap(table->id)->Delete(tid, wal_txn, offset);
  if (!s.ok()) {
    for (IndexId iid : table->indexes) {
      const IndexInfo& info = *indexes_[iid];
      (void)rss_->index(iid)->Insert(ExtractKey(info, *old_row), tid);
    }
    return s;
  }
  return Status::OK();
}

Status Catalog::UndeleteRowLocked(TableInfo* table, Tid tid, uint16_t offset,
                                  const Row& row, TxnId wal_txn) {
  RETURN_IF_ERROR(rss_->heap(table->id)->Undelete(tid, offset, row, wal_txn));
  for (size_t k = 0; k < table->indexes.size(); ++k) {
    const IndexInfo& info = *indexes_[table->indexes[k]];
    Status s = rss_->index(info.id)->Insert(ExtractKey(info, row), tid);
    if (!s.ok()) {
      for (size_t j = 0; j < k; ++j) {
        const IndexInfo& prev = *indexes_[table->indexes[j]];
        (void)rss_->index(prev.id)->Delete(ExtractKey(prev, row), tid);
      }
      (void)rss_->heap(table->id)->Delete(tid, wal_txn);
      return s;
    }
  }
  return Status::OK();
}

Status Catalog::Insert(const std::string& table_name, const Row& row,
                       Txn* txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  TableInfo* table = FindTableLocked(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  Tid tid;
  RETURN_IF_ERROR(InsertRowLocked(table, row,
                                  txn != nullptr ? txn->id() : kSystemTxn,
                                  &tid));
  if (txn != nullptr) {
    UndoOp op;
    op.kind = UndoOp::Kind::kDeleteInserted;
    op.table = table_name;
    op.tid = tid;
    txn->PushUndo(std::move(op));
  }
  BumpMutationCountersLocked(table);
  return Status::OK();
}

Status Catalog::DeleteRow(const std::string& table_name, Tid tid, Txn* txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  TableInfo* table = FindTableLocked(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  Row old_row;
  uint16_t offset = 0;
  RETURN_IF_ERROR(DeleteRowLocked(table, tid,
                                  txn != nullptr ? txn->id() : kSystemTxn,
                                  &old_row, &offset));
  if (txn != nullptr) {
    UndoOp op;
    op.kind = UndoOp::Kind::kReinsertDeleted;
    op.table = table_name;
    op.tid = tid;
    op.offset = offset;
    op.row = std::move(old_row);
    txn->PushUndo(std::move(op));
  }
  BumpMutationCountersLocked(table);
  return Status::OK();
}

Status Catalog::UpdateRow(const std::string& table_name, Tid tid,
                          const Row& new_row, Txn* txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  TableInfo* table = FindTableLocked(table_name);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + table_name);
  }
  TxnId wal_txn = txn != nullptr ? txn->id() : kSystemTxn;
  Tid old_tid = tid;
  Row old_row;
  uint16_t old_offset = 0;
  RETURN_IF_ERROR(DeleteRowLocked(table, tid, wal_txn, &old_row, &old_offset));
  Status s = InsertRowLocked(table, new_row, wal_txn, &tid);
  if (!s.ok()) {
    // Restore the old image in place at its original TID: the statement
    // leaves no effects at all, so there is nothing for an enclosing
    // rollback to track.
    Status r = UndeleteRowLocked(table, old_tid, old_offset, old_row, wal_txn);
    if (!r.ok()) {
      return Status::DataLoss("update rollback failed: " + r.message() +
                              " (after: " + s.message() + ")");
    }
    return s;
  }
  if (txn != nullptr) {
    UndoOp del;
    del.kind = UndoOp::Kind::kReinsertDeleted;
    del.table = table_name;
    del.tid = old_tid;
    del.offset = old_offset;
    del.row = std::move(old_row);
    txn->PushUndo(std::move(del));
    UndoOp ins;
    ins.kind = UndoOp::Kind::kDeleteInserted;
    ins.table = table_name;
    ins.tid = tid;
    txn->PushUndo(std::move(ins));
  }
  BumpMutationCountersLocked(table);
  return Status::OK();
}

Status Catalog::ApplyUndo(const UndoOp& op, TxnId wal_txn) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  TableInfo* table = FindTableLocked(op.table);
  if (table == nullptr) {
    return Status::Internal("undo references missing table " + op.table);
  }
  switch (op.kind) {
    case UndoOp::Kind::kDeleteInserted: {
      Row old_row;
      RETURN_IF_ERROR(DeleteRowLocked(table, op.tid, wal_txn, &old_row));
      break;
    }
    case UndoOp::Kind::kReinsertDeleted:
      RETURN_IF_ERROR(
          UndeleteRowLocked(table, op.tid, op.offset, op.row, wal_txn));
      break;
  }
  BumpMutationCountersLocked(table);
  return Status::OK();
}

TableInfo* Catalog::FindTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindTableLocked(name);
}

const TableInfo* Catalog::FindTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return FindTableLocked(name);
}

TableInfo* Catalog::FindTableLocked(const std::string& name) {
  auto it = table_by_name_.find(name);
  if (it == table_by_name_.end()) return nullptr;
  return tables_[it->second].get();
}

const TableInfo* Catalog::FindTableLocked(const std::string& name) const {
  auto it = table_by_name_.find(name);
  if (it == table_by_name_.end()) return nullptr;
  return tables_[it->second].get();
}

}  // namespace systemr
