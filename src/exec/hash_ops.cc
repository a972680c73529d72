#include "exec/hash_ops.h"

#include <cstring>
#include <functional>

namespace systemr {

size_t HashValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      // NULL keys are skipped by both operators; the constant only matters
      // for multi-column group keys containing NULL.
      return 0x9e3779b97f4a7c15ull;
    case ValueType::kInt64:
    case ValueType::kDouble: {
      // Hash the numeric value so Int(1) and Real(1.0) — equal under
      // Value::Compare — land in the same bucket. Every int64 the engine
      // produces from storage fits a double's exact range in practice;
      // collisions from rounding are resolved by the Compare verification.
      double d = v.AsNumber();
      if (d == 0.0) d = 0.0;  // Normalize -0.0 to +0.0 (they compare equal).
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return std::hash<uint64_t>{}(bits);
    }
    case ValueType::kString:
      return std::hash<std::string>{}(v.AsStr());
  }
  return 0;
}

Status FillHashJoinTable(ExecContext* ctx, Operator* build,
                         size_t build_offset, size_t inner_offset,
                         size_t inner_width, HashJoinTable* table) {
  table->rows.clear();
  table->index.clear();
  Row r;
  while (true) {
    RETURN_IF_ERROR(ctx->CheckInterrupts());
    bool has = false;
    RETURN_IF_ERROR(build->Next(&r, &has));
    if (!has) break;
    const Value& key = r[build_offset];
    if (key.is_null()) continue;  // NULL keys never join.
    uint32_t slot = static_cast<uint32_t>(table->rows.size());
    table->rows.emplace_back(r.begin() + inner_offset,
                             r.begin() + inner_offset + inner_width);
    table->index[HashValue(key)].push_back(slot);
    ++ctx->counters().hash_build_rows;
  }
  return Status::OK();
}

HashJoinOp::HashJoinOp(ExecContext* ctx, const BoundQueryBlock* block,
                       const PlanNode* node, std::unique_ptr<Operator> outer,
                       std::unique_ptr<Operator> build)
    : ctx_(ctx),
      block_(block),
      node_(node),
      outer_(std::move(outer)),
      build_(std::move(build)),
      probe_offset_(node->merge_outer_offset),
      build_offset_(node->merge_inner_offset),
      inner_offset_(node->inner_offset),
      inner_width_(node->inner_width) {
  residual_.CompilePreds(&node->residual);
}

Status HashJoinOp::BuildTable() {
  matches_ = nullptr;
  if (const HashJoinTable* shared = ctx_->SharedBuildFor(node_)) {
    table_ = shared;  // Pre-built serially by the exchange; read-only here.
    return Status::OK();
  }
  RETURN_IF_ERROR(FillHashJoinTable(ctx_, build_.get(), build_offset_,
                                    inner_offset_, inner_width_,
                                    &own_table_));
  table_ = &own_table_;
  return Status::OK();
}

Status HashJoinOp::Open() {
  RETURN_IF_ERROR(outer_->Open());
  if (build_ != nullptr) RETURN_IF_ERROR(build_->Open());
  return BuildTable();
}

Status HashJoinOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(outer_->Rebind(outer));
  if (build_ != nullptr) RETURN_IF_ERROR(build_->Rebind(outer));
  return BuildTable();
}

Status HashJoinOp::Next(Row* out, bool* has_row) {
  ExecContext::Counters& counters = ctx_->counters();
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      RETURN_IF_ERROR(ctx_->CheckInterrupts());
      const std::vector<Value>& slice =
          table_->rows[(*matches_)[match_pos_++]];
      // Bucket verification: hash collisions resolve here.
      if (composite_[probe_offset_].Compare(
              slice[build_offset_ - inner_offset_]) != 0) {
        continue;
      }
      for (size_t j = 0; j < inner_width_; ++j) {
        composite_[inner_offset_ + j] = slice[j];
      }
      ++counters.batch_rows_in;
      bool ok;
      RETURN_IF_ERROR(residual_.EvalBool(ctx_, composite_, &ok));
      if (!ok) continue;
      ++counters.batch_rows_out;
      *out = composite_;
      *has_row = true;
      return Status::OK();
    }
    // Bucket exhausted: probe with the next outer row.
    matches_ = nullptr;
    bool has;
    RETURN_IF_ERROR(outer_->Next(&composite_, &has));
    if (!has) {
      *has_row = false;
      return Status::OK();
    }
    ++counters.hash_probe_rows;
    const Value& key = composite_[probe_offset_];
    if (key.is_null()) continue;
    auto it = table_->index.find(HashValue(key));
    if (it != table_->index.end()) {
      matches_ = &it->second;
      match_pos_ = 0;
    }
  }
}

void GroupTable::Reset(const PlanNode* node) {
  if (node != node_) {
    node_ = node;
    funcs_.Compile(node);
  }
  groups_.clear();
  index_.clear();
}

size_t GroupTable::HashGroupKey(const Row& row) const {
  size_t h = 14695981039346656037ull;
  for (size_t off : node_->group_offsets) {
    h = (h ^ HashValue(row[off])) * 1099511628211ull;
  }
  return h;
}

bool GroupTable::SameGroup(const Row& a, const Row& b) const {
  for (size_t off : node_->group_offsets) {
    if (a[off].Compare(b[off]) != 0) return false;
  }
  return true;
}

Status GroupTable::Accept(ExecContext* ctx, const Row& row) {
  std::vector<uint32_t>& bucket = index_[HashGroupKey(row)];
  Group* g = nullptr;
  for (uint32_t gi : bucket) {
    if (SameGroup(groups_[gi].rep, row)) {
      g = &groups_[gi];
      break;
    }
  }
  if (g == nullptr) {
    bucket.push_back(static_cast<uint32_t>(groups_.size()));
    groups_.emplace_back();
    g = &groups_.back();
    g->rep = row;
    funcs_.ResetStates(&g->states);
  }
  return funcs_.Accept(ctx, row, &g->states);
}

void GroupTable::MergeFrom(GroupTable* other) {
  for (Group& og : other->groups_) {
    std::vector<uint32_t>& bucket = index_[HashGroupKey(og.rep)];
    Group* g = nullptr;
    for (uint32_t gi : bucket) {
      if (SameGroup(groups_[gi].rep, og.rep)) {
        g = &groups_[gi];
        break;
      }
    }
    if (g == nullptr) {
      bucket.push_back(static_cast<uint32_t>(groups_.size()));
      groups_.push_back(std::move(og));
    } else {
      MergeAggStates(&g->states, og.states);
    }
  }
  other->groups_.clear();
  other->index_.clear();
}

void GroupTable::EnsureScalarGroup(size_t row_width) {
  if (!groups_.empty() || !node_->group_offsets.empty()) return;
  groups_.emplace_back();
  groups_.back().rep = Row(row_width);
  funcs_.ResetStates(&groups_.back().states);
}

HashGroupByOp::HashGroupByOp(ExecContext* ctx, const BoundQueryBlock* block,
                             const PlanNode* node,
                             std::unique_ptr<Operator> child)
    : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {}

Status HashGroupByOp::BuildGroups() {
  table_.Reset(node_);
  while (true) {
    RETURN_IF_ERROR(ctx_->CheckInterrupts());
    bool has = false;
    RETURN_IF_ERROR(child_->Next(&in_, &has));
    if (!has) break;
    RETURN_IF_ERROR(table_.Accept(ctx_, in_));
  }
  // Scalar aggregate over an empty input still yields one row (COUNT = 0,
  // others NULL) — unless HAVING rejects it. Never planned today (the
  // optimizer only prices hash aggregation for GROUP BY blocks), but the
  // operator honors the SQL contract regardless.
  table_.EnsureScalarGroup(block_->row_width);
  return Status::OK();
}

Status HashGroupByOp::Open() {
  RETURN_IF_ERROR(child_->Open());
  RETURN_IF_ERROR(BuildGroups());
  emit_idx_ = 0;
  return Status::OK();
}

Status HashGroupByOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(child_->Rebind(outer));
  RETURN_IF_ERROR(BuildGroups());
  emit_idx_ = 0;
  return Status::OK();
}

Status HashGroupByOp::Next(Row* out, bool* has_row) {
  const std::vector<GroupTable::Group>& groups = table_.groups();
  while (emit_idx_ < groups.size()) {
    const GroupTable::Group& g = groups[emit_idx_++];
    bool keep;
    RETURN_IF_ERROR(
        table_.funcs().EmitGroup(ctx_, g.rep, g.states, out, &keep));
    if (!keep) continue;
    *has_row = true;
    return Status::OK();
  }
  *has_row = false;
  return Status::OK();
}

}  // namespace systemr
