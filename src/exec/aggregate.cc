#include "exec/aggregate.h"

namespace systemr {

bool AggregateOp::SameGroup(const Row& a, const Row& b) const {
  for (size_t off : node_->group_offsets) {
    if (a[off].Compare(b[off]) != 0) return false;
  }
  return true;
}

AggregateOp::AggregateOp(ExecContext* ctx, const BoundQueryBlock* block,
                         const PlanNode* node,
                         std::unique_ptr<Operator> child)
    : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {
  funcs_.Compile(node_);
  funcs_.ResetStates(&states_);
}

Status AggregateOp::Open() {
  RETURN_IF_ERROR(child_->Open());
  return Restart();
}

Status AggregateOp::Rebind(const Row* outer) {
  RETURN_IF_ERROR(child_->Rebind(outer));
  return Restart();
}

Status AggregateOp::Restart() {
  funcs_.ResetStates(&states_);
  group_open_ = false;
  pending_valid_ = false;
  done_ = false;
  emitted_any_ = false;
  return child_->Next(&pending_, &pending_valid_);
}

Status AggregateOp::Next(Row* out, bool* has_row) {
  if (done_) {
    *has_row = false;
    return Status::OK();
  }
  while (pending_valid_) {
    if (!group_open_) {
      group_rep_ = pending_;
      funcs_.ResetStates(&states_);
      group_open_ = true;
    }
    if (!SameGroup(group_rep_, pending_)) {
      // Group boundary: emit if HAVING passes, else skip the group.
      group_open_ = false;
      bool keep;
      RETURN_IF_ERROR(funcs_.EmitGroup(ctx_, group_rep_, states_, out, &keep));
      if (!keep) continue;
      emitted_any_ = true;
      *has_row = true;
      return Status::OK();
    }
    RETURN_IF_ERROR(funcs_.Accept(ctx_, pending_, &states_));
    RETURN_IF_ERROR(child_->Next(&pending_, &pending_valid_));
  }
  // End of input.
  if (group_open_) {
    group_open_ = false;
    done_ = true;
    bool keep;
    RETURN_IF_ERROR(funcs_.EmitGroup(ctx_, group_rep_, states_, out, &keep));
    *has_row = keep;
    return Status::OK();
  }
  if (!emitted_any_ && node_->group_offsets.empty()) {
    // Scalar aggregate over an empty input still yields one row
    // (COUNT = 0, others NULL) — unless HAVING rejects it.
    group_rep_ = Row(block_->row_width);
    done_ = true;
    emitted_any_ = true;
    funcs_.ResetStates(&states_);
    bool keep;
    RETURN_IF_ERROR(funcs_.EmitGroup(ctx_, group_rep_, states_, out, &keep));
    *has_row = keep;
    return Status::OK();
  }
  done_ = true;
  *has_row = false;
  return Status::OK();
}

}  // namespace systemr
