#include "exec/expr_program.h"

#include <algorithm>

#include "exec/expr_eval.h"
#include "exec/subquery_eval.h"

namespace systemr {

namespace {

inline bool Truthy(const Value& v) { return !v.is_null() && v.AsInt() != 0; }

// True if `e` depends on nothing but literals: no columns (local or outer),
// no subqueries, no aggregates — safe to evaluate once at compile time.
bool IsConstExpr(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExprKind::kLiteral:
      return true;
    case BoundExprKind::kColumn:
    case BoundExprKind::kSubquery:
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kAggregate:
    // A ? host variable is NEVER a compile-time constant: its value changes
    // between executions of the same compiled program.
    case BoundExprKind::kParameter:
      return false;
    default:
      break;
  }
  if (e.children.empty()) return false;
  for (const auto& c : e.children) {
    if (!IsConstExpr(*c)) return false;
  }
  return true;
}

const Row kEmptyRow;

bool ValueLess(const Value& a, const Value& b) { return a.Compare(b) < 0; }

}  // namespace

uint32_t ExprProgram::AddConst(Value v) {
  consts_.push_back(std::move(v));
  return static_cast<uint32_t>(consts_.size() - 1);
}

ExprProgram::Step& ExprProgram::EmitStep(Op op, uint32_t a) {
  steps_.emplace_back();
  steps_.back().op = op;
  steps_.back().a = a;
  return steps_.back();
}

bool ExprProgram::FoldConst(const BoundExpr& e, Value* out) {
  if (e.kind == BoundExprKind::kLiteral) {
    *out = e.literal;
    return true;
  }
  ExprProgram sub;
  sub.fold_ = false;
  sub.Emit(e);
  sub.Finish();
  // A constant subtree never touches the context or the row.
  const Value* top = nullptr;
  if (!sub.Run(nullptr, kEmptyRow, nullptr, &top).ok()) return false;
  *out = *top;
  return true;
}

void ExprProgram::Emit(const BoundExpr& e) {
  Value folded;
  if (fold_ && e.kind != BoundExprKind::kLiteral && IsConstExpr(e) &&
      FoldConst(e, &folded)) {
    EmitStep(Op::kPushConst, AddConst(std::move(folded)));
    return;
  }
  switch (e.kind) {
    case BoundExprKind::kColumn:
      if (e.outer_level == 0) {
        EmitStep(Op::kPushColumn, static_cast<uint32_t>(e.offset));
      } else {
        EmitStep(Op::kPushOuter, static_cast<uint32_t>(e.outer_level)).b =
            static_cast<uint32_t>(e.offset);
      }
      return;
    case BoundExprKind::kLiteral:
      EmitStep(Op::kPushConst, AddConst(e.literal));
      return;
    case BoundExprKind::kParameter:
      EmitStep(Op::kPushParam, static_cast<uint32_t>(e.param_idx));
      return;
    case BoundExprKind::kCompare:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      EmitStep(Op::kCompare).cmp = e.op;
      return;
    case BoundExprKind::kAnd:
    case BoundExprKind::kOr: {
      Emit(*e.children[0]);
      size_t jump = steps_.size();
      EmitStep(e.kind == BoundExprKind::kAnd ? Op::kJumpIfFalse
                                             : Op::kJumpIfTrue);
      Emit(*e.children[1]);
      EmitStep(Op::kToBool);
      steps_[jump].a = static_cast<uint32_t>(steps_.size());
      return;
    }
    case BoundExprKind::kNot:
      Emit(*e.children[0]);
      EmitStep(Op::kNot);
      return;
    case BoundExprKind::kArith:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      EmitStep(Op::kArith).arith = e.arith_op;
      return;
    case BoundExprKind::kBetween:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      Emit(*e.children[2]);
      EmitStep(Op::kBetween);
      return;
    case BoundExprKind::kInList: {
      Emit(*e.children[0]);
      // An all-constant list is evaluated and sorted once; NULL items can
      // never match (x = NULL is false), so they are dropped outright.
      std::vector<Value> items;
      bool all_const = true;
      for (size_t i = 1; all_const && i < e.children.size(); ++i) {
        Value v;
        const BoundExpr& item = *e.children[i];
        all_const = IsConstExpr(item) && FoldConst(item, &v);
        if (all_const && !v.is_null()) items.push_back(std::move(v));
      }
      if (all_const) {
        std::sort(items.begin(), items.end(), ValueLess);
        EmitStep(Op::kInSortedConsts, static_cast<uint32_t>(lists_.size()));
        lists_.push_back(std::move(items));
        return;
      }
      for (size_t i = 1; i < e.children.size(); ++i) Emit(*e.children[i]);
      EmitStep(Op::kInRow, static_cast<uint32_t>(e.children.size() - 1));
      return;
    }
    case BoundExprKind::kInSubquery:
      Emit(*e.children[0]);
      EmitStep(Op::kInSubquery).subquery = e.subquery.get();
      return;
    case BoundExprKind::kSubquery:
      EmitStep(Op::kScalarSubquery).subquery = e.subquery.get();
      return;
    case BoundExprKind::kAggregate: {
      // Index of this leaf among the caller's aggregate results; an unknown
      // leaf gets an index past the end, which Run reports as an error.
      uint32_t idx = UINT32_MAX;
      if (agg_leaves_ != nullptr) {
        auto it = std::find(agg_leaves_->begin(), agg_leaves_->end(), &e);
        if (it != agg_leaves_->end()) {
          idx = static_cast<uint32_t>(it - agg_leaves_->begin());
        }
      }
      EmitStep(Op::kPushAgg, idx);
      return;
    }
    case BoundExprKind::kIsNull:
      Emit(*e.children[0]);
      EmitStep(Op::kIsNull).negated = e.negated;
      return;
    case BoundExprKind::kLike:
      Emit(*e.children[0]);
      Emit(*e.children[1]);
      EmitStep(Op::kLike).negated = e.negated;
      return;
  }
}

void ExprProgram::Finish() {
  // Each step pushes at most one net slot, so this bound never reallocates.
  stack_.resize(steps_.size() + 1);
}

void ExprProgram::CompileExpr(const BoundExpr* e,
                              const std::vector<const BoundExpr*>* aggs) {
  steps_.clear();
  consts_.clear();
  lists_.clear();
  agg_leaves_ = aggs;
  Emit(*e);
  agg_leaves_ = nullptr;
  Finish();
}

void ExprProgram::CompilePreds(const std::vector<const BoundExpr*>* preds) {
  steps_.clear();
  consts_.clear();
  lists_.clear();
  if (preds->empty()) {
    EmitStep(Op::kPushConst, AddConst(Value::Int(1)));
  } else {
    std::vector<size_t> jumps;
    for (size_t i = 0; i < preds->size(); ++i) {
      Emit(*(*preds)[i]);
      if (i + 1 < preds->size()) {
        jumps.push_back(steps_.size());
        EmitStep(Op::kJumpIfFalse);
      }
    }
    EmitStep(Op::kToBool);
    for (size_t j : jumps) steps_[j].a = static_cast<uint32_t>(steps_.size());
  }
  Finish();
}

Status ExprProgram::Run(ExecContext* ctx, const Row& row,
                        const std::vector<Value>* aggs, const Value** top) {
  Slot* stack = stack_.data();
  size_t sp = 0;
  const size_t n = steps_.size();
  for (size_t pc = 0; pc < n; ++pc) {
    const Step& s = steps_[pc];
    switch (s.op) {
      case Op::kPushColumn:
        if (s.a >= row.size()) {
          return Status::Internal("column offset out of range");
        }
        stack[sp++].ref = &row[s.a];
        break;
      case Op::kPushOuter:
        stack[sp++].ref = &ctx->OuterValue(static_cast<int>(s.a), s.b);
        break;
      case Op::kPushConst:
        stack[sp++].ref = &consts_[s.a];
        break;
      case Op::kPushParam: {
        const std::vector<Value>* params = ctx->params();
        if (params == nullptr || s.a >= params->size()) {
          return Status::InvalidArgument("parameter ?" +
                                         std::to_string(s.a + 1) +
                                         " is not bound");
        }
        stack[sp++].ref = &(*params)[s.a];
        break;
      }
      case Op::kCompare: {
        const Value& rhs = *stack[--sp].ref;
        const Value& lhs = *stack[--sp].ref;
        Slot& dst = stack[sp++];
        dst.owned = Value::Int(EvalCompare(s.cmp, lhs, rhs) ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kArith: {
        const Value& rhs = *stack[--sp].ref;
        const Value& lhs = *stack[--sp].ref;
        Slot& dst = stack[sp++];
        RETURN_IF_ERROR(EvalArithInto(s.arith, lhs, rhs, &dst.owned));
        dst.ref = &dst.owned;
        break;
      }
      case Op::kNot: {
        Slot& slot = stack[sp - 1];
        slot.owned = Value::Int(Truthy(*slot.ref) ? 0 : 1);
        slot.ref = &slot.owned;
        break;
      }
      case Op::kToBool: {
        Slot& slot = stack[sp - 1];
        slot.owned = Value::Int(Truthy(*slot.ref) ? 1 : 0);
        slot.ref = &slot.owned;
        break;
      }
      case Op::kIsNull: {
        Slot& slot = stack[sp - 1];
        bool isnull = slot.ref->is_null();
        slot.owned = Value::Int((s.negated ? !isnull : isnull) ? 1 : 0);
        slot.ref = &slot.owned;
        break;
      }
      case Op::kBetween: {
        const Value& hi = *stack[--sp].ref;
        const Value& lo = *stack[--sp].ref;
        Slot& dst = stack[sp - 1];
        bool ok = EvalCompare(CompareOp::kGe, *dst.ref, lo) &&
                  EvalCompare(CompareOp::kLe, *dst.ref, hi);
        dst.owned = Value::Int(ok ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kLike: {
        const Value& pattern = *stack[--sp].ref;
        Slot& dst = stack[sp - 1];
        const Value& subject = *dst.ref;
        bool match = !subject.is_null() && !pattern.is_null() &&
                     LikeMatch(subject.AsStr(), pattern.AsStr());
        if (s.negated && !subject.is_null() && !pattern.is_null()) {
          match = !match;
        }
        dst.owned = Value::Int(match ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kInSortedConsts: {
        Slot& dst = stack[sp - 1];
        const Value& v = *dst.ref;
        bool found =
            !v.is_null() && std::binary_search(lists_[s.a].begin(),
                                               lists_[s.a].end(), v, ValueLess);
        dst.owned = Value::Int(found ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kInRow: {
        size_t items = sp - s.a;
        Slot& dst = stack[items - 1];
        const Value& v = *dst.ref;
        bool found = false;
        for (size_t i = items; !found && i < sp; ++i) {
          found = EvalCompare(CompareOp::kEq, v, *stack[i].ref);
        }
        sp = items;
        dst.owned = Value::Int(found ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kJumpIfFalse: {
        const Value& v = *stack[--sp].ref;
        if (!Truthy(v)) {
          Slot& dst = stack[sp++];
          dst.owned = Value::Int(0);
          dst.ref = &dst.owned;
          pc = s.a - 1;  // -1: the loop increment lands on the target.
        }
        break;
      }
      case Op::kJumpIfTrue: {
        const Value& v = *stack[--sp].ref;
        if (Truthy(v)) {
          Slot& dst = stack[sp++];
          dst.owned = Value::Int(1);
          dst.ref = &dst.owned;
          pc = s.a - 1;
        }
        break;
      }
      case Op::kScalarSubquery: {
        StatusOr<Value> v = EvalScalarSubquery(ctx, s.subquery, row);
        if (!v.ok()) return v.status();
        Slot& dst = stack[sp++];
        dst.owned = std::move(*v);
        dst.ref = &dst.owned;
        break;
      }
      case Op::kPushAgg:
        if (aggs == nullptr || s.a >= aggs->size()) {
          return Status::Internal(
              "aggregate evaluated outside an aggregation");
        }
        stack[sp++].ref = &(*aggs)[s.a];
        break;
      case Op::kInSubquery: {
        Slot& dst = stack[sp - 1];
        const Value& v = *dst.ref;
        bool found = false;
        if (!v.is_null()) {
          StatusOr<const std::vector<Value>*> list =
              EvalInSubqueryList(ctx, s.subquery, row);
          if (!list.ok()) return list.status();
          found = std::binary_search((*list)->begin(), (*list)->end(), v,
                                     ValueLess);
        }
        dst.owned = Value::Int(found ? 1 : 0);
        dst.ref = &dst.owned;
        break;
      }
    }
  }
  if (sp != 1) return Status::Internal("expression program stack imbalance");
  *top = stack[0].ref;
  return Status::OK();
}

Status ExprProgram::EvalBool(ExecContext* ctx, const Row& row, bool* out,
                             const std::vector<Value>* aggs) {
  const Value* top = nullptr;
  RETURN_IF_ERROR(Run(ctx, row, aggs, &top));
  *out = Truthy(*top);
  return Status::OK();
}

Status ExprProgram::EvalValue(ExecContext* ctx, const Row& row, Value* out,
                              const std::vector<Value>* aggs) {
  const Value* top = nullptr;
  RETURN_IF_ERROR(Run(ctx, row, aggs, &top));
  *out = *top;
  return Status::OK();
}

}  // namespace systemr
