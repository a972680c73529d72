// Compiled predicate/value programs — the executor's stand-in for System R's
// generated access-module code (§2), and its only expression evaluator. A
// BoundExpr tree is flattened ONCE, at operator construction, into a postfix
// array of small steps evaluated with an explicit value stack: no recursion,
// no StatusOr<Value> temporaries on the hot path, constant sub-expressions
// folded at compile time (by running their own compiled sub-program), and
// AND/OR short-circuiting via jump steps. Column and constant operands are
// pushed by reference, so a comparison over two columns touches no Value
// copies at all.
//
// Every expression kind compiles, aggregate leaves included: a leaf becomes
// a step that reads the finished aggregate results the caller passes in
// (see AggFunctionSet), so HAVING and SELECT over groups run the same
// programs as WHERE.
#ifndef SYSTEMR_EXEC_EXPR_PROGRAM_H_
#define SYSTEMR_EXEC_EXPR_PROGRAM_H_

#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "optimizer/bound_expr.h"

namespace systemr {

class ExprProgram {
 public:
  ExprProgram() = default;

  /// Compiles `e` (owned by the plan, which outlives the operator) for
  /// repeated evaluation. `aggs` lists the aggregate expressions whose
  /// results the caller will pass to Eval*, in that order; an aggregate leaf
  /// of `e` compiles to a read of its result. Without `aggs`, evaluating an
  /// aggregate leaf is an internal error.
  void CompileExpr(const BoundExpr* e,
                   const std::vector<const BoundExpr*>* aggs = nullptr);

  /// Compiles the conjunction of `preds`: conjuncts are evaluated left to
  /// right, NULL counts as false, and the first false conjunct
  /// short-circuits the rest.
  void CompilePreds(const std::vector<const BoundExpr*>* preds);

  /// Predicate evaluation; NULL is false. `aggs` holds the aggregate
  /// results named at compile time (null when there are none).
  Status EvalBool(ExecContext* ctx, const Row& row, bool* out,
                  const std::vector<Value>* aggs = nullptr);

  /// Value evaluation (SELECT items, aggregate arguments, SET expressions).
  Status EvalValue(ExecContext* ctx, const Row& row, Value* out,
                   const std::vector<Value>* aggs = nullptr);

 private:
  enum class Op : uint8_t {
    kPushColumn,      // push &row[a]
    kPushOuter,       // push outer value (a = levels up, b = offset)
    kPushConst,       // push &consts_[a]
    kPushParam,       // push the execute-time value of parameter a
    kCompare,         // pop rhs, lhs; push lhs cmp rhs (NULL -> false)
    kArith,           // pop rhs, lhs; push lhs arith rhs
    kNot,             // pop v; push !truthy(v)
    kToBool,          // pop v; push truthy(v)
    kIsNull,          // pop v; push v IS [NOT] NULL
    kBetween,         // pop hi, lo, v; push lo <= v <= hi
    kLike,            // pop pattern, subject; push [NOT] LIKE
    kInSortedConsts,  // pop v; binary-search lists_[a]
    kInRow,           // pop a items + v; linear membership test
    kJumpIfFalse,     // pop v; if !truthy(v): push false, jump to a
    kJumpIfTrue,      // pop v; if truthy(v): push true, jump to a
    kScalarSubquery,  // push the (cached, §6) scalar subquery result
    kInSubquery,      // pop v; membership in the subquery's sorted list
    kPushAgg,         // push &aggs[a], the finished result of aggregate a
  };

  struct Step {
    Op op = Op::kPushConst;
    bool negated = false;
    CompareOp cmp = CompareOp::kEq;
    char arith = '+';
    uint32_t a = 0;
    uint32_t b = 0;
    const BoundQueryBlock* subquery = nullptr;
  };

  // A stack slot either references a row/constant/outer value (no copy) or
  // owns a computed intermediate; `ref` always points at the live value.
  struct Slot {
    const Value* ref = nullptr;
    Value owned;
  };

  void Emit(const BoundExpr& e);
  /// Appends a step; the reference is valid until the next append.
  Step& EmitStep(Op op, uint32_t a = 0);
  /// Evaluates the constant subtree `e` once by compiling and running it as
  /// its own program. False if that fails (e.g. arithmetic on a string
  /// literal); the caller then emits the steps so the error surfaces at run
  /// time.
  bool FoldConst(const BoundExpr& e, Value* out);
  uint32_t AddConst(Value v);
  /// Sizes the evaluation stack for the finished program.
  void Finish();
  Status Run(ExecContext* ctx, const Row& row, const std::vector<Value>* aggs,
             const Value** top);

  // Compile-time state.
  bool fold_ = true;  // Off inside FoldConst's own sub-program.
  const std::vector<const BoundExpr*>* agg_leaves_ = nullptr;

  std::vector<Step> steps_;
  std::vector<Value> consts_;
  std::vector<std::vector<Value>> lists_;  // kInSortedConsts operands.
  std::vector<Slot> stack_;                // Reused across evaluations.
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_EXPR_PROGRAM_H_
