// Pull-based physical operators, interpreting the plan trees produced by
// the optimizer — our stand-in for System R's generated machine code (§2).
// Every operator speaks one protocol, the RSI's own (§3): Open, then Next
// one row at a time until the stream ends, then Close. DESIGN.md §6 states
// the contract in full.
//
// Hot-path contract: an operator tree is built ONCE per statement (or per
// nested block) and re-opened with new outer bindings via Rebind(), so the
// per-outer-row cost of a nested-loop inner or a correlated subquery is a
// scan reset, not a tree rebuild. Scan operators write only their own
// table's column slice of the block-width output row, leaving the other
// slots untouched — join operators exploit this by handing every child the
// same reusable composite-row buffer.
#ifndef SYSTEMR_EXEC_OPERATORS_H_
#define SYSTEMR_EXEC_OPERATORS_H_

#include <memory>

#include "exec/exec_context.h"
#include "exec/expr_program.h"
#include "optimizer/plan.h"

namespace systemr {

class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Re-opens the operator for a new outer binding without rebuilding the
  /// tree. `outer` replaces the binding row captured at construction when
  /// non-null (its address must stay stable across calls); null keeps the
  /// current binding (correlated subqueries resolve outer references through
  /// the ExecContext ancestor stack instead).
  virtual Status Rebind(const Row* outer) = 0;
  /// Produces the next row into *out. Sets *has_row=false at end of stream.
  /// `*out` may be a buffer the caller reuses from call to call.
  virtual Status Next(Row* out, bool* has_row) = 0;
  virtual void Close() {}
};

/// Builds the operator tree for `node`. `binding` is the current outer row
/// for dynamically-bound inner scans of a nested-loop join (else null).
std::unique_ptr<Operator> BuildOperator(ExecContext* ctx,
                                        const BoundQueryBlock* block,
                                        const PlanNode* node,
                                        const Row* binding);

/// RSS scan bridging the RSI into block-width rows; applies dynamic bounds
/// and dynamic SARGs from `binding`, then residual single-table predicates.
/// The underlying RSI scan object is created once; Open()/Rebind() re-derive
/// the dynamic SARG values and index bounds in place and reset its position.
/// Every candidate tuple is an interrupt point (ExecContext::CheckInterrupts).
class ScanOp : public Operator {
 public:
  ScanOp(ExecContext* ctx, const BoundQueryBlock* block, const PlanNode* node,
         const Row* binding);

  Status Open() override;
  Status Rebind(const Row* outer) override;
  Status Next(Row* out, bool* has_row) override;
  /// Flushes this scan's produced-row count into the context's per-node
  /// observations (the selectivity-feedback input).
  void Close() override;

  /// TID of the most recently returned tuple (for DML).
  Tid last_tid() const { return last_tid_; }

 private:
  /// Writes the current binding's values into the scan's dynamic SARG slots
  /// and (for index scans) recomputes the key range.
  Status BindDynamic();
  /// Positions the scan (morsel mode claims the first page range; a drained
  /// dispenser leaves the scan empty).
  Status OpenScan();
  /// Claims the next morsel and re-opens the scan on its page range. *got
  /// is false (and the scan is permanently drained) once the dispenser is
  /// empty.
  Status AdvanceMorsel(bool* got);

  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  const Row* binding_;
  std::unique_ptr<RsiScan> scan_;
  ExprProgram residual_;
  size_t offset_ = 0;        // Block-row offset of this table's slice.
  size_t static_sargs_ = 0;  // Dynamic SARGs start at this index.
  Row base_;                 // Scratch tuple the RSI scan decodes into.
  Tid last_tid_;
  uint64_t rows_out_ = 0;    // Rows produced since the last Close() flush.
  bool exhausted_ = false;   // Reached end of stream at least once.

  // Morsel-driven mode: this is the driving segment scan of a parallel
  // fragment worker — instead of the whole segment, it scans page ranges
  // claimed from the context's shared dispenser until that is drained.
  bool morsel_mode_ = false;
  bool morsel_drained_ = false;
};

class FilterOp : public Operator {
 public:
  FilterOp(ExecContext* ctx, const BoundQueryBlock* block,
           const PlanNode* node, std::unique_ptr<Operator> child)
      : ctx_(ctx), block_(block), node_(node), child_(std::move(child)) {
    residual_.CompilePreds(&node->residual);
  }

  Status Open() override { return child_->Open(); }
  Status Rebind(const Row* outer) override { return child_->Rebind(outer); }
  Status Next(Row* out, bool* has_row) override;
  void Close() override { child_->Close(); }

 private:
  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;
  ExprProgram residual_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, const BoundQueryBlock* block,
            const PlanNode* node, std::unique_ptr<Operator> child);

  Status Open() override { return child_->Open(); }
  Status Rebind(const Row* outer) override { return child_->Rebind(outer); }
  Status Next(Row* out, bool* has_row) override;
  void Close() override { child_->Close(); }

 private:
  ExecContext* ctx_;
  const BoundQueryBlock* block_;
  const PlanNode* node_;
  std::unique_ptr<Operator> child_;
  std::vector<ExprProgram> items_;
  Row in_;  // Reusable block-width input buffer.
};

}  // namespace systemr

#endif  // SYSTEMR_EXEC_OPERATORS_H_
