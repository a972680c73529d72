#include "optimizer/baseline.h"

#include <algorithm>

#include "optimizer/access_path_gen.h"
#include "optimizer/cnf.h"
#include "optimizer/selectivity.h"

namespace systemr {

namespace {

double MaskRows(const PlannerContext& ctx, uint32_t mask) {
  double rows = 1.0;
  for (size_t t = 0; t < ctx.block->tables.size(); ++t) {
    if ((mask >> t) & 1) rows *= ctx.sel->TableCardinality(static_cast<int>(t));
  }
  for (const BooleanFactor& f : *ctx.factors) {
    if (f.has_subquery || f.correlated) continue;
    if (f.tables_mask != 0 && SubsetOf(f.tables_mask, mask)) {
      rows *= f.selectivity;
    }
  }
  return rows;
}

// Residual predicates for a nested-loop extension (complex multi-table
// factors newly covered; simple join predicates were pushed as SARGs).
std::vector<const BoundExpr*> NlResiduals(const PlannerContext& ctx,
                                          uint32_t mask, int t) {
  std::vector<const BoundExpr*> out;
  uint32_t self = 1u << t;
  uint32_t combined = mask | self;
  for (const BooleanFactor& f : *ctx.factors) {
    if (f.has_subquery || f.correlated) continue;
    if ((f.tables_mask & self) == 0) continue;
    if (!SubsetOf(f.tables_mask, combined)) continue;
    if (f.tables_mask == self) continue;
    if (f.join.has_value()) continue;
    out.push_back(f.expr);
  }
  return out;
}

const AccessPath* PickPath(const std::vector<AccessPath>& paths,
                           bool segment_only) {
  const AccessPath* best = nullptr;
  for (const AccessPath& p : paths) {
    if (segment_only) {
      if (p.node->kind == PlanKind::kSegScan) return &p;
      continue;
    }
    if (best == nullptr || p.cost.cost < best->cost.cost) best = &p;
  }
  return best;
}

bool Connected(const PlannerContext& ctx, uint32_t mask, int t) {
  for (const BooleanFactor& f : *ctx.factors) {
    if (!f.join.has_value()) continue;
    const JoinPredInfo& j = *f.join;
    if ((j.t1 == t && ((mask >> j.t2) & 1)) ||
        (j.t2 == t && ((mask >> j.t1) & 1))) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kSyntacticNestedLoop:
      return "syntactic nested-loop";
    case BaselineKind::kGreedy:
      return "greedy smallest-intermediate";
  }
  return "?";
}

StatusOr<OptimizedQuery> OptimizeBaseline(
    const Catalog* catalog, std::unique_ptr<BoundQueryBlock> block,
    BaselineKind kind, OptimizerOptions options) {
  Optimizer optimizer(catalog, options);
  const BoundQueryBlock& b = *block;
  CostModel cost_model(options.cost);
  SelectivityEstimator sel(catalog, &b, options.use_column_stats);
  std::vector<BooleanFactor> factors = ExtractBooleanFactors(b);
  for (BooleanFactor& f : factors) {
    f.model_selectivity = sel.FactorSelectivity(*f.expr);
    f.selectivity = f.model_selectivity;
  }
  OrderClasses classes;
  for (const BooleanFactor& f : factors) {
    if (f.join.has_value() && f.join->is_equi()) {
      classes.Union(f.join->t1, f.join->c1, f.join->t2, f.join->c2);
    }
  }
  PlannerContext ctx{&b, catalog, &cost_model, &sel, &factors, &classes};

  size_t n = b.tables.size();
  const bool segment_only = kind == BaselineKind::kSyntacticNestedLoop;

  // Choose the join order.
  std::vector<int> order;
  if (kind == BaselineKind::kSyntacticNestedLoop) {
    for (size_t t = 0; t < n; ++t) order.push_back(static_cast<int>(t));
  } else {
    // Greedy: smallest filtered relation first, then smallest intermediate.
    uint32_t mask = 0;
    int first = 0;
    double best = -1;
    for (size_t t = 0; t < n; ++t) {
      double r = MaskRows(ctx, 1u << t);
      if (best < 0 || r < best) {
        best = r;
        first = static_cast<int>(t);
      }
    }
    order.push_back(first);
    mask = 1u << first;
    while (order.size() < n) {
      int pick = -1;
      double pick_rows = -1;
      bool any_connected = false;
      for (size_t t = 0; t < n; ++t) {
        if ((mask >> t) & 1) continue;
        if (Connected(ctx, mask, static_cast<int>(t))) any_connected = true;
      }
      for (size_t t = 0; t < n; ++t) {
        if ((mask >> t) & 1) continue;
        if (any_connected && !Connected(ctx, mask, static_cast<int>(t))) {
          continue;  // Defer Cartesian products, like the real optimizer.
        }
        double r = MaskRows(ctx, mask | (1u << t));
        if (pick < 0 || r < pick_rows) {
          pick = static_cast<int>(t);
          pick_rows = r;
        }
      }
      order.push_back(pick);
      mask |= 1u << pick;
    }
  }

  // Build the left-deep nested-loop plan along `order`.
  std::vector<AccessPath> first_paths = GenerateAccessPaths(ctx, order[0], 0);
  const AccessPath* first = PickPath(first_paths, segment_only);
  if (first == nullptr) {
    return Status::Internal("no access path for first relation");
  }
  PlanRef plan = first->node;
  double est_cost = first->cost.cost;
  uint32_t mask = 1u << order[0];
  double rows = MaskRows(ctx, mask);

  for (size_t i = 1; i < n; ++i) {
    int t = order[i];
    std::vector<AccessPath> inner_paths = GenerateAccessPaths(ctx, t, mask);
    const AccessPath* inner = PickPath(inner_paths, segment_only);
    if (inner == nullptr) {
      return Status::Internal("no access path for inner relation");
    }
    auto node = NewPlanNode(PlanKind::kNestedLoopJoin);
    node->left = plan;
    node->right = inner->node;
    node->inner_offset = b.tables[t].offset;
    node->inner_width = b.tables[t].table->schema.num_columns();
    node->residual = NlResiduals(ctx, mask, t);
    est_cost = cost_model.JoinCost(est_cost, std::max(rows, 1.0),
                                   inner->cost.cost);
    mask |= 1u << t;
    rows = MaskRows(ctx, mask);
    node->est_cost = est_cost;
    node->est_rows = rows;
    node->label = std::string("NLJ baseline (") + BaselineName(kind) + ")";
    plan = node;
  }

  // Baselines do not track orders: sort whenever an order is required.
  std::vector<SortKey> sort_keys;
  OrderSpec required = Optimizer::RequiredOrder(b, &classes, &sort_keys);
  OrderSpec join_order;
  if (!required.empty()) {
    auto sort = NewPlanNode(PlanKind::kSort);
    sort->left = plan;
    sort->sort_keys = sort_keys;
    sort->order = required;
    sort->est_rows = rows;
    double bytes = 0;
    for (size_t t = 0; t < n; ++t) {
      bytes += CostModel::TupleBytes(*b.tables[t].table);
    }
    est_cost = cost_model.SortCost(est_cost, std::max(rows, 1.0), bytes);
    sort->est_cost = est_cost;
    sort->label = "baseline sort";
    plan = sort;
    join_order = required;
  }

  OptimizedQuery out;
  ASSIGN_OR_RETURN(
      Optimizer::BlockPlan top,
      optimizer.FinishBlockPlan(b, factors, sel, plan, est_cost, rows,
                                join_order, required, &out.subquery_plans));
  out.block = std::move(block);
  out.root = top.root;
  out.est_cost = top.est_cost;
  out.est_rows = top.est_rows;
  return out;
}

}  // namespace systemr
