#include "optimizer/join_enumerator.h"

#include <algorithm>
#include <bit>

namespace systemr {

JoinEnumerator::JoinEnumerator(const PlannerContext& ctx, Options options)
    : ctx_(ctx), options_(options) {
  size_t n = ctx_.block->tables.size();
  if (n > 20) return;  // Run() rejects the block.
  tuple_bytes_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    tuple_bytes_[t] = CostModel::TupleBytes(*ctx_.block->tables[t].table);
  }
  adjacent_.assign(n, 0);
  probe_neighbours_.assign(n, 0);
  for (const BooleanFactor& f : *ctx_.factors) {
    if (!f.join.has_value()) continue;
    const JoinPredInfo& j = *f.join;
    adjacent_[j.t1] |= 1u << j.t2;
    adjacent_[j.t2] |= 1u << j.t1;
    if (!f.has_subquery && !f.correlated) {
      uint32_t bits = f.tables_mask | (1u << j.t1) | (1u << j.t2);
      probe_neighbours_[j.t1] |= bits & ~(1u << j.t1);
      probe_neighbours_[j.t2] |= bits & ~(1u << j.t2);
    }
  }
}

const JoinEnumerator::Subset* JoinEnumerator::Find(uint32_t mask) const {
  if (mask >= slot_.size() || slot_[mask] < 0) return nullptr;
  return &subsets_[static_cast<size_t>(slot_[mask])];
}

double JoinEnumerator::Rows(uint32_t mask) const {
  const Subset* s = Find(mask);
  return s != nullptr ? s->rows : ComputeRows(mask);
}

double JoinEnumerator::ComputeRows(uint32_t mask) const {
  double rows = 1.0;
  for (size_t t = 0; t < ctx_.block->tables.size(); ++t) {
    if ((mask >> t) & 1) {
      rows *= ctx_.sel->TableCardinality(static_cast<int>(t));
    }
  }
  for (const BooleanFactor& f : *ctx_.factors) {
    if (f.has_subquery || f.correlated) continue;
    if (f.tables_mask != 0 && SubsetOf(f.tables_mask, mask)) {
      rows *= f.selectivity;
    }
  }
  return rows;
}

double JoinEnumerator::CompositeTupleBytes(uint32_t mask) const {
  double bytes = 0;
  for (size_t t = 0; t < tuple_bytes_.size(); ++t) {
    if ((mask >> t) & 1) bytes += tuple_bytes_[t];
  }
  return std::max(bytes, 8.0);
}

void JoinEnumerator::BuildInterestingOrders() {
  if (!options_.use_interesting_orders) return;
  auto add = [&](OrderSpec spec) {
    if (spec.empty()) return;
    for (const OrderSpec& existing : interesting_) {
      if (existing == spec) return;
    }
    interesting_.push_back(std::move(spec));
  };
  // ORDER BY and GROUP BY specifications (§4).
  OrderSpec order_by;
  for (const BoundOrderItem& i : ctx_.block->order_by) {
    order_by.push_back(
        OrderKey{ctx_.classes->ClassOf(i.table_idx, i.column), i.asc});
  }
  add(order_by);
  OrderSpec group_by;
  for (const BoundOrderItem& i : ctx_.block->group_by) {
    group_by.push_back(
        OrderKey{ctx_.classes->ClassOf(i.table_idx, i.column), true});
  }
  add(group_by);
  // "Also every join column defines an interesting order" (§5).
  for (const BooleanFactor& f : *ctx_.factors) {
    if (f.join.has_value() && f.join->is_equi()) {
      add({OrderKey{ctx_.classes->ClassOf(f.join->t1, f.join->c1), true}});
    }
  }
}

void JoinEnumerator::BuildEquiPreds() {
  const BoundQueryBlock& block = *ctx_.block;
  equi_preds_.assign(block.tables.size(), {});
  for (const BooleanFactor& f : *ctx_.factors) {
    if (!f.join.has_value() || !f.join->is_equi()) continue;
    for (int t : {f.join->t1, f.join->t2}) {
      EquiPred e;
      e.factor = &f;
      e.j = f.join->OrientedFor(t);
      // Both columns share one class: the predicate unioned them.
      e.order = {OrderKey{ctx_.classes->ClassOf(e.j.t2, e.j.c2), true}};
      e.covered = CoveredOrders(e.order, interesting_);
      e.outer_offset = block.OffsetOf(e.j.t2, e.j.c2);
      e.inner_offset = block.OffsetOf(e.j.t1, e.j.c1);
      for (const AccessPath& p : base_paths_[t]) {
        if (p.node->kind == PlanKind::kIndexScan &&
            OrderSatisfies(p.order, e.order)) {
          e.index_inners.push_back(&p);
        }
      }
      equi_preds_[t].push_back(std::move(e));
    }
  }
}

JoinSolution* JoinEnumerator::AddSolution(uint32_t mask, double cost,
                                          double rows, const OrderSpec& order,
                                          uint64_t covered) {
  ++solutions_generated_;
  int32_t& slot = slot_[mask];
  if (slot < 0) {
    slot = static_cast<int32_t>(subsets_.size());
    subsets_.push_back(Subset{mask, rows, {}});
    by_level_[std::popcount(mask)].push_back(mask);
  }
  std::vector<JoinSolution>& list =
      subsets_[static_cast<size_t>(slot)].solutions;
  if (!options_.use_interesting_orders) {
    // Keep the single cheapest solution (order is never reused).
    if (!list.empty() && !(cost < list[0].cost)) return nullptr;
    list.clear();
  } else {
    // Dominated by an existing solution?
    for (const JoinSolution& s : list) {
      if (s.cost <= cost && (covered & ~s.covered) == 0) return nullptr;
    }
    // Remove solutions the new one dominates.
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const JoinSolution& s) {
                                return cost <= s.cost &&
                                       (s.covered & ~covered) == 0;
                              }),
               list.end());
  }
  JoinSolution& s = list.emplace_back();
  s.mask = mask;
  s.cost = cost;
  s.rows = rows;
  s.order = order;
  s.covered = covered;
  return &s;
}

bool JoinEnumerator::Eligible(uint32_t mask, uint32_t neighbours,
                              int t) const {
  if ((mask >> t) & 1) return false;
  if (!options_.cartesian_heuristic) return true;
  // Cartesian products are deferred: only allowed if NO remaining relation
  // has a join predicate with the joined set.
  return ((neighbours >> t) & 1) != 0 || neighbours == 0;
}

std::vector<const BoundExpr*> JoinEnumerator::NewResiduals(
    uint32_t mask, int t, bool all_simple_joins_handled,
    const JoinPredInfo* merge_pred) const {
  std::vector<const BoundExpr*> out;
  uint32_t self = 1u << t;
  uint32_t combined = mask | self;
  for (const BooleanFactor& f : *ctx_.factors) {
    if (f.has_subquery || f.correlated) continue;
    // Newly applicable: references t and only tables now joined, and spans
    // more than just t (single-table predicates were applied at the scan).
    if ((f.tables_mask & self) == 0) continue;
    if (!SubsetOf(f.tables_mask, combined)) continue;
    if (f.tables_mask == self) continue;
    if (f.join.has_value()) {
      if (all_simple_joins_handled) continue;  // Applied as dynamic SARGs.
      if (merge_pred != nullptr) {
        const JoinPredInfo o = f.join->OrientedFor(t);
        if (o.c1 == merge_pred->c1 && o.t2 == merge_pred->t2 &&
            o.c2 == merge_pred->c2 && o.op == merge_pred->op) {
          continue;  // The merge equality itself.
        }
      }
    }
    out.push_back(f.expr);
  }
  return out;
}

Status JoinEnumerator::Run() {
  const BoundQueryBlock& block = *ctx_.block;
  size_t n = block.tables.size();
  if (n > 20) {
    return Status::InvalidArgument("too many relations in one block");
  }
  BuildInterestingOrders();
  slot_.assign(size_t{1} << n, -1);
  by_level_.assign(n + 1, {});

  // Level 1: single-relation access paths (Fig. 2/3). All paths are kept,
  // pruned ones included, for reuse as merge-scan inners.
  base_paths_.resize(n);
  cheapest_base_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    std::vector<AccessPath>& paths = base_paths_[t];
    paths = GenerateAccessPaths(ctx_, static_cast<int>(t), 0);
    PruneAccessPaths(&paths, interesting_);
    uint32_t mask = 1u << t;
    double rows = ComputeRows(mask);
    for (const AccessPath& p : paths) {
      if (p.pruned) continue;
      OrderSpec order = options_.use_interesting_orders ? p.order : OrderSpec{};
      JoinSolution* s = AddSolution(mask, p.cost.cost, rows, order,
                                    CoveredOrders(order, interesting_));
      if (s == nullptr) continue;
      s->plan = p.node;
      s->describe = p.describe;
    }
    // The cheapest single-relation solution feeds sorted merge inners and
    // hash builds; level-1 lists never change after this point.
    const std::vector<JoinSolution>& sols = Find(mask)->solutions;
    const JoinSolution* cheapest = &sols[0];
    for (const JoinSolution& s : sols) {
      if (s.cost < cheapest->cost) cheapest = &s;
    }
    cheapest_base_[t] = cheapest;
  }
  if (n == 1) return Status::OK();
  BuildEquiPreds();

  // Levels 2..n: extend every subset by one eligible relation (left-deep),
  // subsets in ascending mask order.
  uint32_t full = static_cast<uint32_t>((size_t{1} << n) - 1);
  for (size_t level = 1; level < n; ++level) {
    std::vector<uint32_t>& masks = by_level_[level];
    std::sort(masks.begin(), masks.end());
    if (level > 1) Materialize(level);
    for (uint32_t mask : masks) {
      ++subsets_expanded_;
      const Subset& outer = *Find(mask);
      uint32_t neighbours = 0;
      for (size_t u = 0; u < n; ++u) {
        if ((mask >> u) & 1) neighbours |= adjacent_[u];
      }
      neighbours &= ~mask;
      for (size_t ti = 0; ti < n; ++ti) {
        int t = static_cast<int>(ti);
        if (!Eligible(mask, neighbours, t)) continue;
        bool nl = options_.enable_nested_loop;
        bool mj = options_.enable_merge_join;
        bool hj = options_.enable_hash_join;
        if (options_.force != JoinMethodForce::kAuto) {
          // A forced method only applies where an equi predicate makes it
          // possible; elsewhere nested loop keeps the enumeration complete.
          bool equi = std::any_of(equi_preds_[t].begin(), equi_preds_[t].end(),
                                  [mask](const EquiPred& e) {
                                    return ((mask >> e.j.t2) & 1) != 0;
                                  });
          switch (options_.force) {
            case JoinMethodForce::kAuto:
              break;
            case JoinMethodForce::kNestedLoop:
              mj = hj = false;
              nl = true;
              break;
            case JoinMethodForce::kMerge:
              hj = false;
              nl = !equi;
              mj = true;
              break;
            case JoinMethodForce::kHash:
              mj = false;
              nl = !equi;
              hj = true;
              break;
          }
        }
        double rows = Rows(mask | (1u << t));
        if (nl) ExtendNestedLoop(outer, t, rows);
        if (mj) ExtendMerge(outer, t, rows);
        if (hj) ExtendHash(outer, t, rows);
      }
    }
  }
  if (Find(full) == nullptr) {
    return Status::Internal("join enumeration produced no complete solution");
  }
  Materialize(n);
  return Status::OK();
}

const std::vector<AccessPath>& JoinEnumerator::InnerPaths(uint32_t mask,
                                                          int t) {
  uint64_t key = (static_cast<uint64_t>(t) << 32) |
                 (mask & probe_neighbours_[t]);
  auto [it, inserted] = inner_paths_.try_emplace(key);
  if (inserted) {
    std::vector<AccessPath> paths = GenerateAccessPaths(ctx_, t, mask);
    PruneAccessPaths(&paths, {});  // Inner order is irrelevant for NL.
    for (AccessPath& p : paths) {
      if (!p.pruned) it->second.push_back(std::move(p));
    }
  }
  return it->second;
}

void JoinEnumerator::ExtendNestedLoop(const Subset& outer, int t,
                                      double rows) {
  uint32_t combined = outer.mask | (1u << t);
  double n_outer = std::max(outer.rows, 1.0);
  const std::vector<AccessPath>& inner_paths = InnerPaths(outer.mask, t);
  for (const JoinSolution& o : outer.solutions) {
    for (const AccessPath& p : inner_paths) {
      // C-nested-loop-join = C-outer + N * C-inner (§5). The outer
      // composite's order is preserved.
      JoinSolution* s = AddSolution(
          combined, ctx_.cost->JoinCost(o.cost, n_outer, p.cost.cost), rows,
          o.order, o.covered);
      if (s != nullptr) {
        s->recipe = {PlanKind::kNestedLoopJoin, &o, t, &p, -1, false};
      }
    }
  }
}

void JoinEnumerator::ExtendMerge(const Subset& outer, int t, double rows) {
  uint32_t combined = outer.mask | (1u << t);
  double n_outer = std::max(outer.rows, 1.0);
  double outer_bytes = CompositeTupleBytes(outer.mask);

  // The sorted-inner variant sorts the cheapest single-relation solution
  // into a temporary list (C-inner(sorted list), §5).
  double inner_rows = std::max(Rows(1u << t), 1.0);
  double temppages = ctx_.cost->TempPages(inner_rows, tuple_bytes_[t]);
  double sorted_setup =
      ctx_.cost->SortCost(cheapest_base_[t]->cost, inner_rows, tuple_bytes_[t]);

  // One merge variant per equi-join predicate linking t to the joined set.
  const std::vector<EquiPred>& preds = equi_preds_[t];
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    const EquiPred& e = preds[pi];
    if (((outer.mask >> e.j.t2) & 1) == 0) continue;
    double sorted_per_probe = ctx_.cost->SortedInnerPerProbe(
        temppages, n_outer, inner_rows * e.factor->selectivity);

    for (const JoinSolution& o : outer.solutions) {
      // Outer variant: as-is if ordered on the join class, else sorted. The
      // merge output is ordered by the join column class; the outer order
      // (which starts with that class) is preserved.
      bool ordered = OrderSatisfies(o.order, e.order);
      double outer_cost =
          ordered ? o.cost : ctx_.cost->SortCost(o.cost, n_outer, outer_bytes);
      const OrderSpec& order = ordered ? o.order : e.order;
      uint64_t covered = ordered ? o.covered : e.covered;
      auto offer = [&](const AccessPath* inner, double setup_cost,
                       double per_probe) {
        JoinSolution* s = AddSolution(
            combined,
            setup_cost + ctx_.cost->JoinCost(outer_cost, n_outer, per_probe),
            rows, order, covered);
        if (s != nullptr) {
          s->recipe = {PlanKind::kMergeJoin, &o, t, inner,
                       static_cast<int>(pi), !ordered};
        }
      };
      // Inner variants. (a) An index on the join column provides the inner
      // in join-column order directly (Fig. 5's "Merge E.DNO D.DNO" with
      // both indexes). The merging-scans method synchronizes the two ordered
      // streams, so the inner is read exactly once with only its local
      // predicates applied — costed as one full ordered scan (setup) with no
      // per-probe charge. (b) The sorted temporary list.
      for (const AccessPath* p : e.index_inners) offer(p, p->cost.cost, 0.0);
      offer(nullptr, sorted_setup, sorted_per_probe);
    }
  }
}

void JoinEnumerator::ExtendHash(const Subset& outer, int t, double rows) {
  uint32_t combined = outer.mask | (1u << t);
  double n_outer = std::max(outer.rows, 1.0);
  double n_inner = std::max(Rows(1u << t), 1.0);

  // The build side is read exactly once with only its local predicates, so
  // the cheapest single-relation path for t is always the right input.
  double c_build = cheapest_base_[t]->cost;
  double build_pages = ctx_.cost->TempPages(n_inner, tuple_bytes_[t]);

  // One hash variant per equi-join predicate linking t to the joined set.
  const std::vector<EquiPred>& preds = equi_preds_[t];
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    if (((outer.mask >> preds[pi].j.t2) & 1) == 0) continue;
    for (const JoinSolution& o : outer.solutions) {
      // Hash join delivers no interesting order: rows come out in probe
      // order, but the optimizer must not rely on it (§5's order bookkeeping
      // treats the hash output as unordered). No interesting order is empty,
      // so the unordered output covers none.
      JoinSolution* s = AddSolution(
          combined,
          ctx_.cost->HashJoinCost(o.cost, c_build, n_outer, n_inner, rows,
                                  build_pages),
          rows, OrderSpec{}, 0);
      if (s != nullptr) {
        s->recipe = {PlanKind::kHashJoin, &o, t, nullptr,
                     static_cast<int>(pi), false};
      }
    }
  }
}

void JoinEnumerator::Materialize(size_t level) {
  for (uint32_t mask : by_level_[level]) {
    Subset& subset = subsets_[static_cast<size_t>(slot_[mask])];
    for (JoinSolution& s : subset.solutions) BuildPlan(&s);
  }
}

void JoinEnumerator::BuildPlan(JoinSolution* s) const {
  const BoundQueryBlock& block = *ctx_.block;
  const JoinSolution::Recipe& r = s->recipe;
  const JoinSolution& o = *r.outer;
  int t = r.inner_table;
  auto node = NewPlanNode(r.method);
  node->left = o.plan;
  node->inner_offset = block.tables[t].offset;
  node->inner_width = block.tables[t].table->schema.num_columns();
  node->est_cost = s->cost;
  node->est_rows = s->rows;
  node->order = s->order;
  if (r.method == PlanKind::kNestedLoopJoin) {
    node->right = r.inner_path->node;
    node->residual =
        NewResiduals(o.mask, t, /*all_simple_joins_handled=*/true, nullptr);
    node->label = "NLJ(" + o.describe + " -> " + r.inner_path->describe + ")";
  } else {
    const EquiPred& e = equi_preds_[t][static_cast<size_t>(r.pred)];
    const JoinSolution& cheapest = *cheapest_base_[t];
    node->merge_outer_offset = e.outer_offset;
    node->merge_inner_offset = e.inner_offset;
    node->residual =
        NewResiduals(o.mask, t, /*all_simple_joins_handled=*/false, &e.j);
    if (r.method == PlanKind::kHashJoin) {
      node->right = cheapest.plan;
      node->label = "HJ(" + o.describe + " = build " + cheapest.describe + ")";
    } else {
      std::string outer_describe = o.describe;
      if (r.sort_outer) {
        double n_outer = std::max(Rows(o.mask), 1.0);
        auto sort = NewPlanNode(PlanKind::kSort);
        sort->left = o.plan;
        sort->sort_keys = {SortKey{e.outer_offset, true}};
        sort->order = e.order;
        sort->est_rows = n_outer;
        sort->est_cost = ctx_.cost->SortCost(o.cost, n_outer,
                                             CompositeTupleBytes(o.mask));
        sort->label = "sort outer by join col";
        node->left = std::move(sort);
        outer_describe = "sort(" + o.describe + ")";
      }
      std::string inner_describe;
      if (r.inner_path != nullptr) {
        node->right = r.inner_path->node;
        inner_describe = "merge-inner " + r.inner_path->describe;
      } else {
        double inner_rows = std::max(Rows(1u << t), 1.0);
        auto sort = NewPlanNode(PlanKind::kSort);
        sort->left = cheapest.plan;
        sort->sort_keys = {SortKey{e.inner_offset, true}};
        sort->order = e.order;
        sort->est_rows = inner_rows;
        sort->est_cost =
            ctx_.cost->SortCost(cheapest.cost, inner_rows, tuple_bytes_[t]);
        sort->label = "sort " + block.tables[t].correlation + " by join col";
        node->right = std::move(sort);
        inner_describe = "sort(" + cheapest.describe + ") then merge";
      }
      node->label = "MJ(" + outer_describe + " = " + inner_describe + ")";
    }
  }
  s->describe = node->label;
  s->plan = std::move(node);
}

const std::vector<JoinSolution>& JoinEnumerator::SolutionsFor(
    uint32_t mask) const {
  static const std::vector<JoinSolution>* empty =
      new std::vector<JoinSolution>();
  const Subset* s = Find(mask);
  return s == nullptr ? *empty : s->solutions;
}

StatusOr<JoinSolution> JoinEnumerator::Best(
    const OrderSpec& required, const std::vector<SortKey>& sort_keys) const {
  uint32_t full =
      static_cast<uint32_t>((size_t{1} << ctx_.block->tables.size()) - 1);
  const Subset* complete = Find(full);
  if (complete == nullptr) {
    return Status::Internal("no complete solution");
  }
  const JoinSolution* cheapest = &complete->solutions[0];
  const JoinSolution* cheapest_ordered = nullptr;
  for (const JoinSolution& s : complete->solutions) {
    if (s.cost < cheapest->cost) cheapest = &s;
    if (!required.empty() && OrderSatisfies(s.order, required)) {
      if (cheapest_ordered == nullptr || s.cost < cheapest_ordered->cost) {
        cheapest_ordered = &s;
      }
    }
  }
  if (required.empty()) return *cheapest;

  // "The cheapest solution with the correct order, unless it is more
  // expensive than the cheapest unordered solution plus a sort" (§5).
  double sorted_cost = ctx_.cost->SortCost(
      cheapest->cost, std::max(cheapest->rows, 1.0), CompositeTupleBytes(full));
  if (cheapest_ordered != nullptr && cheapest_ordered->cost <= sorted_cost) {
    return *cheapest_ordered;
  }
  JoinSolution s = *cheapest;
  auto sort = NewPlanNode(PlanKind::kSort);
  sort->left = cheapest->plan;
  sort->sort_keys = sort_keys;
  sort->order = required;
  sort->est_rows = cheapest->rows;
  sort->est_cost = sorted_cost;
  sort->label = "sort for ORDER/GROUP BY";
  s.plan = sort;
  s.cost = sorted_cost;
  s.order = required;
  s.covered = CoveredOrders(required, interesting_);
  s.describe = "sort(" + s.describe + ")";
  return s;
}

size_t JoinEnumerator::solutions_stored() const {
  size_t n = 0;
  for (const Subset& s : subsets_) n += s.solutions.size();
  return n;
}

size_t JoinEnumerator::ApproxBytes() const {
  size_t bytes = 0;
  for (const Subset& subset : subsets_) {
    for (const JoinSolution& s : subset.solutions) {
      bytes += sizeof(JoinSolution) + s.describe.size() +
               s.order.size() * sizeof(OrderKey) + 64;
    }
  }
  return bytes;
}

}  // namespace systemr
