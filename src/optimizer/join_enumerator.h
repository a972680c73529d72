// Dynamic-programming join enumeration (§5): "an efficient way to organize
// the search is to find the best join order for successively larger subsets
// of tables", keeping — per subset — the cheapest unordered solution and the
// cheapest solution for each interesting-order equivalence class. Each
// subset is extended left-deep by one relation with three join methods:
// nested loop and merge scan (the paper's two) and hash join (an addition,
// off with Options::enable_hash_join). Cartesian products are deferred via
// the join-predicate heuristic.
//
// Cost-first candidates. Most candidates lose the dominance test, so each is
// first costed as plain numbers — cost, rows, order and the bitmask of
// interesting orders that order covers — and offered to AddSolution. A
// survivor is stored with a Recipe (outer solution, inner path, method,
// predicate) instead of a plan. Once a subset's list is final, that is once
// the level below it has been expanded, Materialize builds the PlanNodes,
// describe labels and sort nodes of the solutions still stored. A candidate
// that is dominated, or evicted later, never gets a PlanNode; it still
// counts in solutions_generated().
//
// Access paths are generated once. The level-1 paths of each relation are
// kept and reused as merge-scan inners. The nested-loop inner paths of
// relation t are memoized on (t, outer_mask & probe_neighbours(t)), where
// probe_neighbours(t) holds the tables sharing a join factor with t. The key
// is sound: GenerateAccessPaths reads the outer mask only in CollectPreds,
// which tests only those tables' bits, and as `outer_mask != 0`
// (repeated_probe, feedback_eligible), which holds for every nested-loop
// inner.
#ifndef SYSTEMR_OPTIMIZER_JOIN_ENUMERATOR_H_
#define SYSTEMR_OPTIMIZER_JOIN_ENUMERATOR_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "optimizer/access_path_gen.h"

namespace systemr {

/// Forced join-method override (fuzz_driver --join-method). kAuto is the
/// normal cost-based competition; a specific method restricts the DP extend
/// step to that method wherever an equi predicate allows it, falling back to
/// nested loop elsewhere so the enumeration stays complete.
enum class JoinMethodForce { kAuto, kNestedLoop, kMerge, kHash };

struct JoinSolution {
  uint32_t mask = 0;
  double cost = 0;
  double rows = 0;
  OrderSpec order;
  uint64_t covered = 0;  // CoveredOrders(order, interesting orders).
  PlanRef plan;
  std::string describe;

  /// How the enumerator builds `plan` and `describe` of a join solution
  /// once no later candidate can evict it. Level-1 solutions have none.
  struct Recipe {
    PlanKind method = PlanKind::kSegScan;
    const JoinSolution* outer = nullptr;
    int inner_table = -1;
    const AccessPath* inner_path = nullptr;  // NL inner; merge index inner.
    int pred = -1;            // Merge/hash: index into the equi predicates.
    bool sort_outer = false;  // Merge: the outer is sorted first.
  } recipe;
};

class JoinEnumerator {
 public:
  struct Options {
    /// §5 heuristic: only consider join orders with a join predicate linking
    /// the new inner relation to the joined set (Cartesian products last).
    bool cartesian_heuristic = true;
    /// Keep per-order solutions; off = keep only the cheapest per subset
    /// (ablation: forces re-sorts before merges and ORDER BY).
    bool use_interesting_orders = true;
    bool enable_merge_join = true;
    bool enable_nested_loop = true;
    /// Hash join as a third method (and hash aggregation above the join):
    /// off reverts to the paper's two-method §5 enumeration (ablation).
    bool enable_hash_join = true;
    JoinMethodForce force = JoinMethodForce::kAuto;
  };

  JoinEnumerator(const PlannerContext& ctx, Options options);

  /// Builds the full search tree up to the all-relations subset.
  Status Run();

  /// Solutions stored for one subset (Figs. 3-6 dumps and tests).
  const std::vector<JoinSolution>& SolutionsFor(uint32_t mask) const;

  /// The final plan: cheapest complete solution delivering `required` —
  /// either directly or as cheapest-overall plus a sort (§4/§5). `sort_keys`
  /// gives the executor sort keys for the required order (block-row offsets).
  StatusOr<JoinSolution> Best(const OrderSpec& required,
                              const std::vector<SortKey>& sort_keys) const;

  /// N(mask): estimated composite cardinality — product of cardinalities
  /// times the selectivities of all applicable predicates (§5).
  double Rows(uint32_t mask) const;

  // --- Search statistics (§7 claims: E8) ---
  size_t solutions_stored() const;
  size_t solutions_generated() const { return solutions_generated_; }
  size_t subsets_expanded() const { return subsets_expanded_; }
  size_t ApproxBytes() const;

  const std::vector<OrderSpec>& interesting_orders() const {
    return interesting_;
  }

 private:
  /// One DP entry: a subset of relations with at least one solution.
  struct Subset {
    uint32_t mask = 0;
    double rows = 0;  // Rows(mask).
    std::vector<JoinSolution> solutions;
  };

  /// An equi-join predicate oriented with the joining relation as t1 — the
  /// input of one merge-scan and one hash-join variant.
  struct EquiPred {
    const BooleanFactor* factor = nullptr;
    JoinPredInfo j;
    OrderSpec order;       // Ascending on the join column's order class.
    uint64_t covered = 0;  // CoveredOrders(order, interesting_).
    size_t outer_offset = 0;
    size_t inner_offset = 0;
    /// Level-1 index scans of the joining relation already in join-column
    /// order: merge inners that need no sort.
    std::vector<const AccessPath*> index_inners;
  };

  void BuildInterestingOrders();
  void BuildEquiPreds();
  const Subset* Find(uint32_t mask) const;
  double ComputeRows(uint32_t mask) const;

  /// The §5 dominance test on a costed candidate for `mask`. Counts it as
  /// generated; returns the new stored solution, with every field but
  /// `recipe`, `plan` and `describe` filled in, or nullptr if an existing
  /// solution dominates it. The pointer is valid until the next AddSolution.
  JoinSolution* AddSolution(uint32_t mask, double cost, double rows,
                            const OrderSpec& order, uint64_t covered);

  /// `neighbours`: relations outside `mask` joined to it by some predicate.
  bool Eligible(uint32_t mask, uint32_t neighbours, int t) const;

  /// Unpruned nested-loop inner paths of `t` below outer set `mask`.
  const std::vector<AccessPath>& InnerPaths(uint32_t mask, int t);

  void ExtendNestedLoop(const Subset& outer, int t, double rows);
  void ExtendMerge(const Subset& outer, int t, double rows);
  void ExtendHash(const Subset& outer, int t, double rows);

  /// Builds plan nodes and labels for the stored solutions of every subset
  /// of `level` relations, whose lists are final once level - 1 is expanded.
  void Materialize(size_t level);
  /// Builds one join solution's plan and describe label from its recipe.
  void BuildPlan(JoinSolution* s) const;

  /// Residual predicates newly applicable when `t` joins `mask`, excluding
  /// the simple join predicates already handled (`all_simple_joins_handled`
  /// skips all of them, for nested loop where they became SARGs).
  std::vector<const BoundExpr*> NewResiduals(uint32_t mask, int t,
                                             bool all_simple_joins_handled,
                                             const JoinPredInfo* merge_pred) const;

  double CompositeTupleBytes(uint32_t mask) const;

  PlannerContext ctx_;
  Options options_;
  std::vector<OrderSpec> interesting_;

  // Per-relation facts, indexed by table ordinal.
  std::vector<double> tuple_bytes_;
  std::vector<uint32_t> adjacent_;           // Joined by any join predicate.
  std::vector<uint32_t> probe_neighbours_;   // Bits CollectPreds reads.
  std::vector<std::vector<EquiPred>> equi_preds_;
  std::vector<std::vector<AccessPath>> base_paths_;  // Level 1, unpruned.
  std::vector<const JoinSolution*> cheapest_base_;

  // The DP table. A deque keeps each Subset in place while an extension
  // reads one subset and adds solutions to another.
  std::deque<Subset> subsets_;
  std::vector<int32_t> slot_;                   // mask -> subsets_ index.
  std::vector<std::vector<uint32_t>> by_level_;  // Masks by popcount.

  /// Nested-loop inner paths, keyed by
  /// (t << 32) | (mask & probe_neighbours_[t]).
  std::unordered_map<uint64_t, std::vector<AccessPath>> inner_paths_;

  size_t solutions_generated_ = 0;
  size_t subsets_expanded_ = 0;
};

}  // namespace systemr

#endif  // SYSTEMR_OPTIMIZER_JOIN_ENUMERATOR_H_
