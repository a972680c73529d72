#include "optimizer/feedback.h"

#include <algorithm>
#include <cmath>

#include "rss/sarg.h"

namespace systemr {

namespace {

/// Renders `e` into `out`, masking value positions with `$`. Accumulates the
/// set of level-0 tables touched in `mask` and sets `*signable` to false on
/// any construct whose selectivity is not a pure property of the predicate
/// text over one table.
void Render(const BoundExpr& e, const BoundQueryBlock& block, std::string* out,
            uint64_t* mask, bool* signable) {
  if (!*signable) return;
  switch (e.kind) {
    case BoundExprKind::kColumn:
      if (e.outer_level > 0) {
        *signable = false;
        return;
      }
      *mask |= 1ULL << e.table_idx;
      *out += block.tables[e.table_idx].table->name + "." +
              block.tables[e.table_idx].table->schema.column(e.column).name;
      return;
    case BoundExprKind::kLiteral:
    case BoundExprKind::kParameter:
      *out += "$";
      return;
    case BoundExprKind::kCompare:
      Render(*e.children[0], block, out, mask, signable);
      *out += CompareOpName(e.op);
      Render(*e.children[1], block, out, mask, signable);
      return;
    case BoundExprKind::kAnd:
    case BoundExprKind::kOr: {
      *out += "(";
      Render(*e.children[0], block, out, mask, signable);
      *out += e.kind == BoundExprKind::kAnd ? " AND " : " OR ";
      Render(*e.children[1], block, out, mask, signable);
      *out += ")";
      return;
    }
    case BoundExprKind::kNot:
      *out += "NOT(";
      Render(*e.children[0], block, out, mask, signable);
      *out += ")";
      return;
    case BoundExprKind::kArith:
      *out += "(";
      Render(*e.children[0], block, out, mask, signable);
      out->push_back(e.arith_op);
      Render(*e.children[1], block, out, mask, signable);
      *out += ")";
      return;
    case BoundExprKind::kBetween:
      Render(*e.children[0], block, out, mask, signable);
      *out += " BETWEEN $ AND $";
      return;
    case BoundExprKind::kInList: {
      Render(*e.children[0], block, out, mask, signable);
      // Every item is rendered, so the list length is kept (`IN ($)` and
      // `IN ($,$,$)` select differently) and `A IN (B, $)` does not share
      // `A IN ($,$)`'s feedback; a column item's table joins the mask.
      *out += " IN(";
      for (size_t i = 1; i < e.children.size(); ++i) {
        if (i > 1) *out += ",";
        Render(*e.children[i], block, out, mask, signable);
      }
      *out += ")";
      return;
    }
    case BoundExprKind::kIsNull:
      Render(*e.children[0], block, out, mask, signable);
      *out += e.negated ? " IS NOT NULL" : " IS NULL";
      return;
    case BoundExprKind::kLike:
      // The pattern IS the predicate: `LIKE 'a%'` and `LIKE '%z'` must not
      // share feedback, so keep the literal pattern in the signature.
      Render(*e.children[0], block, out, mask, signable);
      *out += e.negated ? " NOT LIKE " : " LIKE ";
      *out += e.children[1]->kind == BoundExprKind::kLiteral
                  ? e.children[1]->literal.ToString()
                  : "$";
      return;
    case BoundExprKind::kInSubquery:
    case BoundExprKind::kSubquery:
    case BoundExprKind::kAggregate:
      *signable = false;
      return;
  }
  *signable = false;
}

}  // namespace

std::string FactorSignature(const BoundExpr& e, const BoundQueryBlock& block) {
  std::string out;
  uint64_t mask = 0;
  bool signable = true;
  Render(e, block, &out, &mask, &signable);
  // Exactly one table: join factors and constant predicates are not signed.
  if (!signable || mask == 0 || (mask & (mask - 1)) != 0) return "";
  return out;
}

void SelectivityFeedback::Record(const std::string& signature,
                                 double observed) {
  if (signature.empty()) return;
  double log_obs = std::log(std::clamp(observed, 1e-9, 1.0));
  std::lock_guard<std::mutex> lock(mu_);
  ++total_records_;
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    if (entries_.size() >= capacity_) {
      // Evict the least recently touched signature.
      auto victim = entries_.find(lru_.back());
      lru_.pop_back();
      if (victim != entries_.end()) entries_.erase(victim);
    }
    lru_.push_front(signature);
    Entry e;
    e.mean_log = log_obs;
    e.n = 1;
    e.lru_it = lru_.begin();
    entries_.emplace(signature, e);
    return;
  }
  Entry& e = it->second;
  ++e.n;
  // Exponential-ish running mean: full history early, then a window of ~16
  // observations so the store tracks data drift instead of averaging it away.
  double gain = 1.0 / std::min<uint64_t>(e.n, 16);
  e.mean_log += gain * (log_obs - e.mean_log);
  lru_.splice(lru_.begin(), lru_, e.lru_it);
}

std::optional<SelectivityFeedback::Learned> SelectivityFeedback::Lookup(
    const std::string& signature) const {
  if (signature.empty()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) return std::nullopt;
  return Learned{std::exp(it->second.mean_log), it->second.n};
}

double SelectivityFeedback::Blend(double model, double learned, uint64_t n) {
  if (n == 0) return model;
  double w = static_cast<double>(n) / (n + kRampObservations);
  double log_blend = w * std::log(std::clamp(learned, 1e-9, 1.0)) +
                     (1.0 - w) * std::log(std::clamp(model, 1e-9, 1.0));
  return std::exp(log_blend);
}

size_t SelectivityFeedback::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t SelectivityFeedback::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_records_;
}

void SelectivityFeedback::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

}  // namespace systemr
