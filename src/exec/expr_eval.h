// Value primitives of expression evaluation, used by the compiled programs
// (exec/expr_program.h): SQL LIKE matching and arithmetic under the engine's
// NULL and typing rules.
#ifndef SYSTEMR_EXEC_EXPR_EVAL_H_
#define SYSTEMR_EXEC_EXPR_EVAL_H_

#include <string>

#include "common/status.h"
#include "common/value.h"

namespace systemr {

/// SQL LIKE: '%' matches any sequence, '_' any single character. Iterative
/// two-pointer backtracking — O(|s|·|pattern|) worst case, so pathological
/// patterns like "%a%a%a%a%a" stay cheap.
bool LikeMatch(const std::string& s, const std::string& pattern);

/// Arithmetic with the engine's NULL/typing rules, written into *out (no
/// StatusOr temporary on the hot path).
Status EvalArithInto(char op, const Value& a, const Value& b, Value* out);

}  // namespace systemr

#endif  // SYSTEMR_EXEC_EXPR_EVAL_H_
