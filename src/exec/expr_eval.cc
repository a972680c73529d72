#include "exec/expr_eval.h"

namespace systemr {

bool LikeMatch(const std::string& s, const std::string& pattern) {
  size_t si = 0, pi = 0;
  // Position of the last '%' seen and the subject index its current
  // expansion resumes from; on a mismatch we back up here and let the '%'
  // absorb one more character.
  size_t star_pi = std::string::npos;
  size_t star_si = 0;
  while (si < s.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_pi = pi++;
      star_si = si;
    } else if (star_pi != std::string::npos) {
      pi = star_pi + 1;
      si = ++star_si;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

Status EvalArithInto(char op, const Value& a, const Value& b, Value* out) {
  if (a.is_null() || b.is_null()) {
    *out = Value::Null();
    return Status::OK();
  }
  if (!IsArithmetic(a.type()) || !IsArithmetic(b.type())) {
    return Status::InvalidArgument("arithmetic on non-numeric value");
  }
  bool both_int =
      a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64;
  if (op == '/') {
    double denom = b.AsNumber();
    *out = denom == 0 ? Value::Null() : Value::Real(a.AsNumber() / denom);
    return Status::OK();
  }
  if (both_int) {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case '+': *out = Value::Int(x + y); return Status::OK();
      case '-': *out = Value::Int(x - y); return Status::OK();
      case '*': *out = Value::Int(x * y); return Status::OK();
    }
  }
  double x = a.AsNumber(), y = b.AsNumber();
  switch (op) {
    case '+': *out = Value::Real(x + y); return Status::OK();
    case '-': *out = Value::Real(x - y); return Status::OK();
    case '*': *out = Value::Real(x * y); return Status::OK();
  }
  return Status::Internal("unknown arithmetic operator");
}

}  // namespace systemr
