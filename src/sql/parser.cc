#include "sql/parser.h"

#include "sql/lexer.h"

namespace systemr {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Statement> ParseStatement() {
    num_params_ = 0;
    ASSIGN_OR_RETURN(Statement stmt, ParseStatementImpl());
    stmt.num_params = num_params_;
    return stmt;
  }
  bool AtEof() {
    SkipSemicolons();
    return Peek().type == TokenType::kEof;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Consume() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Match(TokenType t) {
    if (Peek().type == t) {
      Consume();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t) {
    if (Peek().type != t) {
      return Status::InvalidArgument(
          std::string("expected ") + TokenTypeName(t) + " but found " +
          TokenTypeName(Peek().type) + " at offset " +
          std::to_string(Peek().offset));
    }
    Consume();
    return Status::OK();
  }
  void SkipSemicolons() {
    while (Peek().type == TokenType::kSemicolon) Consume();
  }

  StatusOr<Statement> ParseStatementImpl();
  StatusOr<std::unique_ptr<SelectStmt>> ParseSelect();
  StatusOr<std::unique_ptr<Expr>> ParseOrExpr();
  StatusOr<std::unique_ptr<Expr>> ParseAndExpr();
  StatusOr<std::unique_ptr<Expr>> ParseNotExpr();
  StatusOr<std::unique_ptr<Expr>> ParsePredicate();
  StatusOr<std::unique_ptr<Expr>> ParseAdditive();
  StatusOr<std::unique_ptr<Expr>> ParseMultiplicative();
  StatusOr<std::unique_ptr<Expr>> ParseUnary();
  StatusOr<std::unique_ptr<Expr>> ParsePrimary();
  StatusOr<OrderItem> ParseOrderColumn(bool with_direction);
  StatusOr<Value> ParseLiteralValue();

  StatusOr<Statement> ParseCreate();
  StatusOr<Statement> ParseInsert();
  StatusOr<Statement> ParseUpdateStatistics();
  StatusOr<Statement> ParseDelete();
  StatusOr<Statement> ParseUpdate();

  std::optional<CompareOp> PeekCompareOp() const {
    switch (Peek().type) {
      case TokenType::kEq: return CompareOp::kEq;
      case TokenType::kNe: return CompareOp::kNe;
      case TokenType::kLt: return CompareOp::kLt;
      case TokenType::kLe: return CompareOp::kLe;
      case TokenType::kGt: return CompareOp::kGt;
      case TokenType::kGe: return CompareOp::kGe;
      default: return std::nullopt;
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  // ? host-variable markers seen so far, numbered in lexical order.
  int num_params_ = 0;
};

StatusOr<Statement> Parser::ParseStatementImpl() {
  SkipSemicolons();
  Statement stmt;
  switch (Peek().type) {
    case TokenType::kSelect: {
      stmt.kind = Statement::Kind::kSelect;
      ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      break;
    }
    case TokenType::kExplain: {
      Consume();
      stmt.kind = Statement::Kind::kExplain;
      ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      break;
    }
    case TokenType::kCreate:
      return ParseCreate();
    case TokenType::kInsert:
      return ParseInsert();
    case TokenType::kUpdate:
      if (Peek(1).type == TokenType::kStatistics) return ParseUpdateStatistics();
      return ParseUpdate();
    case TokenType::kDelete:
      return ParseDelete();
    case TokenType::kBegin:
    case TokenType::kCommit:
    case TokenType::kRollback: {
      TokenType t = Consume().type;
      stmt.kind = t == TokenType::kBegin      ? Statement::Kind::kBegin
                  : t == TokenType::kCommit   ? Statement::Kind::kCommit
                                              : Statement::Kind::kRollback;
      Match(TokenType::kTransaction);  // Optional TRANSACTION / WORK noise word.
      break;
    }
    default:
      return Status::InvalidArgument(std::string("unexpected ") +
                                     TokenTypeName(Peek().type) +
                                     " at start of statement");
  }
  SkipSemicolons();
  return stmt;
}

StatusOr<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  RETURN_IF_ERROR(Expect(TokenType::kSelect));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = Match(TokenType::kDistinct);
  if (Match(TokenType::kStar)) {
    stmt->select_star = true;
  } else {
    while (true) {
      SelectItem item;
      ASSIGN_OR_RETURN(item.expr, ParseAdditive());
      if (Match(TokenType::kAs)) {
        if (Peek().type != TokenType::kIdentifier) {
          return Status::InvalidArgument("expected alias after AS");
        }
        item.alias = Consume().text;
      }
      stmt->select_list.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }
  RETURN_IF_ERROR(Expect(TokenType::kFrom));
  while (true) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument("expected table name in FROM");
    }
    FromItem item;
    item.table = Consume().text;
    item.correlation = item.table;
    if (Peek().type == TokenType::kIdentifier) {
      item.correlation = Consume().text;  // Correlation name, e.g. EMPLOYEE X.
    }
    stmt->from.push_back(std::move(item));
    if (!Match(TokenType::kComma)) break;
  }
  if (Match(TokenType::kWhere)) {
    ASSIGN_OR_RETURN(stmt->where, ParseOrExpr());
  }
  if (Match(TokenType::kGroup)) {
    RETURN_IF_ERROR(Expect(TokenType::kBy));
    while (true) {
      ASSIGN_OR_RETURN(OrderItem item, ParseOrderColumn(false));
      stmt->group_by.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }
  if (Match(TokenType::kHaving)) {
    ASSIGN_OR_RETURN(stmt->having, ParseOrExpr());
  }
  if (Match(TokenType::kOrder)) {
    RETURN_IF_ERROR(Expect(TokenType::kBy));
    while (true) {
      ASSIGN_OR_RETURN(OrderItem item, ParseOrderColumn(true));
      stmt->order_by.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
  }
  return stmt;
}

StatusOr<OrderItem> Parser::ParseOrderColumn(bool with_direction) {
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected column name");
  }
  OrderItem item;
  item.column = Consume().text;
  if (Match(TokenType::kDot)) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument("expected column after '.'");
    }
    item.table = item.column;
    item.column = Consume().text;
  }
  if (with_direction) {
    if (Match(TokenType::kDesc)) {
      item.asc = false;
    } else {
      Match(TokenType::kAsc);
    }
  }
  return item;
}

StatusOr<std::unique_ptr<Expr>> Parser::ParseOrExpr() {
  ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAndExpr());
  while (Match(TokenType::kOr)) {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAndExpr());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kOr;
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    lhs = std::move(node);
  }
  return lhs;
}

StatusOr<std::unique_ptr<Expr>> Parser::ParseAndExpr() {
  ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNotExpr());
  while (Match(TokenType::kAnd)) {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNotExpr());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kAnd;
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    lhs = std::move(node);
  }
  return lhs;
}

StatusOr<std::unique_ptr<Expr>> Parser::ParseNotExpr() {
  if (Match(TokenType::kNot)) {
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> child, ParseNotExpr());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kNot;
    node->children.push_back(std::move(child));
    return node;
  }
  return ParsePredicate();
}

StatusOr<std::unique_ptr<Expr>> Parser::ParsePredicate() {
  ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());

  // IS [NOT] NULL.
  if (Match(TokenType::kIs)) {
    bool negated = Match(TokenType::kNot);
    RETURN_IF_ERROR(Expect(TokenType::kNull));
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kIsNull;
    node->negated = negated;
    node->children.push_back(std::move(lhs));
    return node;
  }

  // Comparison, possibly with a scalar subquery on the right.
  if (auto op = PeekCompareOp(); op.has_value()) {
    Consume();
    if (Peek().type == TokenType::kLParen &&
        Peek(1).type == TokenType::kSelect) {
      Consume();  // '('
      auto sub = std::make_unique<Expr>();
      sub->kind = ExprKind::kSubquery;
      ASSIGN_OR_RETURN(sub->subquery, ParseSelect());
      RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return MakeCompare(*op, std::move(lhs), std::move(sub));
    }
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
    return MakeCompare(*op, std::move(lhs), std::move(rhs));
  }

  // BETWEEN lo AND hi.
  if (Match(TokenType::kBetween)) {
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kBetween;
    node->children.push_back(std::move(lhs));
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> lo, ParseAdditive());
    node->children.push_back(std::move(lo));
    RETURN_IF_ERROR(Expect(TokenType::kAnd));
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> hi, ParseAdditive());
    node->children.push_back(std::move(hi));
    return node;
  }

  // [NOT] LIKE 'pattern'.
  {
    bool not_like = false;
    if (Peek().type == TokenType::kNot && Peek(1).type == TokenType::kLike) {
      Consume();
      not_like = true;
    }
    if (Match(TokenType::kLike)) {
      if (Peek().type != TokenType::kStringLiteral) {
        return Status::InvalidArgument("LIKE requires a string pattern");
      }
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kLike;
      node->negated = not_like;
      node->children.push_back(std::move(lhs));
      node->children.push_back(MakeLiteral(Value::Str(Consume().text)));
      return node;
    }
    if (not_like) return Status::InvalidArgument("expected LIKE after NOT");
  }

  // [NOT] IN (list | subquery).
  bool not_in = false;
  if (Peek().type == TokenType::kNot && Peek(1).type == TokenType::kIn) {
    Consume();
    not_in = true;
  }
  if (Match(TokenType::kIn)) {
    RETURN_IF_ERROR(Expect(TokenType::kLParen));
    std::unique_ptr<Expr> node;
    if (Peek().type == TokenType::kSelect) {
      node = std::make_unique<Expr>();
      node->kind = ExprKind::kInSubquery;
      node->children.push_back(std::move(lhs));
      ASSIGN_OR_RETURN(node->subquery, ParseSelect());
    } else {
      node = std::make_unique<Expr>();
      node->kind = ExprKind::kInList;
      node->children.push_back(std::move(lhs));
      // Items are arbitrary scalar expressions: columns, arithmetic, host
      // variables and aggregates (in HAVING) as well as literals.
      while (true) {
        ASSIGN_OR_RETURN(std::unique_ptr<Expr> item, ParseAdditive());
        node->children.push_back(std::move(item));
        if (!Match(TokenType::kComma)) break;
      }
    }
    RETURN_IF_ERROR(Expect(TokenType::kRParen));
    if (not_in) {
      auto neg = std::make_unique<Expr>();
      neg->kind = ExprKind::kNot;
      neg->children.push_back(std::move(node));
      return neg;
    }
    return node;
  }
  if (not_in) {
    return Status::InvalidArgument("expected IN after NOT");
  }
  return lhs;
}

StatusOr<std::unique_ptr<Expr>> Parser::ParseAdditive() {
  ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
  while (Peek().type == TokenType::kPlus || Peek().type == TokenType::kMinus) {
    char op = Peek().type == TokenType::kPlus ? '+' : '-';
    Consume();
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kArith;
    node->arith_op = op;
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    lhs = std::move(node);
  }
  return lhs;
}

StatusOr<std::unique_ptr<Expr>> Parser::ParseMultiplicative() {
  ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
  while (Peek().type == TokenType::kStar || Peek().type == TokenType::kSlash) {
    char op = Peek().type == TokenType::kStar ? '*' : '/';
    Consume();
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseUnary());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kArith;
    node->arith_op = op;
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    lhs = std::move(node);
  }
  return lhs;
}

StatusOr<std::unique_ptr<Expr>> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    // Constant-fold negation of literals; otherwise 0 - x.
    if (Peek().type == TokenType::kIntLiteral) {
      Token t = Consume();
      return MakeLiteral(Value::Int(-t.int_value));
    }
    if (Peek().type == TokenType::kRealLiteral) {
      Token t = Consume();
      return MakeLiteral(Value::Real(-t.real_value));
    }
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> child, ParseUnary());
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::kArith;
    node->arith_op = '-';
    node->children.push_back(MakeLiteral(Value::Int(0)));
    node->children.push_back(std::move(child));
    return node;
  }
  return ParsePrimary();
}

StatusOr<std::unique_ptr<Expr>> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral: {
      int64_t v = Consume().int_value;
      return MakeLiteral(Value::Int(v));
    }
    case TokenType::kRealLiteral: {
      double v = Consume().real_value;
      return MakeLiteral(Value::Real(v));
    }
    case TokenType::kStringLiteral: {
      std::string v = Consume().text;
      return MakeLiteral(Value::Str(std::move(v)));
    }
    case TokenType::kNull:
      Consume();
      return MakeLiteral(Value::Null());
    case TokenType::kQuestion: {
      Consume();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kParameter;
      node->param_idx = num_params_++;
      return node;
    }
    case TokenType::kIdentifier: {
      std::string first = Consume().text;
      if (Match(TokenType::kDot)) {
        if (Peek().type != TokenType::kIdentifier) {
          return Status::InvalidArgument("expected column after '.'");
        }
        std::string column = Consume().text;
        return MakeColumnRef(std::move(first), std::move(column));
      }
      return MakeColumnRef("", std::move(first));
    }
    case TokenType::kLParen: {
      Consume();
      if (Peek().type == TokenType::kSelect) {
        auto sub = std::make_unique<Expr>();
        sub->kind = ExprKind::kSubquery;
        ASSIGN_OR_RETURN(sub->subquery, ParseSelect());
        RETURN_IF_ERROR(Expect(TokenType::kRParen));
        return sub;
      }
      ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseOrExpr());
      RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return inner;
    }
    case TokenType::kAvg:
    case TokenType::kCount:
    case TokenType::kMin:
    case TokenType::kMax:
    case TokenType::kSum: {
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kAggregate;
      switch (Consume().type) {
        case TokenType::kAvg: node->agg = AggFunc::kAvg; break;
        case TokenType::kCount: node->agg = AggFunc::kCount; break;
        case TokenType::kMin: node->agg = AggFunc::kMin; break;
        case TokenType::kMax: node->agg = AggFunc::kMax; break;
        default: node->agg = AggFunc::kSum; break;
      }
      RETURN_IF_ERROR(Expect(TokenType::kLParen));
      if (node->agg == AggFunc::kCount && Match(TokenType::kStar)) {
        // COUNT(*): no argument child.
      } else {
        ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseAdditive());
        node->children.push_back(std::move(arg));
      }
      RETURN_IF_ERROR(Expect(TokenType::kRParen));
      return node;
    }
    default:
      return Status::InvalidArgument(
          std::string("unexpected ") + TokenTypeName(t.type) +
          " in expression at offset " + std::to_string(t.offset));
  }
}

StatusOr<Value> Parser::ParseLiteralValue() {
  bool negative = Match(TokenType::kMinus);
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kIntLiteral: {
      int64_t v = Consume().int_value;
      return Value::Int(negative ? -v : v);
    }
    case TokenType::kRealLiteral: {
      double v = Consume().real_value;
      return Value::Real(negative ? -v : v);
    }
    case TokenType::kStringLiteral:
      if (negative) return Status::InvalidArgument("cannot negate a string");
      return Value::Str(Consume().text);
    case TokenType::kNull:
      if (negative) return Status::InvalidArgument("cannot negate NULL");
      Consume();
      return Value::Null();
    default:
      return Status::InvalidArgument("expected literal value");
  }
}

StatusOr<Statement> Parser::ParseCreate() {
  RETURN_IF_ERROR(Expect(TokenType::kCreate));
  Statement stmt;
  if (Match(TokenType::kTable)) {
    stmt.kind = Statement::Kind::kCreateTable;
    stmt.create_table = std::make_unique<CreateTableStmt>();
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument("expected table name");
    }
    stmt.create_table->name = Consume().text;
    RETURN_IF_ERROR(Expect(TokenType::kLParen));
    while (true) {
      if (Peek().type != TokenType::kIdentifier) {
        return Status::InvalidArgument("expected column name");
      }
      std::string col = Consume().text;
      ValueType type;
      switch (Peek().type) {
        case TokenType::kInt: type = ValueType::kInt64; break;
        case TokenType::kReal: type = ValueType::kDouble; break;
        case TokenType::kString: type = ValueType::kString; break;
        default:
          return Status::InvalidArgument("expected column type for " + col);
      }
      Consume();
      // Optional length, e.g. VARCHAR(20) — parsed and ignored.
      if (Match(TokenType::kLParen)) {
        if (Peek().type != TokenType::kIntLiteral) {
          return Status::InvalidArgument("expected length");
        }
        Consume();
        RETURN_IF_ERROR(Expect(TokenType::kRParen));
      }
      stmt.create_table->columns.emplace_back(std::move(col), type);
      if (!Match(TokenType::kComma)) break;
    }
    RETURN_IF_ERROR(Expect(TokenType::kRParen));
    SkipSemicolons();
    return stmt;
  }
  bool unique = false;
  bool clustered = false;
  while (true) {
    if (Match(TokenType::kUnique)) {
      unique = true;
    } else if (Match(TokenType::kClustered)) {
      clustered = true;
    } else {
      break;
    }
  }
  RETURN_IF_ERROR(Expect(TokenType::kIndex));
  stmt.kind = Statement::Kind::kCreateIndex;
  stmt.create_index = std::make_unique<CreateIndexStmt>();
  stmt.create_index->unique = unique;
  stmt.create_index->clustered = clustered;
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected index name");
  }
  stmt.create_index->name = Consume().text;
  RETURN_IF_ERROR(Expect(TokenType::kOn));
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected table name");
  }
  stmt.create_index->table = Consume().text;
  RETURN_IF_ERROR(Expect(TokenType::kLParen));
  while (true) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument("expected column name");
    }
    stmt.create_index->columns.push_back(Consume().text);
    if (!Match(TokenType::kComma)) break;
  }
  RETURN_IF_ERROR(Expect(TokenType::kRParen));
  SkipSemicolons();
  return stmt;
}

StatusOr<Statement> Parser::ParseInsert() {
  RETURN_IF_ERROR(Expect(TokenType::kInsert));
  RETURN_IF_ERROR(Expect(TokenType::kInto));
  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.insert = std::make_unique<InsertStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected table name");
  }
  stmt.insert->table = Consume().text;
  RETURN_IF_ERROR(Expect(TokenType::kValues));
  while (true) {
    RETURN_IF_ERROR(Expect(TokenType::kLParen));
    std::vector<Value> row;
    while (true) {
      ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      row.push_back(std::move(v));
      if (!Match(TokenType::kComma)) break;
    }
    RETURN_IF_ERROR(Expect(TokenType::kRParen));
    stmt.insert->rows.push_back(std::move(row));
    if (!Match(TokenType::kComma)) break;
  }
  SkipSemicolons();
  return stmt;
}

StatusOr<Statement> Parser::ParseDelete() {
  RETURN_IF_ERROR(Expect(TokenType::kDelete));
  RETURN_IF_ERROR(Expect(TokenType::kFrom));
  Statement stmt;
  stmt.kind = Statement::Kind::kDelete;
  stmt.delete_stmt = std::make_unique<DeleteStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected table name");
  }
  stmt.delete_stmt->table = Consume().text;
  if (Match(TokenType::kWhere)) {
    ASSIGN_OR_RETURN(stmt.delete_stmt->where, ParseOrExpr());
  }
  SkipSemicolons();
  return stmt;
}

StatusOr<Statement> Parser::ParseUpdate() {
  RETURN_IF_ERROR(Expect(TokenType::kUpdate));
  Statement stmt;
  stmt.kind = Statement::Kind::kUpdate;
  stmt.update_stmt = std::make_unique<UpdateStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected table name");
  }
  stmt.update_stmt->table = Consume().text;
  RETURN_IF_ERROR(Expect(TokenType::kSet));
  while (true) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::InvalidArgument("expected column name in SET");
    }
    std::string column = Consume().text;
    RETURN_IF_ERROR(Expect(TokenType::kEq));
    ASSIGN_OR_RETURN(std::unique_ptr<Expr> value, ParseAdditive());
    stmt.update_stmt->sets.emplace_back(std::move(column), std::move(value));
    if (!Match(TokenType::kComma)) break;
  }
  if (Match(TokenType::kWhere)) {
    ASSIGN_OR_RETURN(stmt.update_stmt->where, ParseOrExpr());
  }
  SkipSemicolons();
  return stmt;
}

StatusOr<Statement> Parser::ParseUpdateStatistics() {
  RETURN_IF_ERROR(Expect(TokenType::kUpdate));
  RETURN_IF_ERROR(Expect(TokenType::kStatistics));
  Statement stmt;
  stmt.kind = Statement::Kind::kUpdateStatistics;
  stmt.update_statistics = std::make_unique<UpdateStatisticsStmt>();
  if (Peek().type != TokenType::kIdentifier) {
    return Status::InvalidArgument("expected table name");
  }
  stmt.update_statistics->table = Consume().text;
  SkipSemicolons();
  return stmt;
}

}  // namespace

StatusOr<Statement> Parse(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  if (!parser.AtEof()) {
    return Status::InvalidArgument("trailing input after statement");
  }
  return stmt;
}

StatusOr<std::vector<Statement>> ParseScript(const std::string& sql) {
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  std::vector<Statement> out;
  while (!parser.AtEof()) {
    ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
    out.push_back(std::move(stmt));
  }
  return out;
}

}  // namespace systemr
