#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace systemr {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Lex("SELECT name FROM emp WHERE sal >= 100.5 AND x <> 'a''b'");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenType> types;
  for (const Token& t : *tokens) types.push_back(t.type);
  EXPECT_EQ(types[0], TokenType::kSelect);
  EXPECT_EQ(types[1], TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[1].text, "NAME") << "identifiers are upper-cased";
  EXPECT_EQ(types[5], TokenType::kIdentifier);
  EXPECT_EQ(types[6], TokenType::kGe);
  EXPECT_EQ(types[7], TokenType::kRealLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[7].real_value, 100.5);
  EXPECT_EQ(types[10], TokenType::kNe);
  EXPECT_EQ((*tokens)[11].text, "a'b") << "escaped quote";
  EXPECT_EQ(types.back(), TokenType::kEof);
}

TEST(LexerTest, CommentsAndErrors) {
  auto ok = Lex("SELECT 1 -- comment\nFROM t");
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(Lex("SELECT 'unterminated").ok());
  EXPECT_FALSE(Lex("SELECT #").ok());
}

TEST(ParserTest, PaperFigure1Query) {
  auto stmt = Parse(
      "SELECT NAME, TITLE, SAL, DNAME "
      "FROM EMP, DEPT, JOB "
      "WHERE TITLE='CLERK' AND LOC='DENVER' "
      "AND EMP.DNO=DEPT.DNO AND EMP.JOB=JOB.JOB");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStmt& s = *stmt->select;
  EXPECT_EQ(s.select_list.size(), 4u);
  EXPECT_EQ(s.from.size(), 3u);
  EXPECT_EQ(s.from[1].table, "DEPT");
  ASSERT_NE(s.where, nullptr);
  // WHERE is a left-deep AND chain of 4 conjuncts.
  EXPECT_EQ(s.where->kind, ExprKind::kAnd);
}

TEST(ParserTest, CorrelationNames) {
  auto stmt = Parse("SELECT X.NAME FROM EMPLOYEE X WHERE X.SAL > 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from[0].table, "EMPLOYEE");
  EXPECT_EQ(stmt->select->from[0].correlation, "X");
}

TEST(ParserTest, BetweenInAndNot) {
  auto stmt = Parse(
      "SELECT A FROM T WHERE A BETWEEN 1 AND 5 AND B IN (1,2,3) "
      "AND NOT C = 4 AND D NOT IN (7, 8)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::string s = stmt->select->where->ToString();
  EXPECT_NE(s.find("BETWEEN"), std::string::npos);
  EXPECT_NE(s.find("IN ("), std::string::npos);
  EXPECT_NE(s.find("NOT"), std::string::npos);
}

// IN-list items are scalar expressions, not only literals.
TEST(ParserTest, InListItemsAreExpressions) {
  auto stmt = Parse("SELECT A FROM T WHERE A IN (B, 3) AND A IN (1 + 1)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  std::string s = stmt->select->where->ToString();
  EXPECT_NE(s.find("IN (B, 3)"), std::string::npos) << s;
  EXPECT_NE(s.find("IN ((1+1))"), std::string::npos) << s;
  auto having = Parse(
      "SELECT A FROM T GROUP BY A HAVING SUM(B) IN (A, -7, ?)");
  ASSERT_TRUE(having.ok()) << having.status().ToString();
  EXPECT_FALSE(Parse("SELECT A FROM T WHERE A IN ()").ok());
  EXPECT_FALSE(Parse("SELECT A FROM T WHERE A IN (1, )").ok());
  EXPECT_FALSE(Parse("SELECT A FROM T WHERE A IN (B = 1)").ok())
      << "an item is a scalar, not a predicate";
}

TEST(ParserTest, OrPrecedence) {
  auto stmt = Parse("SELECT A FROM T WHERE A=1 OR B=2 AND C=3");
  ASSERT_TRUE(stmt.ok());
  // AND binds tighter: OR(A=1, AND(B=2, C=3)).
  EXPECT_EQ(stmt->select->where->kind, ExprKind::kOr);
  EXPECT_EQ(stmt->select->where->children[1]->kind, ExprKind::kAnd);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto stmt = Parse("SELECT A + B * 2 FROM T");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *stmt->select->select_list[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kArith);
  EXPECT_EQ(e.arith_op, '+');
  EXPECT_EQ(e.children[1]->kind, ExprKind::kArith);
  EXPECT_EQ(e.children[1]->arith_op, '*');
}

TEST(ParserTest, ScalarSubquery) {
  auto stmt = Parse(
      "SELECT NAME FROM EMPLOYEE "
      "WHERE SALARY = (SELECT AVG(SALARY) FROM EMPLOYEE)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const Expr& w = *stmt->select->where;
  ASSERT_EQ(w.kind, ExprKind::kCompare);
  EXPECT_EQ(w.children[1]->kind, ExprKind::kSubquery);
  EXPECT_EQ(w.children[1]->subquery->select_list[0].expr->kind,
            ExprKind::kAggregate);
}

TEST(ParserTest, InSubquery) {
  auto stmt = Parse(
      "SELECT NAME FROM EMPLOYEE WHERE DNO IN "
      "(SELECT DNO FROM DEPARTMENT WHERE LOCATION='DENVER')");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->kind, ExprKind::kInSubquery);
}

TEST(ParserTest, GroupOrderBy) {
  auto stmt = Parse(
      "SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO DESC");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->select->group_by.size(), 1u);
  ASSERT_EQ(stmt->select->order_by.size(), 1u);
  EXPECT_FALSE(stmt->select->order_by[0].asc);
}

TEST(ParserTest, CountStar) {
  auto stmt = Parse("SELECT COUNT(*) FROM T");
  ASSERT_TRUE(stmt.ok());
  const Expr& e = *stmt->select->select_list[0].expr;
  EXPECT_EQ(e.kind, ExprKind::kAggregate);
  EXPECT_EQ(e.agg, AggFunc::kCount);
  EXPECT_TRUE(e.children.empty());
}

TEST(ParserTest, CreateTable) {
  auto stmt = Parse("CREATE TABLE EMP (NAME VARCHAR(20), DNO INT, SAL REAL)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt->create_table->columns.size(), 3u);
  EXPECT_EQ(stmt->create_table->columns[0].second, ValueType::kString);
  EXPECT_EQ(stmt->create_table->columns[1].second, ValueType::kInt64);
  EXPECT_EQ(stmt->create_table->columns[2].second, ValueType::kDouble);
}

TEST(ParserTest, CreateIndexVariants) {
  auto a = Parse("CREATE INDEX I1 ON T (A)");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a->create_index->unique);
  auto b = Parse("CREATE UNIQUE CLUSTERED INDEX I2 ON T (A, B)");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->create_index->unique);
  EXPECT_TRUE(b->create_index->clustered);
  EXPECT_EQ(b->create_index->columns.size(), 2u);
}

TEST(ParserTest, InsertValues) {
  auto stmt =
      Parse("INSERT INTO T VALUES (1, 'x', -2.5), (2, 'y', NULL)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->insert->rows.size(), 2u);
  EXPECT_EQ(stmt->insert->rows[0][2].AsReal(), -2.5);
  EXPECT_TRUE(stmt->insert->rows[1][2].is_null());
}

TEST(ParserTest, UpdateStatistics) {
  auto stmt = Parse("UPDATE STATISTICS EMP");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kUpdateStatistics);
  EXPECT_EQ(stmt->update_statistics->table, "EMP");
}

TEST(ParserTest, Explain) {
  auto stmt = Parse("EXPLAIN SELECT A FROM T");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kExplain);
}

TEST(ParserTest, Script) {
  auto stmts = ParseScript(
      "CREATE TABLE T (A INT); INSERT INTO T VALUES (1); SELECT A FROM T;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  EXPECT_EQ(stmts->size(), 3u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("SELECT FROM T").ok());
  EXPECT_FALSE(Parse("SELECT A FROM").ok());
  EXPECT_FALSE(Parse("SELECT A FROM T WHERE").ok());
  EXPECT_FALSE(Parse("SELECT A FROM T extra garbage here").ok());
  EXPECT_FALSE(Parse("CREATE TABLE T ()").ok());
  EXPECT_FALSE(Parse("").ok());
}

}  // namespace
}  // namespace systemr
