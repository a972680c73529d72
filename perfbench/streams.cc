#include "streams.h"

#include <algorithm>

#include "common.h"

namespace perfbench {

using systemr::Rng;

std::vector<std::string> InsertBatches(const std::string& table,
                                       const std::vector<std::string>& rows,
                                       size_t per_stmt) {
  std::vector<std::string> out;
  for (size_t base = 0; base < rows.size(); base += per_stmt) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (size_t i = base; i < rows.size() && i < base + per_stmt; ++i) {
      if (i != base) sql += ", ";
      sql += rows[i];
    }
    out.push_back(std::move(sql));
  }
  return out;
}

namespace {

std::string Tuple(std::initializer_list<std::string> cols) {
  std::string s = "(";
  bool first = true;
  for (const std::string& c : cols) {
    if (!first) s += ", ";
    s += c;
    first = false;
  }
  return s + ")";
}

std::string N(int64_t v) { return std::to_string(v); }
std::string Q(const std::string& s) { return "'" + s + "'"; }

}  // namespace

// --- oltp ------------------------------------------------------------------

int64_t SharedPayload(int table, int64_t key) {
  return (key * 7919 + table * 104729) % 100003;
}

int64_t OwnPayload(int client, int64_t key) {
  return (key * 31 + client * 1009) % 1000;
}

std::vector<OltpOp> OltpRound(uint64_t seed, int client, uint64_t round) {
  Rng rng(SubSeed(SubSeed(seed, 100 + static_cast<uint64_t>(client)), round));
  std::vector<OltpOp> ops;
  auto range = [&](int64_t n, OltpOp* op) {
    int64_t width = rng.Uniform(1, OltpShape::kMaxRangeWidth);
    op->lo = rng.Uniform(0, n - width);
    op->hi = op->lo + width - 1;
  };
  for (int i = 0; i < 5; ++i) {
    OltpOp op;
    op.kind = OltpKind::kPointShared;
    op.table = static_cast<int>(rng.Uniform(0, OltpShape::kSharedTables - 1));
    op.lo = rng.Uniform(0, OltpShape::kSharedRows - 1);
    ops.push_back(op);
  }
  for (int i = 0; i < 5; ++i) {
    OltpOp op;
    op.kind = OltpKind::kPointOwn;
    op.lo = rng.Uniform(0, OltpShape::kOwnRows - 1);
    ops.push_back(op);
  }
  for (int i = 0; i < 4; ++i) {
    OltpOp op;
    op.kind = OltpKind::kRangeShared;
    op.table = static_cast<int>(rng.Uniform(0, OltpShape::kSharedTables - 1));
    range(OltpShape::kSharedRows, &op);
    ops.push_back(op);
  }
  for (int i = 0; i < 3; ++i) {
    OltpOp op;
    op.kind = OltpKind::kRangeOwn;
    range(OltpShape::kOwnRows, &op);
    ops.push_back(op);
  }
  for (int i = 0; i < 2; ++i) {
    OltpOp op;
    op.kind = OltpKind::kUpdateOwn;
    op.lo = rng.Uniform(0, OltpShape::kOwnRows - 1);
    op.value = rng.Uniform(1, 9);
    ops.push_back(op);
  }
  OltpOp ins;
  ins.kind = OltpKind::kInsertOwn;
  ins.value = rng.Uniform(0, 999);
  ops.push_back(ins);
  // Seeded Fisher-Yates shuffle: same seed, same order.
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
  return ops;
}

// --- adhoc -----------------------------------------------------------------

namespace {

std::string Dim(int d) { return "DIM" + std::to_string(d + 1); }
std::string Fk(int d) { return "D" + std::to_string(d + 1); }

}  // namespace

std::vector<std::string> AdhocDimRows(uint64_t seed, int dim) {
  Rng rng(SubSeed(seed, 200 + static_cast<uint64_t>(dim)));
  // ATTR takes every value of its domain on exactly two rows, placed by a
  // seeded permutation.
  std::vector<int64_t> attr(AdhocShape::kDimRows);
  for (int64_t id = 0; id < AdhocShape::kDimRows; ++id) {
    attr[id] = id % AdhocShape::kAttrDomain;
  }
  for (size_t i = attr.size(); i > 1; --i) {
    std::swap(attr[i - 1],
              attr[rng.Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
  std::vector<std::string> rows;
  for (int64_t id = 0; id < AdhocShape::kDimRows; ++id) {
    rows.push_back(Tuple({N(id), N(attr[id]),
                          N(rng.Uniform(0, AdhocShape::kGroupDomain - 1)),
                          Q(rng.RandomString(8))}));
  }
  return rows;
}

std::vector<std::string> AdhocFactRows(uint64_t seed) {
  Rng rng(SubSeed(seed, 300));
  std::vector<std::string> rows;
  for (int64_t id = 0; id < AdhocShape::kFactRows; ++id) {
    std::string t = "(" + N(id);
    for (int d = 0; d < AdhocShape::kDims; ++d) {
      t += ", " + N(rng.Uniform(0, AdhocShape::kDimRows - 1));
    }
    t += ", " + N(rng.Uniform(0, 9999)) + ", " + N(rng.Uniform(0, 99)) + ")";
    rows.push_back(std::move(t));
  }
  return rows;
}

AdhocStream::AdhocStream(uint64_t seed) : rng_(SubSeed(seed, 400)) {}

std::vector<AdhocStmt> AdhocStream::NextRound() {
  std::vector<AdhocStmt> round;
  for (int i = 0; i < AdhocShape::kRoundStmts - 2; ++i) round.push_back(Read());
  round.push_back(Update());
  round.push_back(Insert());
  for (size_t i = round.size(); i > 1; --i) {
    std::swap(round[i - 1],
              round[rng_.Uniform(0, static_cast<int64_t>(i) - 1)]);
  }
  return round;
}

AdhocStmt AdhocStream::Read() {
  // A star join: the fact table plus 2..6 dimensions. The first dimension
  // carries the selective predicate (ATTR = v matches 2 of 150 rows, so
  // about 40 fact rows); the others a group range keeping 50-90% of theirs.
  // FROM lists the driving dimension first so the reference executor's
  // nested loops stay small; the optimizer ignores FROM order.
  int dims = static_cast<int>(rng_.Uniform(2, AdhocShape::kDims));
  std::vector<int> pick(AdhocShape::kDims);
  for (int d = 0; d < AdhocShape::kDims; ++d) pick[d] = d;
  for (int i = AdhocShape::kDims; i > 1; --i) {
    std::swap(pick[i - 1], pick[rng_.Uniform(0, i - 1)]);
  }
  pick.resize(dims);

  AdhocStmt s;
  s.relations = dims + 1;
  std::string select = "SELECT F.F_ID, F.M1, " + Dim(pick[0]) + ".NAME";
  std::string from = " FROM " + Dim(pick[0]) + ", FACT F";
  std::string where = " WHERE " + Dim(pick[0]) + ".ATTR = " +
                      N(rng_.Uniform(0, AdhocShape::kAttrDomain - 1)) +
                      " AND F." + Fk(pick[0]) + " = " + Dim(pick[0]) + ".ID";
  for (int i = 1; i < dims; ++i) {
    const std::string d = Dim(pick[i]);
    int64_t keep = rng_.Uniform(5, 9);  // Groups kept, of 10.
    int64_t lo = rng_.Uniform(0, AdhocShape::kGroupDomain - keep);
    from += ", " + d;
    where += " AND F." + Fk(pick[i]) + " = " + d + ".ID AND " + d +
             ".GRP BETWEEN " + N(lo) + " AND " + N(lo + keep - 1);
    if (i == 1) select += ", " + d + ".GRP";
  }
  s.sql = select + from + where;
  if (rng_.Bernoulli(0.3)) {
    bool asc = rng_.Bernoulli(0.5);
    s.sql += asc ? " ORDER BY F.M1" : " ORDER BY F.M1 DESC";
    s.order_keys.push_back({1, asc});
  }
  return s;
}

AdhocStmt AdhocStream::Update() {
  AdhocStmt s;
  s.is_read = false;
  std::string where;
  if (rng_.Bernoulli(0.5)) {
    // A short range of fact rows by primary key: a non-key column changes.
    int64_t lo = rng_.Uniform(0, AdhocShape::kFactRows - 10);
    where = " WHERE F_ID BETWEEN " + N(lo) + " AND " +
            N(lo + rng_.Uniform(0, 9));
    s.sql = "UPDATE FACT SET M2 = " + N(rng_.Uniform(0, 99)) + where;
    s.match_count_sql = "SELECT COUNT(*) FROM FACT" + where;
  } else {
    // Rename the two dimension rows sharing an attribute value.
    const std::string d = Dim(static_cast<int>(rng_.Uniform(0, AdhocShape::kDims - 1)));
    where = " WHERE ATTR = " + N(rng_.Uniform(0, AdhocShape::kAttrDomain - 1));
    s.sql = "UPDATE " + d + " SET NAME = " + Q(rng_.RandomString(8)) + where;
    s.match_count_sql = "SELECT COUNT(*) FROM " + d + where;
  }
  return s;
}

AdhocStmt AdhocStream::Insert() {
  AdhocStmt s;
  s.is_read = false;
  std::string t = "(" + N(next_fact_id_++);
  for (int d = 0; d < AdhocShape::kDims; ++d) {
    t += ", " + N(rng_.Uniform(0, AdhocShape::kDimRows - 1));
  }
  t += ", " + N(rng_.Uniform(0, 9999)) + ", " + N(rng_.Uniform(0, 99)) + ")";
  s.sql = "INSERT INTO FACT VALUES " + t;
  return s;
}

// --- analytic ----------------------------------------------------------------

const std::vector<ReportQuery>& AnalyticReport() {
  static const std::vector<ReportQuery> kReport = {
      {"scan",
       "SELECT O_ID, QTY, PRICE FROM ORDERS WHERE QTY > PRICE AND STATUS = 2",
       {}},
      {"join",
       "SELECT O.O_ID, C.NAME, I.NAME FROM ITEM I, ORDERS O, CUSTOMER C "
       "WHERE O.CUST = C.C_ID AND O.ITEM = I.I_ID AND C.REGION = 3 "
       "AND I.CATEGORY = 7",
       {}},
      {"hashjoin",
       "SELECT O.O_ID, I.I_ID FROM ITEM I, ORDERS O "
       "WHERE O.PRICE = I.PRICE AND I.CATEGORY = 7",
       {}},
      {"agg",
       "SELECT STATUS, COUNT(*), SUM(QTY) FROM ORDERS GROUP BY STATUS",
       {}},
      {"sort",
       "SELECT O_ID, PRICE FROM ORDERS WHERE CUST < 120 ORDER BY PRICE",
       {{1, true}}},
      {"subq",
       "SELECT C.C_ID, C.CREDIT FROM CUSTOMER C WHERE C.C_ID < 30 AND "
       "C.CREDIT > (SELECT AVG(O.QTY) FROM ORDERS O WHERE O.CUST = C.C_ID)",
       {}},
  };
  return kReport;
}

std::vector<std::string> AnalyticOrderRows(uint64_t seed) {
  Rng rng(SubSeed(seed, 500));
  std::vector<std::string> rows;
  for (int64_t id = 0; id < AnalyticShape::kOrders; ++id) {
    rows.push_back(Tuple({N(id), N(rng.Uniform(0, AnalyticShape::kCustomers - 1)),
                          N(rng.Uniform(0, AnalyticShape::kItems - 1)),
                          N(rng.Uniform(1, 100)), N(rng.Uniform(1, 1000)),
                          N(rng.Uniform(0, AnalyticShape::kStatuses - 1)),
                          Q(rng.RandomString(24))}));
  }
  return rows;
}

std::vector<std::string> AnalyticCustomerRows(uint64_t seed) {
  Rng rng(SubSeed(seed, 501));
  std::vector<std::string> rows;
  for (int64_t id = 0; id < AnalyticShape::kCustomers; ++id) {
    rows.push_back(Tuple({N(id), N(rng.Uniform(0, 9)), N(rng.Uniform(0, 4)),
                          N(rng.Uniform(0, 100)), Q(rng.RandomString(12))}));
  }
  return rows;
}

std::vector<std::string> AnalyticItemRows(uint64_t seed) {
  Rng rng(SubSeed(seed, 502));
  std::vector<std::string> rows;
  for (int64_t id = 0; id < AnalyticShape::kItems; ++id) {
    rows.push_back(Tuple({N(id), N(rng.Uniform(0, 19)),
                          N(rng.Uniform(1, 1000)), Q(rng.RandomString(12))}));
  }
  return rows;
}

}  // namespace perfbench
