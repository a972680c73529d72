// Seeded inputs of the three workloads: the table contents and the
// statement streams. Everything here is a pure function of the seed, so a
// given seed always yields the same data and the same statements; the
// engine receives only the generated SQL and parameters.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Multi-row INSERT statements loading `rows` (each already rendered as a
/// parenthesized SQL tuple) into `table`, `per_stmt` rows at a time.
std::vector<std::string> InsertBatches(const std::string& table,
                                       const std::vector<std::string>& rows,
                                       size_t per_stmt = 500);

// --- oltp ------------------------------------------------------------------

struct OltpShape {
  static constexpr int kSharedTables = 2;
  static constexpr int64_t kSharedRows = 20000;  // Keys 0..n-1, dense.
  static constexpr int64_t kOwnRows = 5000;      // Initial keys, dense.
  static constexpr int64_t kMaxRangeWidth = 40;
  static constexpr int kRoundOps = 20;
  static constexpr int kClients = 2;
};

/// The shared tables' read-only payload for key k: the value every point
/// lookup on them must return.
int64_t SharedPayload(int table, int64_t key);
/// Initial payload of key k in client c's own table.
int64_t OwnPayload(int client, int64_t key);

enum class OltpKind {
  kPointShared,
  kPointOwn,
  kRangeShared,
  kRangeOwn,
  kUpdateOwn,  // UPDATE ... SET V = V + delta WHERE K = key.
  kInsertOwn,  // INSERT of the next fresh key with payload `value`.
};

struct OltpOp {
  OltpKind kind = OltpKind::kPointShared;
  int table = 0;      // Shared table index (shared kinds only).
  int64_t lo = 0;     // Key, or range low end.
  int64_t hi = 0;     // Range high end.
  int64_t value = 0;  // Update delta / inserted payload.
  bool is_write() const {
    return kind == OltpKind::kUpdateOwn || kind == OltpKind::kInsertOwn;
  }
};

/// Round `round` of client `client`: 10 point lookups, 7 range counts,
/// 2 updates and 1 insert, in a seeded order. Own-table keys stay within the
/// initial dense key range, so every range count is hi - lo + 1.
std::vector<OltpOp> OltpRound(uint64_t seed, int client, uint64_t round);

// --- adhoc -----------------------------------------------------------------

struct AdhocShape {
  static constexpr int kDims = 6;
  static constexpr int64_t kDimRows = 150;
  static constexpr int64_t kAttrDomain = 75;  // 2 dimension rows per value.
  static constexpr int64_t kGroupDomain = 10;
  static constexpr int64_t kFactRows = 3000;
  static constexpr int kRoundStmts = 20;  // 18 reads, 1 update, 1 insert.
};

struct AdhocStmt {
  std::string sql;
  bool is_read = true;
  int relations = 0;  // Reads: relations joined.
  /// Reads with ORDER BY: (select position, ascending) keys.
  std::vector<std::pair<size_t, bool>> order_keys;
  /// DML: a SELECT COUNT(*) over the rows the statement's WHERE matches
  /// (empty for INSERT, which always affects exactly one row).
  std::string match_count_sql;
};

/// The adhoc statement stream: literal-varying star joins of 3 to 7
/// relations plus one UPDATE and one INSERT per round of 20.
class AdhocStream {
 public:
  explicit AdhocStream(uint64_t seed);
  std::vector<AdhocStmt> NextRound();

 private:
  AdhocStmt Read();
  AdhocStmt Update();
  AdhocStmt Insert();

  systemr::Rng rng_;
  int64_t next_fact_id_ = AdhocShape::kFactRows;
};

/// Rows (as SQL tuples) of the adhoc schema's tables.
std::vector<std::string> AdhocDimRows(uint64_t seed, int dim);
std::vector<std::string> AdhocFactRows(uint64_t seed);

// --- analytic ----------------------------------------------------------------

struct AnalyticShape {
  static constexpr int64_t kOrders = 12000;
  static constexpr int64_t kCustomers = 1200;
  static constexpr int64_t kItems = 600;
  static constexpr int64_t kStatuses = 5;
};

struct ReportQuery {
  const char* shape;  // scan | join | hashjoin | agg | sort | subq
  std::string sql;
  std::vector<std::pair<size_t, bool>> order_keys;
};

/// The fixed report: one query per shape, in report order.
const std::vector<ReportQuery>& AnalyticReport();

std::vector<std::string> AnalyticOrderRows(uint64_t seed);
std::vector<std::string> AnalyticCustomerRows(uint64_t seed);
std::vector<std::string> AnalyticItemRows(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
