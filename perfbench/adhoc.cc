// adhoc: one in-process Session runs a seeded stream of literal-varying star
// joins (3 to 7 relations) with one UPDATE and one INSERT per round of 20.
// Every statement misses the plan cache, so each is parsed, bound and
// optimized before it runs. Outside the timed region each read is compared
// as a multiset with the reference executor (and ORDER BY output must be
// sorted), and each DML's affected-row count must equal the reference
// executor's count of the rows its WHERE matched beforehand.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "db/database.h"
#include "harness/differ.h"
#include "harness/ref_executor.h"
#include "session/plan_cache.h"
#include "session/session.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "streams.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace systemr;

constexpr size_t kPoolPages = 4096;  // Every table fits (README).
constexpr int kWarmupRounds = 2;
// Measured rounds per second of --seconds: a fixed amount of work, about
// --seconds of timed work on the reference machine (README).
constexpr int kRoundsPerSecond = 20;

std::vector<TableLoad> AdhocTables(uint64_t seed) {
  std::vector<TableLoad> out;
  for (int d = 0; d < AdhocShape::kDims; ++d) {
    const std::string name = "DIM" + std::to_string(d + 1);
    out.push_back(
        {"CREATE TABLE " + name + " (ID INT, ATTR INT, GRP INT, NAME STRING)",
         name, InsertBatches(name, AdhocDimRows(seed, d)),
         {"CREATE UNIQUE INDEX " + name + "_ID ON " + name + " (ID)",
          "CREATE INDEX " + name + "_ATTR ON " + name + " (ATTR)"}});
  }
  TableLoad fact{"CREATE TABLE FACT (F_ID INT, D1 INT, D2 INT, D3 INT, "
                 "D4 INT, D5 INT, D6 INT, M1 INT, M2 INT)",
                 "FACT", InsertBatches("FACT", AdhocFactRows(seed)),
                 {"CREATE UNIQUE INDEX FACT_ID ON FACT (F_ID)"}};
  for (int d = 1; d <= AdhocShape::kDims; ++d) {
    const std::string fk = "D" + std::to_string(d);
    fact.index_sqls.push_back("CREATE INDEX FACT_" + fk + " ON FACT (" + fk +
                              ")");
  }
  out.push_back(std::move(fact));
  return out;
}

struct Tally {
  Timeline timeline;  // On the clock of timed work: checks are left out.
  uint64_t stmts = 0, reads = 0, writes = 0;
  double timed_s = 0;
  double read_cost = 0;
  double plans_generated = 0;
  uint64_t optimizations = 0;
  ExecTotals exec;
};

class AdhocRunner {
 public:
  AdhocRunner(Database* db, uint64_t seed, bool corrupt)
      : db_(db),
        stream_(seed),
        ref_(&db->rss().store(), RelPageMap(db)),
        session_(db, &cache_),
        corrupt_(corrupt) {}

  /// Runs `rounds` rounds; with a tracer the statements take the traced
  /// path.
  Tally Run(int rounds, Tracer* tracer) {
    Tally t;
    for (int r = 0; r < rounds; ++r) {
      double round_start = t.timed_s;
      for (const AdhocStmt& s : stream_.NextRound()) {
        if (tracer != nullptr) tracer->set_statement(++stmt_id_);
        if (s.is_read) {
          Read(s, tracer, &t);
        } else {
          Write(s, tracer, &t);
        }
        ++attempted_;
      }
      t.timeline.Add(t.timed_s, Timeline::Kind::kRound,
                     (t.timed_s - round_start) * 1e3);
    }
    return t;
  }

  Checker& checker() { return checker_; }
  PlanCache& cache() { return cache_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  /// Runs one read and adds its time to t->timed_s.
  void Read(const AdhocStmt& s, Tracer* tracer, Tally* t) {
    StatusOr<QueryResult> result = Status::OK();
    Clock::time_point t0 = Clock::now();
    if (tracer == nullptr) {
      result = session_.ExecuteQuery(s.sql);
    } else {
      result = TracedRead(s.sql, tracer, t);
    }
    double secs = Seconds(Clock::now() - t0);
    t->timed_s += secs;
    if (!result.ok()) {
      ++failed_;
      checker_.ExpectOk(result.status(), s.sql);
      return;
    }
    ++t->stmts;
    ++t->reads;
    t->timeline.Add(t->timed_s, Timeline::Kind::kRead, secs * 1e6);
    t->read_cost += result->actual_cost;
    if (tracer != nullptr) t->exec.Add(*result);

    StatusOr<std::vector<Row>> want = Reference(db_, &ref_, s.sql);
    checker_.ExpectOk(want.status(), "reference: " + s.sql);
    if (want.ok()) {
      if (corrupt_ && !corrupted_) {
        want->push_back(Row{Value::Int(-1)});
        corrupted_ = true;
      }
      checker_.Expect(SameRowMultiset(*want, result->rows),
                      "rows differ from the reference executor (" +
                          DiffSummary(*want, result->rows) + "): " + s.sql);
    }
    if (!s.order_keys.empty()) {
      checker_.Expect(RowsSorted(result->rows, s.order_keys),
                      "ORDER BY output not sorted: " + s.sql);
    }
  }

  /// Session::Prepare's cache-miss path and Database::Run, one public call
  /// per span: normalize + cache lookup (session), parse and bind (sql),
  /// optimize (optimizer), cache insert (session), run (exec).
  StatusOr<QueryResult> TracedRead(const std::string& sql, Tracer* tracer,
                                   Tally* t) {
    SpanScope root(tracer, "bench.stmt");
    std::shared_ptr<const OptimizedQuery> plan;
    {
      SpanScope prepare(tracer, "session.prepare");
      std::string key = NormalizeSql(sql);
      uint64_t version = db_->catalog().version();
      plan = cache_.Lookup(key, version);
      if (plan == nullptr) {
        StatusOr<Statement> stmt = Status::OK();
        {
          SpanScope span(tracer, "sql.parse");
          stmt = Parse(sql);
        }
        if (!stmt.ok()) return stmt.status();
        StatusOr<std::unique_ptr<BoundQueryBlock>> block = Status::OK();
        {
          SpanScope span(tracer, "sql.bind");
          Binder binder(&db_->catalog());
          block = binder.Bind(*stmt->select);
        }
        if (!block.ok()) return block.status();
        StatusOr<OptimizedQuery> query = Status::OK();
        {
          SpanScope span(tracer, "optimizer.optimize");
          Optimizer optimizer(&db_->catalog(), db_->options());
          query = optimizer.Optimize(std::move(*block));
        }
        if (!query.ok()) return query.status();
        query->num_params = stmt->num_params;
        t->plans_generated += static_cast<double>(query->solutions_generated);
        ++t->optimizations;
        plan = std::make_shared<const OptimizedQuery>(std::move(*query));
        cache_.Insert(key, version, plan);
      }
    }
    SpanScope span(tracer, "exec.execute");
    return db_->Run(*plan);
  }

  /// Runs one DML statement and adds its time to t->timed_s.
  void Write(const AdhocStmt& s, Tracer* tracer, Tally* t) {
    int64_t expect = 1;  // An INSERT adds exactly one row.
    if (!s.match_count_sql.empty()) {
      StatusOr<std::vector<Row>> n = Reference(db_, &ref_, s.match_count_sql);
      checker_.ExpectOk(n.status(), "reference: " + s.match_count_sql);
      expect = n.ok() && n->size() == 1 ? (*n)[0][0].AsInt() : -1;
    }
    StatusOr<size_t> affected = Status::OK();
    Clock::time_point t0 = Clock::now();
    if (tracer == nullptr) {
      affected = session_.Mutate(s.sql);
    } else {
      SpanScope root(tracer, "bench.stmt");
      SpanScope span(tracer, "db.mutate");
      affected = db_->Mutate(s.sql);
    }
    double secs = Seconds(Clock::now() - t0);
    t->timed_s += secs;
    ref_.set_rel_pages(RelPageMap(db_));
    if (!affected.ok()) {
      ++failed_;
      checker_.ExpectOk(affected.status(), s.sql);
      return;
    }
    ++t->stmts;
    ++t->writes;
    t->timeline.Add(t->timed_s, Timeline::Kind::kWrite, secs * 1e6);
    checker_.Expect(static_cast<int64_t>(*affected) == expect,
                    "affected " + std::to_string(*affected) + " rows, the "
                    "reference matched " + std::to_string(expect) + ": " +
                    s.sql);
  }

  Database* db_;
  AdhocStream stream_;
  RefExecutor ref_;
  PlanCache cache_{64};
  Session session_;
  bool corrupt_;
  bool corrupted_ = false;
  Checker checker_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t stmt_id_ = 0;
};

}  // namespace

int RunAdhoc(const Options& opt) {
  Report report;
  Checker setup_checker;
  std::unique_ptr<Database> db;
  {
    std::vector<TableLoad> tables = AdhocTables(opt.seed);
    std::vector<SetupTimes> times;
    for (int i = 0; i < kSetups; ++i) {
      db.reset();
      db = std::make_unique<Database>(kPoolPages);
      times.push_back(LoadTables(db.get(), tables, &setup_checker));
    }
    ReportSetup(times, &report);
  }
  PrintDataSize("adhoc", db.get());
  if (!setup_checker.ok()) return report.Finish("adhoc", {}, 1, 1, setup_checker);

  AdhocRunner runner(db.get(), opt.seed, opt.corrupt);
  runner.Run(kWarmupRounds, nullptr);
  // The traced run measures twice (untraced, then traced), each half as
  // long, so that with its checks it stays as long as an untraced run.
  const int rounds = opt.seconds * kRoundsPerSecond / (opt.trace ? 2 : 1);
  Tally a = runner.Run(rounds, nullptr);
  Summary reads = Summarize(a.timeline.Values(Timeline::Kind::kRead));
  Summary writes = Summarize(a.timeline.Values(Timeline::Kind::kWrite));
  Timeline::Figures fig = a.timeline.Measure(a.timed_s);
  std::printf("adhoc: %llu statements, %.2f s timed\n",
              static_cast<unsigned long long>(a.stmts), a.timed_s);
  std::printf("adhoc: read  %s\n", FormatSummary(reads, "us").c_str());
  std::printf("adhoc: write %s\n", FormatSummary(writes, "us").c_str());
  report.Set("throughput_qps", fig.qps);
  report.Set("throughput_total_qps", fig.total_qps);
  report.Set("read_p50_us", fig.read_p50_us);
  report.Set("read_p99_us", fig.read_p99_us);
  report.Set("write_p50_us", fig.write_p50_us);
  report.Set("report_ms", fig.round_ms);
  report.Set("cost_per_read", a.reads == 0 ? 0.0 : a.read_cost / a.reads);

  if (opt.trace) {
    Tracer tracer(0);
    PlanCacheStats c0 = runner.cache().stats();
    Lsn wal0 = db->rss().wal().size();
    uint64_t syncs0 = db->rss().wal().stats().syncs;
    Tally b = runner.Run(rounds, &tracer);
    PlanCacheStats c1 = runner.cache().stats();
    double wal_bytes = static_cast<double>(db->rss().wal().size() - wal0);
    double syncs = static_cast<double>(db->rss().wal().stats().syncs - syncs0);

    TraceTotals tt = FoldSpans({&tracer});
    ReportSelfTimes(tt, b.stmts, &report);
    if (!opt.trace_out.empty()) {
      runner.checker().Expect(WriteSpans({&tracer}, opt.trace_out),
                              "write " + opt.trace_out);
    }
    double hits = static_cast<double>(c1.hits - c0.hits);
    double lookups = hits + static_cast<double>(c1.misses - c0.misses);
    report.Set("sql.parse_us", MeanUs(tt, "sql.parse"));
    report.Set("sql.bind_us", MeanUs(tt, "sql.bind"));
    report.Set("optimizer.optimize_us", MeanUs(tt, "optimizer.optimize"));
    report.Set("optimizer.plans_generated",
               b.optimizations ? b.plans_generated / b.optimizations : 0);
    report.Set("session.prepare_us", MeanUs(tt, "session.prepare"));
    report.Set("session.plan_cache_hits", hits);
    report.Set("session.plan_cache_lookups", lookups);
    report.Set("session.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0);
    report.Set("exec.execute_us", MeanUs(tt, "exec.execute"));
    for (const char* shape : {"scan", "join", "hashjoin", "agg", "sort", "subq"}) {
      report.Set(std::string("exec.") + shape + "_ms", 0);
      report.Set(std::string("exec.") + shape + "_dop2_ms", 0);
    }
    b.exec.Report(&report);
    report.Set("rss.wal_bytes_per_write", b.writes ? wal_bytes / b.writes : 0);
    report.Set("rss.wal_syncs_per_commit", b.writes ? syncs / b.writes : 0);
    report.Set("db.mutate_us", MeanUs(tt, "db.mutate"));
    for (const char* net : {"net.round_trip_us", "net.wire_overhead_us",
                            "net.codec_us", "net.bytes_in_per_stmt",
                            "net.bytes_out_per_stmt", "net.admission_waits"}) {
      report.Set(net, 0);
    }
    // Whole-phase rates: both phases ran the same number of rounds.
    double untraced_qps = a.stmts / a.timed_s, traced_qps = b.stmts / b.timed_s;
    report.Set("trace.untraced_qps", untraced_qps);
    report.Set("trace.traced_qps", traced_qps);
    report.Set("trace.throughput_ratio", traced_qps / untraced_qps);
  }

  report.Set("peak_rss_mb", PeakRssMib());
  return report.Finish("adhoc", opt.trace ? PerLayerMetrics() : EndToEndMetrics(),
                       runner.attempted(), runner.failed(), runner.checker());
}

}  // namespace perfbench
