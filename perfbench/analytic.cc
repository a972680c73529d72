// analytic: one in-process Session repeats a fixed, read-only report of six
// prepared queries over tables several times larger than the buffer pool.
// The measured passes run serially; the traced run repeats the report at
// PARALLEL 2. The first pass is checked against the reference
// executor; every pass must return the same row counts, and the agg query's
// group counts must sum to the table's cardinality.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "harness/differ.h"
#include "harness/ref_executor.h"
#include "session/plan_cache.h"
#include "session/session.h"
#include "streams.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace systemr;

constexpr size_t kPoolPages = 64;  // ORDERS alone is ~4x this (README).
// The measured report runs serially: at PARALLEL 2 its timings spread
// several times wider from run to run on a shared host (README). The traced
// run repeats the report at kParallelDop for the exchange's figures.
constexpr int kParallelDop = 2;
constexpr int kParallelPasses = 10;
constexpr int kWarmupPasses = 2;
// Measured passes per second of --seconds: a fixed amount of work, about
// --seconds of timed work on the reference machine (README).
constexpr int kPassesPerSecond = 10;

std::vector<TableLoad> AnalyticTables(uint64_t seed) {
  return {
      {"CREATE TABLE ORDERS (O_ID INT, CUST INT, ITEM INT, QTY INT, "
       "PRICE INT, STATUS INT, NOTE STRING)",
       "ORDERS", InsertBatches("ORDERS", AnalyticOrderRows(seed)),
       {"CREATE UNIQUE INDEX ORDERS_ID ON ORDERS (O_ID)",
        "CREATE INDEX ORDERS_CUST ON ORDERS (CUST)"}},
      {"CREATE TABLE CUSTOMER (C_ID INT, REGION INT, SEGMENT INT, "
       "CREDIT INT, NAME STRING)",
       "CUSTOMER", InsertBatches("CUSTOMER", AnalyticCustomerRows(seed)),
       {"CREATE UNIQUE INDEX CUSTOMER_ID ON CUSTOMER (C_ID)"}},
      {"CREATE TABLE ITEM (I_ID INT, CATEGORY INT, PRICE INT, NAME STRING)",
       "ITEM", InsertBatches("ITEM", AnalyticItemRows(seed)),
       {"CREATE UNIQUE INDEX ITEM_ID ON ITEM (I_ID)"}},
  };
}

struct Tally {
  Timeline timeline;  // On the clock of timed work; a pass is a round.
  std::vector<std::vector<double>> shape_ms;  // Per report query.
  uint64_t stmts = 0, reads = 0;
  double timed_s = 0;
  double read_cost = 0;
  ExecTotals exec;
};

class AnalyticRunner {
 public:
  AnalyticRunner(Database* db, int dop, bool corrupt)
      : db_(db), session_(db, &cache_) {
    session_.set_max_dop(dop);
    for (const ReportQuery& q : AnalyticReport()) {
      StatusOr<PreparedStatement> ps = session_.Prepare(q.sql);
      checker_.ExpectOk(ps.status(), q.sql);
      if (ps.ok()) prepared_.push_back(std::move(*ps));
    }
    expected_orders_ = AnalyticShape::kOrders + (corrupt ? 1 : 0);
  }

  bool ready() const { return prepared_.size() == AnalyticReport().size(); }

  /// The reference executor's answer for every report query, against the
  /// engine's answer from one pass.
  void CheckAgainstReference() {
    RefExecutor ref(&db_->rss().store(), RelPageMap(db_));
    const std::vector<ReportQuery>& report = AnalyticReport();
    for (size_t i = 0; i < report.size(); ++i) {
      StatusOr<QueryResult> got = prepared_[i].Execute();
      ++attempted_;
      if (!got.ok()) {
        ++failed_;
        checker_.ExpectOk(got.status(), report[i].sql);
        continue;
      }
      StatusOr<std::vector<Row>> want = Reference(db_, &ref, report[i].sql);
      checker_.ExpectOk(want.status(), "reference: " + report[i].sql);
      if (want.ok()) {
        checker_.Expect(SameRowMultiset(*want, got->rows),
                        "rows differ from the reference executor (" +
                            DiffSummary(*want, got->rows) + "): " +
                            report[i].sql);
      }
      if (!report[i].order_keys.empty()) {
        checker_.Expect(RowsSorted(got->rows, report[i].order_keys),
                        "ORDER BY output not sorted: " + report[i].sql);
      }
      row_counts_.push_back(got->rows.size());
      subq_rsi_calls_ = std::string(report[i].shape) == "subq"
                            ? got->stats.rsi_calls
                            : subq_rsi_calls_;
    }
  }

  /// Runs `passes` passes; with a tracer the statements run through
  /// Database::Run.
  Tally Run(int passes, Tracer* tracer) {
    Tally t;
    t.shape_ms.resize(prepared_.size());
    for (int p = 0; p < passes; ++p) {
      double pass_start = t.timed_s;
      for (size_t i = 0; i < prepared_.size(); ++i) {
        if (tracer != nullptr) tracer->set_statement(++stmt_id_);
        Read(i, tracer, &t);
      }
      t.timeline.Add(t.timed_s, Timeline::Kind::kRound,
                     (t.timed_s - pass_start) * 1e3);
    }
    return t;
  }

  Checker& checker() { return checker_; }
  PlanCache& cache() { return cache_; }
  uint64_t attempted() const { return attempted_; }
  void add_attempted(uint64_t n) { attempted_ += n; }
  uint64_t failed() const { return failed_; }
  uint64_t subq_rsi_calls() const { return subq_rsi_calls_; }

 private:
  /// Runs one report query, timed, tallies it and checks its rows.
  void Read(size_t i, Tracer* tracer, Tally* t) {
    const ReportQuery& q = AnalyticReport()[i];
    StatusOr<QueryResult> result = Status::OK();
    Clock::time_point t0 = Clock::now();
    if (tracer == nullptr) {
      result = prepared_[i].Execute();
    } else {
      SpanScope root(tracer, "bench.stmt");
      SpanScope span(tracer, "exec.execute");
      result = db_->Run(prepared_[i].plan());
    }
    double secs = Seconds(Clock::now() - t0);
    t->timed_s += secs;
    ++attempted_;
    if (!result.ok()) {
      ++failed_;
      checker_.ExpectOk(result.status(), q.sql);
      return;
    }
    ++t->stmts;
    ++t->reads;
    t->timeline.Add(t->timed_s, Timeline::Kind::kRead, secs * 1e6);
    t->read_cost += result->actual_cost;
    t->exec.Add(*result);
    t->shape_ms[i].push_back(secs * 1e3);

    size_t rows = result->rows.size();
    checker_.Expect(i < row_counts_.size() && rows == row_counts_[i],
                    std::string(q.shape) + " returned " +
                        std::to_string(rows) +
                        " rows, not the first pass's count");
    if (std::string(q.shape) == "agg") {
      int64_t total = 0;
      for (const Row& r : result->rows) total += r[1].AsInt();
      checker_.Expect(total == expected_orders_,
                      "agg group counts sum to " + std::to_string(total) +
                          ", not ORDERS' cardinality");
    }
  }

 private:
  Database* db_;
  PlanCache cache_{64};
  Session session_;
  std::vector<PreparedStatement> prepared_;
  std::vector<size_t> row_counts_;  // From the reference-checked pass.
  int64_t expected_orders_ = 0;
  uint64_t subq_rsi_calls_ = 0;
  Checker checker_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t stmt_id_ = 0;
};

}  // namespace

int RunAnalytic(const Options& opt) {
  Report report;
  Checker setup_checker;
  std::unique_ptr<Database> db;
  {
    std::vector<TableLoad> tables = AnalyticTables(opt.seed);
    std::vector<SetupTimes> times;
    for (int i = 0; i < kSetups; ++i) {
      db.reset();
      db = std::make_unique<Database>(kPoolPages);
      times.push_back(LoadTables(db.get(), tables, &setup_checker));
    }
    ReportSetup(times, &report);
  }
  PrintDataSize("analytic", db.get());
  if (!setup_checker.ok()) {
    return report.Finish("analytic", {}, 1, 1, setup_checker);
  }

  AnalyticRunner runner(db.get(), 1, opt.corrupt);
  if (!runner.ready()) {
    return report.Finish("analytic", {}, 1, 1, runner.checker());
  }
  runner.CheckAgainstReference();
  runner.Run(kWarmupPasses, nullptr);
  const int passes = opt.seconds * kPassesPerSecond;
  PlanCacheStats c0 = runner.cache().stats();
  Tally a = runner.Run(passes, nullptr);
  PlanCacheStats c1 = runner.cache().stats();
  Summary reads = Summarize(a.timeline.Values(Timeline::Kind::kRead));
  Timeline::Figures fig = a.timeline.Measure(a.timed_s);
  std::printf("analytic: %zu passes, %.2f s timed, serial\n",
              static_cast<size_t>(passes), a.timed_s);
  for (size_t i = 0; i < AnalyticReport().size(); ++i) {
    std::printf("analytic: %-8s %s\n", AnalyticReport()[i].shape,
                FormatSummary(Summarize(a.shape_ms[i]), "ms").c_str());
  }
  std::printf("analytic: subq RSI calls per execution: %llu\n",
              static_cast<unsigned long long>(runner.subq_rsi_calls()));
  std::printf("analytic: read  %s\n", FormatSummary(reads, "us").c_str());
  report.Set("throughput_qps", fig.qps);
  report.Set("throughput_total_qps", fig.total_qps);
  report.Set("read_p50_us", fig.read_p50_us);
  report.Set("read_p99_us", fig.read_p99_us);
  report.Set("write_p50_us", 0);  // The report is read-only.
  report.Set("report_ms", fig.round_ms);
  report.Set("cost_per_read", a.reads == 0 ? 0.0 : a.read_cost / a.reads);

  if (opt.trace) {
    Tracer tracer(0);
    Tally b = runner.Run(passes, &tracer);
    // One fresh session, so each Prepare misses the cache and compiles.
    PlanCache fresh(64);
    Session compiler(db.get(), &fresh);
    for (const ReportQuery& q : AnalyticReport()) {
      SpanScope span(&tracer, "session.prepare");
      runner.checker().ExpectOk(compiler.Prepare(q.sql).status(), q.sql);
    }

    TraceTotals tt = FoldSpans({&tracer});
    ReportSelfTimes(tt, b.stmts, &report);
    if (!opt.trace_out.empty()) {
      runner.checker().Expect(WriteSpans({&tracer}, opt.trace_out),
                              "write " + opt.trace_out);
    }
    double hits = static_cast<double>(c1.hits - c0.hits);
    double lookups = hits + static_cast<double>(c1.misses - c0.misses);
    report.Set("sql.parse_us", 0);
    report.Set("sql.bind_us", 0);
    report.Set("optimizer.optimize_us", 0);
    report.Set("optimizer.plans_generated", 0);
    report.Set("session.prepare_us", MeanUs(tt, "session.prepare"));
    report.Set("session.plan_cache_hits", hits);
    report.Set("session.plan_cache_lookups", lookups);
    report.Set("session.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0);
    report.Set("exec.execute_us", MeanUs(tt, "exec.execute"));
    for (size_t i = 0; i < AnalyticReport().size(); ++i) {
      report.Set(std::string("exec.") + AnalyticReport()[i].shape + "_ms",
                 Median(b.shape_ms[i]));
    }
    b.exec.Report(&report);
    for (const char* unused :
         {"rss.wal_bytes_per_write", "rss.wal_syncs_per_commit", "db.mutate_us"}) {
      report.Set(unused, 0);
    }
    for (const char* net : {"net.round_trip_us", "net.wire_overhead_us",
                            "net.codec_us", "net.bytes_in_per_stmt",
                            "net.bytes_out_per_stmt", "net.admission_waits"}) {
      report.Set(net, 0);
    }
    // The same report at PARALLEL 2: its results are checked against the
    // reference executor too, and it supplies the exchange's counters.
    AnalyticRunner par(db.get(), kParallelDop, false);
    Tally p;
    if (par.ready()) {
      par.CheckAgainstReference();
      par.Run(1, nullptr);
      p = par.Run(kParallelPasses, nullptr);
    }
    runner.checker().Expect(par.ready() && par.checker().ok() && par.failed() == 0,
                            "the PARALLEL 2 report failed its checks");
    runner.add_attempted(par.attempted());
    for (size_t i = 0; i < AnalyticReport().size(); ++i) {
      report.Set(std::string("exec.") + AnalyticReport()[i].shape + "_dop2_ms",
                 p.shape_ms.empty() || p.shape_ms[i].empty() ? 0.0
                                                             : Median(p.shape_ms[i]));
    }
    report.Set("exec.parallel_workers_per_read",
               p.reads ? p.exec.parallel_workers() / p.reads : 0);
    report.Set("exec.morsels_per_read",
               p.reads ? p.exec.morsels() / p.reads : 0);
    // Whole-phase rates: both phases ran the same number of passes.
    double untraced_qps = a.stmts / a.timed_s, traced_qps = b.stmts / b.timed_s;
    report.Set("trace.untraced_qps", untraced_qps);
    report.Set("trace.traced_qps", traced_qps);
    report.Set("trace.throughput_ratio", traced_qps / untraced_qps);
  }

  report.Set("peak_rss_mb", PeakRssMib());
  return report.Finish("analytic",
                       opt.trace ? PerLayerMetrics() : EndToEndMetrics(),
                       runner.attempted(), runner.failed(), runner.checker());
}

}  // namespace perfbench
