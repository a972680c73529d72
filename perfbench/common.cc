#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "db/database.h"
#include "harness/ref_executor.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

double PercentileSorted(const std::vector<double>& sorted, int permille) {
  // Nearest rank: the smallest sample with at least permille/1000 of the
  // sample at or below it.
  size_t n = sorted.size();
  size_t rank = (static_cast<size_t>(permille) * n + 999) / 1000;
  return sorted[std::max<size_t>(rank, 1) - 1];
}

int SupportedTailPermille(size_t n) {
  // Highest percentile with >= 10 samples beyond it: n * (1 - p) >= 10.
  for (int permille : {999, 990, 900, 750}) {
    if (n * static_cast<size_t>(1000 - permille) >= 10000) return permille;
  }
  return 0;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileSorted(samples, 500);
  s.tail_permille = SupportedTailPermille(s.n);
  if (s.tail_permille > 0) s.tail = PercentileSorted(samples, s.tail_permille);
  return s;
}

std::string FormatSummary(const Summary& s, const char* unit) {
  char buf[160];
  if (s.n == 0) return "(no samples)";
  int len = std::snprintf(buf, sizeof(buf), "p50=%.1f%s", s.p50, unit);
  if (s.tail_permille > 0) {
    len += std::snprintf(buf + len, sizeof(buf) - len, " p%g=%.1f%s",
                         s.tail_permille / 10.0, s.tail, unit);
  }
  std::snprintf(buf + len, sizeof(buf) - len, " (n=%zu)", s.n);
  return buf;
}

void Timeline::Merge(const Timeline& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

std::vector<double> Timeline::Values(Kind kind) const {
  std::vector<double> out;
  for (const Event& e : events_) {
    if (e.kind == kind) out.push_back(e.value);
  }
  return out;
}

Timeline::Figures Timeline::Measure(double end_s) const {
  Figures f;
  f.slices = std::max<size_t>(1, static_cast<size_t>(end_s / kSliceSeconds));
  double slice_s = end_s / static_cast<double>(f.slices);
  std::vector<double> stmts(f.slices, 0);
  std::vector<double> reads, writes, rounds;
  for (const Event& e : events_) {
    if (e.kind != Kind::kRound && e.t_s < end_s) {
      ++stmts[std::min(f.slices - 1, static_cast<size_t>(e.t_s / slice_s))];
    }
    (e.kind == Kind::kRead    ? reads
     : e.kind == Kind::kWrite ? writes
                              : rounds)
        .push_back(e.value);
  }
  f.qps = Median(stmts) / slice_s;
  double total = 0;
  for (double n : stmts) total += n;
  f.total_qps = total / end_s;
  if (!reads.empty()) {
    std::sort(reads.begin(), reads.end());
    f.read_p50_us = PercentileSorted(reads, 500);
    if (SupportedTailPermille(reads.size()) >= 990) {
      f.read_p99_us = PercentileSorted(reads, 990);
    }
  }
  if (!writes.empty()) f.write_p50_us = Median(writes);
  if (!rounds.empty()) f.round_ms = Median(rounds);
  return f;
}

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

void Checker::ExpectOk(const systemr::Status& s, const std::string& what) {
  Expect(s.ok(), what + ": " + s.ToString());
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"throughput_qps", "1/s"},
      {"throughput_total_qps", "1/s"},
      {"read_p50_us", "us"},
      {"read_p99_us", "us"},
      {"write_p50_us", "us"},
      {"report_ms", "ms"},
      {"cost_per_read", "count"},
      {"peak_rss_mb", "MiB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"sql.parse_us", "us"},
      {"sql.bind_us", "us"},
      {"sql.self_us", "us"},
      {"optimizer.optimize_us", "us"},
      {"optimizer.plans_generated", "count"},
      {"optimizer.cost_qerror_p50", "ratio"},
      {"optimizer.self_us", "us"},
      {"session.prepare_us", "us"},
      {"session.plan_cache_hits", "count"},
      {"session.plan_cache_lookups", "count"},
      {"session.plan_cache_hit_ratio", "ratio"},
      {"session.self_us", "us"},
      {"exec.execute_us", "us"},
      {"exec.rsi_calls_per_read", "count"},
      {"exec.rows_out_per_read", "count"},
      {"exec.subquery_evals_per_read", "count"},
      {"exec.subquery_cache_hit_ratio", "ratio"},
      {"exec.hash_build_rows_per_read", "count"},
      {"exec.hash_probe_rows_per_read", "count"},
      {"exec.batch_density", "ratio"},
      {"exec.parallel_workers_per_read", "count"},
      {"exec.morsels_per_read", "count"},
      {"exec.scan_ms", "ms"},
      {"exec.join_ms", "ms"},
      {"exec.hashjoin_ms", "ms"},
      {"exec.agg_ms", "ms"},
      {"exec.sort_ms", "ms"},
      {"exec.subq_ms", "ms"},
      {"exec.scan_dop2_ms", "ms"},
      {"exec.join_dop2_ms", "ms"},
      {"exec.hashjoin_dop2_ms", "ms"},
      {"exec.agg_dop2_ms", "ms"},
      {"exec.sort_dop2_ms", "ms"},
      {"exec.subq_dop2_ms", "ms"},
      {"exec.self_us", "us"},
      {"rss.page_fetches_per_read", "count"},
      {"rss.buffer_gets_per_read", "count"},
      {"rss.buffer_hit_ratio", "ratio"},
      {"rss.wal_bytes_per_write", "B"},
      {"rss.wal_syncs_per_commit", "count"},
      {"rss.index_build_s", "s"},
      {"catalog.update_statistics_s", "s"},
      {"db.load_s", "s"},
      {"db.mutate_us", "us"},
      {"db.self_us", "us"},
      {"net.round_trip_us", "us"},
      {"net.wire_overhead_us", "us"},
      {"net.codec_us", "us"},
      {"net.bytes_in_per_stmt", "B"},
      {"net.bytes_out_per_stmt", "B"},
      {"net.admission_waits", "count"},
      {"net.self_us", "us"},
      {"bench.self_us", "us"},
      {"trace.spans", "count"},
      {"trace.untraced_qps", "1/s"},
      {"trace.traced_qps", "1/s"},
      {"trace.throughput_ratio", "ratio"},
  };
  return kDefs;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

int Report::Finish(const std::string& workload,
                   const std::vector<MetricDef>& defs, uint64_t attempted,
                   uint64_t failed, const Checker& checker) {
  bool complete = true;
  for (const MetricDef& d : defs) {
    if (!Has(d.name)) {
      std::fprintf(stderr, "internal: metric %s was not measured\n", d.name);
      complete = false;
    }
  }
  if (!complete) return kExitError;
  for (const MetricDef& d : defs) {
    std::printf("%-10s %-32s %16.4f %s\n", workload.c_str(), d.name,
                Get(d.name), d.unit);
  }
  bool correct = checker.ok() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, Get(defs[i].name),
                defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : kExitCheckFailed;
}

SetupTimes LoadTables(systemr::Database* db,
                      const std::vector<TableLoad>& tables, Checker* checker) {
  SetupTimes t;
  Clock::time_point t0 = Clock::now();
  for (const TableLoad& tl : tables) {
    checker->ExpectOk(db->Execute(tl.create_sql), tl.create_sql);
    Clock::time_point l0 = Clock::now();
    for (const std::string& sql : tl.inserts) {
      checker->ExpectOk(db->Execute(sql), "load " + tl.table);
    }
    Clock::time_point i0 = Clock::now();
    for (const std::string& sql : tl.index_sqls) {
      checker->ExpectOk(db->Execute(sql), sql);
    }
    Clock::time_point s0 = Clock::now();
    checker->ExpectOk(db->Execute("UPDATE STATISTICS " + tl.table),
                      "UPDATE STATISTICS " + tl.table);
    Clock::time_point s1 = Clock::now();
    t.load_s += Seconds(i0 - l0);
    t.index_s += Seconds(s0 - i0);
    t.stats_s += Seconds(s1 - s0);
  }
  t.total_s = Seconds(Clock::now() - t0);
  return t;
}

void PrintDataSize(const char* workload, systemr::Database* db) {
  const systemr::Catalog& catalog = db->catalog();
  uint64_t total = 0;
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const systemr::TableInfo* t = catalog.table(static_cast<systemr::RelId>(i));
    uint64_t index_pages = 0;
    for (systemr::IndexId id : t->indexes) index_pages += catalog.index(id)->nindx;
    std::printf("%s: table %-10s %7llu rows %5llu pages, indexes %5llu pages\n",
                workload, t->name.c_str(),
                static_cast<unsigned long long>(t->ncard),
                static_cast<unsigned long long>(t->tcard),
                static_cast<unsigned long long>(index_pages));
    total += t->tcard + index_pages;
  }
  std::printf("%s: %llu data pages against a buffer pool of %zu pages\n",
              workload, static_cast<unsigned long long>(total),
              db->rss().pool().capacity());
}

void ReportSetup(const std::vector<SetupTimes>& runs, Report* report) {
  std::vector<double> total, load, index, stats;
  for (const SetupTimes& t : runs) {
    total.push_back(t.total_s);
    load.push_back(t.load_s);
    index.push_back(t.index_s);
    stats.push_back(t.stats_s);
  }
  report->Set("setup_s", Median(total));
  report->Set("db.load_s", Median(load));
  report->Set("rss.index_build_s", Median(index));
  report->Set("catalog.update_statistics_s", Median(stats));
}

namespace {

double CostQError(double est, double actual) {
  est = std::max(est, 1e-3);
  actual = std::max(actual, 1e-3);
  return std::max(est / actual, actual / est);
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

}  // namespace

void ExecTotals::Add(const systemr::QueryResult& r) {
  const systemr::ExecStats& s = r.stats;
  ++reads_;
  rsi_ += s.rsi_calls;
  rows_out_ += r.rows.size();
  subq_evals_ += s.subquery_evals;
  subq_hits_ += s.subquery_cache_hits;
  hash_build_ += s.hash_build_rows;
  hash_probe_ += s.hash_probe_rows;
  batch_in_ += s.batch_rows_in;
  batch_out_ += s.batch_rows_out;
  workers_ += s.parallel_workers;
  morsels_ += s.parallel_morsels;
  page_fetches_ += s.page_fetches;
  buffer_gets_ += s.buffer_gets;
  buffer_hits_ += s.buffer_hits;
  qerror_.push_back(CostQError(r.est_cost, r.actual_cost));
}

void ExecTotals::Merge(const ExecTotals& o) {
  reads_ += o.reads_;
  rsi_ += o.rsi_;
  rows_out_ += o.rows_out_;
  subq_evals_ += o.subq_evals_;
  subq_hits_ += o.subq_hits_;
  hash_build_ += o.hash_build_;
  hash_probe_ += o.hash_probe_;
  batch_in_ += o.batch_in_;
  batch_out_ += o.batch_out_;
  workers_ += o.workers_;
  morsels_ += o.morsels_;
  page_fetches_ += o.page_fetches_;
  buffer_gets_ += o.buffer_gets_;
  buffer_hits_ += o.buffer_hits_;
  qerror_.insert(qerror_.end(), o.qerror_.begin(), o.qerror_.end());
}

void ExecTotals::Report(perfbench::Report* report) const {
  double n = static_cast<double>(reads_);
  report->Set("exec.rsi_calls_per_read", Ratio(rsi_, n));
  report->Set("exec.rows_out_per_read", Ratio(rows_out_, n));
  report->Set("exec.subquery_evals_per_read", Ratio(subq_evals_, n));
  report->Set("exec.subquery_cache_hit_ratio",
              Ratio(subq_hits_, subq_evals_ + subq_hits_));
  report->Set("exec.hash_build_rows_per_read", Ratio(hash_build_, n));
  report->Set("exec.hash_probe_rows_per_read", Ratio(hash_probe_, n));
  report->Set("exec.batch_density", Ratio(batch_out_, batch_in_));
  report->Set("exec.parallel_workers_per_read", Ratio(workers_, n));
  report->Set("exec.morsels_per_read", Ratio(morsels_, n));
  report->Set("rss.page_fetches_per_read", Ratio(page_fetches_, n));
  report->Set("rss.buffer_gets_per_read", Ratio(buffer_gets_, n));
  report->Set("rss.buffer_hit_ratio", Ratio(buffer_hits_, buffer_gets_));
  report->Set("optimizer.cost_qerror_p50",
              qerror_.empty() ? 0.0 : Median(qerror_));
}

std::unordered_map<systemr::RelId, std::vector<systemr::PageId>> RelPageMap(
    systemr::Database* db) {
  std::unordered_map<systemr::RelId, std::vector<systemr::PageId>> map;
  const systemr::Catalog& catalog = db->catalog();
  for (size_t i = 0; i < catalog.num_tables(); ++i) {
    const systemr::TableInfo* t = catalog.table(static_cast<systemr::RelId>(i));
    map[t->id] = db->rss().segment(t->segment)->pages();
  }
  return map;
}

systemr::StatusOr<std::vector<systemr::Row>> Reference(
    systemr::Database* db, systemr::RefExecutor* ref, const std::string& sql) {
  ASSIGN_OR_RETURN(systemr::Statement stmt, systemr::Parse(sql));
  if (stmt.kind != systemr::Statement::Kind::kSelect) {
    return systemr::Status::InvalidArgument("reference needs a SELECT");
  }
  systemr::Binder binder(&db->catalog());
  ASSIGN_OR_RETURN(std::unique_ptr<systemr::BoundQueryBlock> block,
                   binder.Bind(*stmt.select));
  return ref->Execute(*block);
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  // splitmix64 finalizer over (seed, purpose).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (purpose + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileSorted(v, 500);
}

}  // namespace perfbench

