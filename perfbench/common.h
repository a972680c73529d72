// Shared pieces of the benchmark program: run options, the percentile rule,
// correctness-check bookkeeping, the metric tables and the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "rss/page.h"
#include "rss/segment.h"

namespace systemr {
class Database;
class RefExecutor;
struct QueryResult;
}

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Perturbs one expected value so the run must fail its checks (tests).
  bool corrupt = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

/// Set-ups per run; setup_s is their median and the last one is kept.
inline constexpr int kSetups = 9;

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// --- Percentile rule ---------------------------------------------------------
//
// A timing is reported as its median plus the highest tail percentile that
// has at least ten samples beyond it: p99 needs 1 000 samples, p90 100, p75
// 40. Below 40 samples only the median is reported.

struct Summary {
  size_t n = 0;
  double p50 = 0;
  int tail_permille = 0;  // 0 = no tail percentile is supported.
  double tail = 0;
};

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
double PercentileSorted(const std::vector<double>& sorted, int permille);
/// The tail percentile (in permille) `n` samples support, or 0.
int SupportedTailPermille(size_t n);
/// Median and supported tail of `samples` (empty => n = 0).
Summary Summarize(std::vector<double> samples);
/// "p50=12.3 p99=45.6 (n=1234)" for the human-readable report.
std::string FormatSummary(const Summary& s, const char* unit);

// --- Run figures -----------------------------------------------------------
//
// Latencies and round times are medians over the whole measured phase,
// plus the read p99 where the percentile rule supports one. Throughput is
// the median over kSliceSeconds slices of the phase's timeline: a host
// stall that holds a thread during a minority of the slices does not move
// it. The whole-phase rate, statements / phase time, does move with it.

inline constexpr double kSliceSeconds = 0.5;

class Timeline {
 public:
  enum class Kind : uint8_t { kRead, kWrite, kRound };

  /// An event that ended `t_s` seconds into the phase's timeline; `value` is
  /// a statement's latency (us) or a round's duration (ms).
  void Add(double t_s, Kind kind, double value) {
    events_.push_back(
        {static_cast<float>(t_s), static_cast<float>(value), kind});
  }
  void Merge(const Timeline& other);
  /// Every value of one kind, in no particular order (for the full tails).
  std::vector<double> Values(Kind kind) const;

  struct Figures {
    double qps = 0;  // Median over the slices of [0, end_s).
    double total_qps = 0;  // Statements in [0, end_s) / end_s.
    double read_p50_us = 0;
    double read_p99_us = 0;  // 0 below 1 000 reads (percentile rule).
    double write_p50_us = 0;
    double round_ms = 0;
    size_t slices = 0;
  };
  Figures Measure(double end_s) const;

 private:
  struct Event {  // 12 bytes: oltp keeps 300 000 of them.
    float t_s;
    float value;
    Kind kind;
  };
  std::vector<Event> events_;
};


// --- Correctness checks ------------------------------------------------------

/// Records failed checks (the first few verbatim on stderr). Any failure
/// makes the run print correct=false and exit with kExitCheckFailed.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  /// An engine call that should have succeeded.
  void ExpectOk(const systemr::Status& s, const std::string& what);
  bool ok() const { return failures_ == 0; }
  uint64_t failures() const { return failures_; }

 private:
  uint64_t failures_ = 0;
};

inline constexpr int kExitCheckFailed = 3;
inline constexpr int kExitError = 2;

// --- Metrics -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The untraced run prints exactly these (BENCHMARK.json "end_to_end").
const std::vector<MetricDef>& EndToEndMetrics();
/// The traced run prints exactly these (BENCHMARK.json "per_layer").
const std::vector<MetricDef>& PerLayerMetrics();

class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const;

  /// Prints the human-readable table and the final JSON line for the
  /// metric set `defs`; every metric of the set must have been Set. Returns
  /// the process exit code.
  int Finish(const std::string& workload, const std::vector<MetricDef>& defs,
             uint64_t attempted, uint64_t failed, const Checker& checker);

 private:
  std::map<std::string, double> values_;
};

// --- Set-up ------------------------------------------------------------------

struct TableLoad {
  std::string create_sql;
  std::string table;
  std::vector<std::string> inserts;  // Multi-row INSERT statements.
  std::vector<std::string> index_sqls;
};

struct SetupTimes {
  double total_s = 0;  // Create + load + index + UPDATE STATISTICS.
  double load_s = 0;
  double index_s = 0;
  double stats_s = 0;
};

/// Creates, loads, indexes and runs UPDATE STATISTICS on `tables`.
SetupTimes LoadTables(systemr::Database* db,
                      const std::vector<TableLoad>& tables, Checker* checker);

/// Prints each table's rows and pages, and its indexes' pages, against the
/// buffer pool's size.
void PrintDataSize(const char* workload, systemr::Database* db);

/// Sets setup_s and the per-layer set-up metrics to the medians of `runs`.
void ReportSetup(const std::vector<SetupTimes>& runs, Report* report);

/// Counters of the SELECTs a traced run executed in process, folded into
/// the exec.*, rss.* and optimizer.cost_qerror_p50 per-layer metrics.
class ExecTotals {
 public:
  void Add(const systemr::QueryResult& r);
  void Merge(const ExecTotals& other);
  void Report(perfbench::Report* report) const;
  double parallel_workers() const { return workers_; }
  double morsels() const { return morsels_; }

 private:
  uint64_t reads_ = 0;
  double rsi_ = 0, rows_out_ = 0, subq_evals_ = 0, subq_hits_ = 0;
  double hash_build_ = 0, hash_probe_ = 0, batch_in_ = 0, batch_out_ = 0;
  double workers_ = 0, morsels_ = 0, page_fetches_ = 0, buffer_gets_ = 0;
  double buffer_hits_ = 0;
  std::vector<double> qerror_;
};

/// The relation-to-pages map a RefExecutor reads; rebuild it after DML.
std::unordered_map<systemr::RelId, std::vector<systemr::PageId>> RelPageMap(
    systemr::Database* db);

/// The reference side of a check: binds the SELECT against `db`'s catalog
/// and runs it on the reference executor, which shares no access-path,
/// optimizer or executor code with the engine.
systemr::StatusOr<std::vector<systemr::Row>> Reference(
    systemr::Database* db, systemr::RefExecutor* ref, const std::string& sql);

/// Peak resident set of this process, MiB.
double PeakRssMib();

/// The seed-derived stream for one purpose (data, client i, ...): distinct
/// purposes never share a random sequence.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// Median of a non-empty vector.
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
