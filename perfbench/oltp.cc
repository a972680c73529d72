// oltp: two closed-loop clients reach an in-process net::Server over
// loopback. Reads are parameterized statements, so every execution looks
// its plan up in the server's shared plan cache and hits; writes are
// auto-commit UPDATEs and INSERTs on the client's own table. Each client
// keeps its own model of that table and checks every reply against it.
#include <sched.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "session/plan_cache.h"
#include "session/session.h"
#include "sql/parser.h"
#include "streams.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace systemr;

constexpr size_t kPoolPages = 4096;  // Every table fits (README).
constexpr int kWarmupRounds = 25;
// Rounds per client per second of --seconds: the run does a fixed amount of
// work, about --seconds long on the reference machine (README), so a seed
// always yields exactly the same statements and WAL growth.
constexpr int kRoundsPerSecond = 900;
constexpr int kClients = OltpShape::kClients;
constexpr int kCpus = 2;  // The whole process runs on two CPUs (PinToCpus).

std::string SharedTable(int t) { return "S" + std::to_string(t + 1); }
std::string OwnTable(int c) { return "C" + std::to_string(c + 1); }

std::vector<TableLoad> OltpTables() {
  std::vector<TableLoad> out;
  for (int t = 0; t < OltpShape::kSharedTables; ++t) {
    std::vector<std::string> rows;
    for (int64_t k = 0; k < OltpShape::kSharedRows; ++k) {
      rows.push_back("(" + std::to_string(k) + ", " +
                     std::to_string(SharedPayload(t, k)) +
                     ", 'shared-row-payload')");
    }
    const std::string name = SharedTable(t);
    out.push_back({"CREATE TABLE " + name + " (K INT, A INT, PAD STRING)",
                   name, InsertBatches(name, rows),
                   {"CREATE UNIQUE INDEX " + name + "_K ON " + name + " (K)"}});
  }
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::string> rows;
    for (int64_t k = 0; k < OltpShape::kOwnRows; ++k) {
      rows.push_back("(" + std::to_string(k) + ", " +
                     std::to_string(OwnPayload(c, k)) + ")");
    }
    const std::string name = OwnTable(c);
    out.push_back({"CREATE TABLE " + name + " (K INT, V INT)", name,
                   InsertBatches(name, rows),
                   {"CREATE UNIQUE INDEX " + name + "_K ON " + name + " (K)"}});
  }
  return out;
}

/// One statement of the stream, rendered for the engine.
struct Rendered {
  std::string sql;
  std::vector<Value> params;
  bool is_read = true;
};

/// What a client knows about its own table, kept apart from the engine.
struct ClientState {
  int id = 0;
  std::vector<int64_t> payload;  // By key; keys stay dense 0..n-1.
  uint64_t next_round = 0;
  Checker checker;
  uint64_t attempted = 0;  // Every statement sent, warm-ups included.
  uint64_t failed = 0;
};

Rendered Render(const ClientState& cs, const OltpOp& op) {
  Rendered r;
  const std::string own = OwnTable(cs.id);
  switch (op.kind) {
    case OltpKind::kPointShared:
      r.sql = "SELECT A FROM " + SharedTable(op.table) + " WHERE K = ?";
      r.params = {Value::Int(op.lo)};
      break;
    case OltpKind::kPointOwn:
      r.sql = "SELECT V FROM " + own + " WHERE K = ?";
      r.params = {Value::Int(op.lo)};
      break;
    case OltpKind::kRangeShared:
    case OltpKind::kRangeOwn:
      r.sql = "SELECT COUNT(*) FROM " +
              (op.kind == OltpKind::kRangeOwn ? own : SharedTable(op.table)) +
              " WHERE K >= ? AND K <= ?";
      r.params = {Value::Int(op.lo), Value::Int(op.hi)};
      break;
    case OltpKind::kUpdateOwn:
      r.is_read = false;
      r.sql = "UPDATE " + own + " SET V = V + " + std::to_string(op.value) +
              " WHERE K = " + std::to_string(op.lo);
      break;
    case OltpKind::kInsertOwn:
      r.is_read = false;
      r.sql = "INSERT INTO " + own + " VALUES (" +
              std::to_string(cs.payload.size()) + ", " +
              std::to_string(op.value) + ")";
      break;
  }
  return r;
}

/// Checks one outcome against the client's model and advances the model.
void CheckOutcome(ClientState* cs, const OltpOp& op,
                  const std::vector<Row>& rows, uint64_t affected) {
  Checker& ck = cs->checker;
  auto single_int = [&](const char* what) -> int64_t {
    bool ok = rows.size() == 1 && rows[0].size() == 1 &&
              rows[0][0].type() == ValueType::kInt64;
    ck.Expect(ok, std::string(what) + " did not return exactly one integer");
    return ok ? rows[0][0].AsInt() : -1;
  };
  switch (op.kind) {
    case OltpKind::kPointShared:
      ck.Expect(single_int("shared point lookup") ==
                    SharedPayload(op.table, op.lo),
                "shared point lookup payload of key " + std::to_string(op.lo));
      break;
    case OltpKind::kPointOwn:
      ck.Expect(single_int("own point lookup") == cs->payload[op.lo],
                "own point lookup payload of key " + std::to_string(op.lo));
      break;
    case OltpKind::kRangeShared:
    case OltpKind::kRangeOwn:
      ck.Expect(single_int("range count") == op.hi - op.lo + 1,
                "dense-key range count [" + std::to_string(op.lo) + ", " +
                    std::to_string(op.hi) + "]");
      break;
    case OltpKind::kUpdateOwn:
      ck.Expect(affected == 1, "UPDATE of one key affected " +
                                   std::to_string(affected) + " rows");
      cs->payload[op.lo] += op.value;
      break;
    case OltpKind::kInsertOwn:
      ck.Expect(affected == 1, "INSERT affected " + std::to_string(affected));
      cs->payload.push_back(op.value);
      break;
  }
}

/// One client's tallies for one phase.
struct PhaseTally {
  Timeline timeline;  // Seconds since the phase's common start.
  uint64_t stmts = 0, reads = 0, writes = 0;
  double read_cost = 0;  // Metered COST of the reads, summed.
  Clock::time_point end;
  ExecTotals exec;                       // In-process phase only.
  std::vector<net::WireResult> replies;  // Traced wire phase: for the codec.
};

enum class Path { kWire, kInProcess };

struct Phase {
  Path path = Path::kWire;
  int rounds = 1;
  int warmup_rounds = 0;
  bool traced = false;
};

constexpr size_t kKeptReplies = 20000;

/// One closed-loop client: the next statement goes out only after the
/// previous reply is in. Warm-up rounds first, then the measured rounds.
template <typename Barrier>
void RunClient(const Phase& ph, uint64_t seed, ClientState* cs,
               net::Client* wire, Database* db, PlanCache* cache,
               Tracer* tracer, Barrier* sync, const Clock::time_point* start,
               PhaseTally* tally) {
  std::unique_ptr<Session> session;
  if (ph.path == Path::kInProcess) session = std::make_unique<Session>(db, cache);
  uint64_t stmt_id = static_cast<uint64_t>(cs->id) << 40;
  bool transport_ok = true;

  auto run_one = [&](const OltpOp& op, bool record) {
    Rendered r = Render(*cs, op);
    ++cs->attempted;
    if (tracer != nullptr) tracer->set_statement(++stmt_id);
    std::vector<Row> rows;
    uint64_t affected = 0;
    Status error = Status::OK();
    Clock::time_point t0 = Clock::now();
    if (ph.path == Path::kWire) {
      StatusOr<net::WireResult> reply = Status::OK();
      {
        SpanScope span(tracer, "net.round_trip");
        reply = wire->Query(r.sql, r.params);
      }
      if (!reply.ok()) {
        transport_ok = false;
        error = reply.status();
      } else if (!reply->ok()) {
        error = reply->ToStatus();
      } else {
        affected = reply->affected;
        if (r.is_read && record) tally->read_cost += reply->actual_cost;
        if (r.is_read && ph.traced && tally->replies.size() < kKeptReplies) {
          tally->replies.push_back(*reply);
        }
        rows = std::move(reply->rows);
      }
    } else {
      SpanScope root(tracer, "bench.stmt");
      StatusOr<Statement> parsed = Status::OK();
      {
        // The server parses every QUERY to route it; so does the replay.
        SpanScope span(tracer, "sql.parse");
        parsed = Parse(r.sql);
      }
      if (!parsed.ok()) {
        error = parsed.status();
      } else if (r.is_read) {
        StatusOr<PreparedStatement> ps = Status::OK();
        {
          SpanScope span(tracer, "session.prepare");
          ps = session->Prepare(r.sql);
        }
        StatusOr<QueryResult> result = ps.status();
        if (ps.ok()) {
          SpanScope span(tracer, "exec.execute");
          result = db->Run(ps->plan(), r.params);
        }
        if (!result.ok()) {
          error = result.status();
        } else {
          if (record) {
            tally->read_cost += result->actual_cost;
            tally->exec.Add(*result);
          }
          rows = std::move(result->rows);
        }
      } else {
        StatusOr<size_t> n = Status::OK();
        {
          SpanScope span(tracer, "db.mutate");
          n = db->Mutate(r.sql);
        }
        if (n.ok()) {
          affected = *n;
        } else {
          error = n.status();
        }
      }
    }
    double us = Micros(Clock::now() - t0);
    if (!error.ok()) {
      ++cs->failed;
      cs->checker.ExpectOk(error, r.sql);
      return;
    }
    CheckOutcome(cs, op, rows, affected);
    if (!record) return;
    ++tally->stmts;
    ++(r.is_read ? tally->reads : tally->writes);
    tally->timeline.Add(Seconds(Clock::now() - *start),
                        r.is_read ? Timeline::Kind::kRead
                                  : Timeline::Kind::kWrite,
                        us);
  };

  auto run_round = [&](bool record) {
    std::vector<OltpOp> ops = OltpRound(seed, cs->id, cs->next_round++);
    Clock::time_point r0 = Clock::now();
    for (const OltpOp& op : ops) {
      if (transport_ok) run_one(op, record);
    }
    if (record) {
      Clock::time_point now = Clock::now();
      tally->timeline.Add(Seconds(now - *start), Timeline::Kind::kRound,
                          Micros(now - r0) / 1e3);
    }
  };

  for (int i = 0; i < ph.warmup_rounds; ++i) run_round(false);
  sync->arrive_and_wait();
  for (int i = 0; i < ph.rounds && transport_ok; ++i) run_round(true);
  tally->end = Clock::now();
}

struct PhaseResult {
  std::vector<PhaseTally> tallies;
  Timeline timeline;
  double wall_s = 0;  // Until the last client finished.
  double both_s = 0;  // While every client was issuing statements.
  uint64_t stmts = 0, reads = 0, writes = 0;
};

PhaseResult RunPhase(const Phase& ph, uint64_t seed,
                     std::vector<ClientState>* clients,
                     std::vector<net::Client>* wires, Database* db,
                     PlanCache* cache, std::vector<Tracer>* tracers) {
  PhaseResult pr;
  pr.tallies.resize(kClients);
  // The measured phase starts for every client at once, when the last one
  // has finished its warm-up.
  Clock::time_point start;
  auto stamp = [&start]() noexcept { start = Clock::now(); };
  std::barrier sync(kClients, stamp);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient<decltype(sync)>, std::cref(ph), seed,
                         &(*clients)[c], &(*wires)[c], db, cache,
                         tracers != nullptr ? &(*tracers)[c] : nullptr, &sync,
                         &start, &pr.tallies[c]);
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point first_end = pr.tallies[0].end, last_end = first_end;
  for (const PhaseTally& t : pr.tallies) {
    first_end = std::min(first_end, t.end);
    last_end = std::max(last_end, t.end);
    pr.timeline.Merge(t.timeline);
    pr.stmts += t.stmts;
    pr.reads += t.reads;
    pr.writes += t.writes;
  }
  pr.wall_s = Seconds(last_end - start);
  pr.both_s = Seconds(first_end - start);
  return pr;
}

/// net.codec_us: encode and decode the run's own read replies again.
double CodecMicros(const PhaseResult& pr, Checker* checker) {
  size_t n = 0;
  Clock::time_point t0 = Clock::now();
  for (const PhaseTally& t : pr.tallies) {
    for (const net::WireResult& w : t.replies) {
      std::string body = net::EncodeRowsReply(
          w.columns, w.rows, w.plan_text, w.page_fetches, w.buffer_gets,
          w.rsi_calls, w.est_cost, w.actual_cost);
      net::WireResult back;
      bool ok = net::DecodeReply(body, &back);
      checker->Expect(ok && back.rows.size() == w.rows.size(),
                      "reply codec round trip");
      ++n;
    }
  }
  return n == 0 ? 0.0 : Micros(Clock::now() - t0) / static_cast<double>(n);
}

/// Restricts this thread, and so every thread it starts later, to the first
/// `n` CPUs it may run on. With the two clients and their two server
/// threads on two CPUs, each CPU nearly always has a runnable thread, so a
/// reply's wake-up seldom has to wake an idle virtual CPU: on a shared
/// host that wake-up latency swung whole runs between two speeds (README).
void PinToCpus(int n) {
  cpu_set_t allowed, pinned;
  CPU_ZERO(&pinned);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE && n > 0; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &pinned);
      --n;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

}  // namespace

int RunOltp(const Options& opt) {
  PinToCpus(kCpus);
  Report report;
  Checker checker;
  std::unique_ptr<Database> db;
  {
    std::vector<TableLoad> tables = OltpTables();
    std::vector<SetupTimes> times;
    for (int i = 0; i < kSetups; ++i) {
      db.reset();
      db = std::make_unique<Database>(kPoolPages);
      times.push_back(LoadTables(db.get(), tables, &checker));
    }
    ReportSetup(times, &report);
  }
  PrintDataSize("oltp", db.get());
  std::printf("oltp: WAL %llu bytes after set-up\n",
              static_cast<unsigned long long>(db->rss().wal().size()));
  if (!checker.ok()) return report.Finish("oltp", {}, 1, 1, checker);

  PlanCache cache(64);
  net::Server server(db.get(), &cache);
  checker.ExpectOk(server.Start(), "server start");
  std::vector<ClientState> clients(kClients);
  std::vector<net::Client> wires(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients[c].id = c;
    for (int64_t k = 0; k < OltpShape::kOwnRows; ++k) {
      clients[c].payload.push_back(OwnPayload(c, k));
    }
    checker.ExpectOk(wires[c].Connect("127.0.0.1", server.port()),
                     "client connect");
  }
  if (!checker.ok()) return report.Finish("oltp", {}, 1, 1, checker);

  const int rounds = opt.seconds * kRoundsPerSecond;
  Phase untraced{Path::kWire, rounds, kWarmupRounds, false};
  PhaseResult a = RunPhase(untraced, opt.seed, &clients, &wires, db.get(),
                           &cache, nullptr);
  Summary reads = Summarize(a.timeline.Values(Timeline::Kind::kRead));
  Summary writes = Summarize(a.timeline.Values(Timeline::Kind::kWrite));
  Timeline::Figures fig = a.timeline.Measure(a.both_s);
  double read_cost = 0;
  for (const PhaseTally& t : a.tallies) read_cost += t.read_cost;
  std::printf("oltp: %llu statements in %.2f s over %d connections\n",
              static_cast<unsigned long long>(a.stmts), a.wall_s, kClients);
  std::printf("oltp: read  %s\n", FormatSummary(reads, "us").c_str());
  std::printf("oltp: write %s\n", FormatSummary(writes, "us").c_str());
  report.Set("throughput_qps", fig.qps);
  report.Set("throughput_total_qps", fig.total_qps);
  report.Set("read_p50_us", fig.read_p50_us);
  report.Set("read_p99_us", fig.read_p99_us);
  report.Set("write_p50_us", fig.write_p50_us);
  report.Set("report_ms", fig.round_ms);
  report.Set("cost_per_read", a.reads == 0 ? 0.0 : read_cost / a.reads);

  if (opt.trace) {
    std::vector<Tracer> wire_tracers, local_tracers;
    for (int c = 0; c < kClients; ++c) {
      wire_tracers.emplace_back(c);
      local_tracers.emplace_back(kClients + c);
    }
    net::ServerStatsSnapshot s0 = server.stats();
    PlanCacheStats c0 = cache.stats();
    Lsn wal0 = db->rss().wal().size();
    uint64_t syncs0 = db->rss().wal().stats().syncs;
    Phase traced{Path::kWire, rounds, 0, true};
    PhaseResult b = RunPhase(traced, opt.seed, &clients, &wires, db.get(),
                             &cache, &wire_tracers);
    net::ServerStatsSnapshot s1 = server.stats();
    PlanCacheStats c1 = cache.stats();
    double wal_bytes = static_cast<double>(db->rss().wal().size() - wal0);
    double syncs = static_cast<double>(db->rss().wal().stats().syncs - syncs0);

    Phase replay{Path::kInProcess, rounds, 0, true};
    PhaseResult c = RunPhase(replay, opt.seed, &clients, &wires, db.get(),
                             &cache, &local_tracers);

    std::vector<const Tracer*> all;
    for (const Tracer& t : wire_tracers) all.push_back(&t);
    for (const Tracer& t : local_tracers) all.push_back(&t);
    TraceTotals tt = FoldSpans(all);
    ReportSelfTimes(tt, b.stmts + c.stmts, &report);
    if (!opt.trace_out.empty()) {
      checker.Expect(WriteSpans(all, opt.trace_out), "write " + opt.trace_out);
    }

    double hits = static_cast<double>(c1.hits - c0.hits);
    double lookups = hits + static_cast<double>(c1.misses - c0.misses);
    double round_trip = MeanUs(tt, "net.round_trip");
    report.Set("net.round_trip_us", round_trip);
    report.Set("net.wire_overhead_us", round_trip - MeanUs(tt, "bench.stmt"));
    report.Set("net.codec_us", CodecMicros(b, &checker));
    report.Set("net.bytes_in_per_stmt",
               static_cast<double>(s1.bytes_in - s0.bytes_in) / b.stmts);
    report.Set("net.bytes_out_per_stmt",
               static_cast<double>(s1.bytes_out - s0.bytes_out) / b.stmts);
    report.Set("net.admission_waits",
               static_cast<double>(s1.stmts_queued_total - s0.stmts_queued_total));
    report.Set("session.plan_cache_hits", hits);
    report.Set("session.plan_cache_lookups", lookups);
    report.Set("session.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0);
    report.Set("session.prepare_us", MeanUs(tt, "session.prepare"));
    report.Set("sql.parse_us", MeanUs(tt, "sql.parse"));
    report.Set("sql.bind_us", 0);
    report.Set("optimizer.optimize_us", 0);
    report.Set("optimizer.plans_generated", 0);
    report.Set("exec.execute_us", MeanUs(tt, "exec.execute"));
    for (const char* shape : {"scan", "join", "hashjoin", "agg", "sort", "subq"}) {
      report.Set(std::string("exec.") + shape + "_ms", 0);
      report.Set(std::string("exec.") + shape + "_dop2_ms", 0);
    }
    ExecTotals exec;
    for (const PhaseTally& t : c.tallies) exec.Merge(t.exec);
    exec.Report(&report);
    report.Set("rss.wal_bytes_per_write", b.writes ? wal_bytes / b.writes : 0);
    report.Set("rss.wal_syncs_per_commit", b.writes ? syncs / b.writes : 0);
    report.Set("db.mutate_us", MeanUs(tt, "db.mutate"));
    // Whole-phase rates: both phases ran the same number of statements.
    double untraced_qps = a.stmts / a.wall_s, traced_qps = b.stmts / b.wall_s;
    report.Set("trace.untraced_qps", untraced_qps);
    report.Set("trace.traced_qps", traced_qps);
    report.Set("trace.throughput_ratio", traced_qps / untraced_qps);
  }

  for (net::Client& w : wires) w.Close();
  server.Stop();
  std::printf("oltp: WAL %llu bytes at the end (kept in memory)\n",
              static_cast<unsigned long long>(db->rss().wal().size()));

  // Final state against each client's model.
  uint64_t attempted = 0, failed = 0;
  for (ClientState& cs : clients) {
    attempted += cs.attempted;
    int64_t sum = 0;
    for (int64_t v : cs.payload) sum += v;
    if (opt.corrupt) ++sum;
    StatusOr<QueryResult> r =
        db->Query("SELECT COUNT(*), SUM(V) FROM " + OwnTable(cs.id));
    ++attempted;
    if (!r.ok()) {
      ++failed;
      checker.ExpectOk(r.status(), "final COUNT/SUM");
    } else {
      bool shape = r->rows.size() == 1 && r->rows[0].size() == 2;
      checker.Expect(shape && r->rows[0][0].AsInt() ==
                                  static_cast<int64_t>(cs.payload.size()),
                     "final COUNT(*) of " + OwnTable(cs.id));
      checker.Expect(shape && r->rows[0][1].AsInt() == sum,
                     "final SUM(V) of " + OwnTable(cs.id));
    }
    failed += cs.failed;
    if (cs.failed > 0) checker.Expect(false, "an oltp statement failed");
    if (!cs.checker.ok()) checker.Expect(false, "oltp reply checks failed");
  }
  report.Set("peak_rss_mb", PeakRssMib());
  return report.Finish("oltp", opt.trace ? PerLayerMetrics() : EndToEndMetrics(),
                       attempted, failed, checker);
}

}  // namespace perfbench
