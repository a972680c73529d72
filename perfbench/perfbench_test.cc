// The benchmark's own tests: the percentile rule, seed determinism of the
// statement streams, and that a corrupted expectation fails the run.
#include <sys/wait.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.h"
#include "streams.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SupportedTailPermille(0), 0);
  EXPECT_EQ(SupportedTailPermille(39), 0);  // Below 40: the median alone.
  EXPECT_EQ(SupportedTailPermille(40), 750);
  EXPECT_EQ(SupportedTailPermille(99), 750);
  EXPECT_EQ(SupportedTailPermille(100), 900);
  EXPECT_EQ(SupportedTailPermille(999), 900);  // p99 needs 1 000 samples.
  EXPECT_EQ(SupportedTailPermille(1000), 990);
  EXPECT_EQ(SupportedTailPermille(9999), 990);
  EXPECT_EQ(SupportedTailPermille(10000), 999);
}

TEST(PercentileRule, NearestRankValues) {
  Summary few = Summarize(OneTo(39));
  EXPECT_EQ(few.n, 39u);
  EXPECT_EQ(few.p50, 20);
  EXPECT_EQ(few.tail_permille, 0);

  Summary many = Summarize(OneTo(1000));
  EXPECT_EQ(many.p50, 500);
  EXPECT_EQ(many.tail_permille, 990);
  EXPECT_EQ(many.tail, 990);

  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  EXPECT_EQ(Summarize(shuffled).p50, 3);
  EXPECT_EQ(Summarize({}).n, 0u);
}

TEST(PercentileRule, ReadP99NeedsAThousandReads) {
  Timeline t;
  for (int i = 1; i <= 999; ++i) {
    t.Add(0.001 * i, Timeline::Kind::kRead, i);
  }
  Timeline::Figures few = t.Measure(1.0);
  EXPECT_EQ(few.read_p50_us, 500);
  EXPECT_EQ(few.read_p99_us, 0);  // Not supported: reported as 0.
  t.Add(0.9995, Timeline::Kind::kRead, 1000);
  Timeline::Figures many = t.Measure(1.0);
  EXPECT_EQ(many.read_p99_us, 990);
  EXPECT_DOUBLE_EQ(many.total_qps, 1000);  // 1 000 reads in 1 s.
}

bool SameOps(const std::vector<OltpOp>& a, const std::vector<OltpOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].table != b[i].table ||
        a[i].lo != b[i].lo || a[i].hi != b[i].hi || a[i].value != b[i].value) {
      return false;
    }
  }
  return true;
}

TEST(Streams, OltpSeedGivesSameRounds) {
  for (uint64_t round = 0; round < 50; ++round) {
    for (int client = 0; client < OltpShape::kClients; ++client) {
      std::vector<OltpOp> a = OltpRound(11, client, round);
      EXPECT_TRUE(SameOps(a, OltpRound(11, client, round)));
      ASSERT_EQ(a.size(), static_cast<size_t>(OltpShape::kRoundOps));
      int points = 0, ranges = 0, writes = 0;
      for (const OltpOp& op : a) {
        if (op.is_write()) {
          ++writes;
        } else if (op.kind == OltpKind::kRangeShared ||
                   op.kind == OltpKind::kRangeOwn) {
          ++ranges;
          int64_t n = op.kind == OltpKind::kRangeOwn ? OltpShape::kOwnRows
                                                     : OltpShape::kSharedRows;
          EXPECT_LE(0, op.lo);
          EXPECT_LE(op.lo, op.hi);
          EXPECT_LT(op.hi, n);
        } else {
          ++points;
        }
      }
      EXPECT_EQ(points, 10);
      EXPECT_EQ(ranges, 7);
      EXPECT_EQ(writes, 3);
    }
  }
  EXPECT_FALSE(SameOps(OltpRound(11, 0, 3), OltpRound(12, 0, 3)));
  EXPECT_FALSE(SameOps(OltpRound(11, 0, 3), OltpRound(11, 1, 3)));
}

std::vector<std::string> AdhocSql(uint64_t seed, int rounds) {
  AdhocStream stream(seed);
  std::vector<std::string> sql;
  for (int r = 0; r < rounds; ++r) {
    int reads = 0;
    for (const AdhocStmt& s : stream.NextRound()) {
      sql.push_back(s.sql);
      if (s.is_read) {
        ++reads;
        EXPECT_GE(s.relations, 3);
        EXPECT_LE(s.relations, 7);
      }
    }
    EXPECT_EQ(reads, AdhocShape::kRoundStmts - 2);
  }
  return sql;
}

TEST(Streams, AdhocSeedGivesSameStatements) {
  std::vector<std::string> a = AdhocSql(5, 20);
  EXPECT_EQ(a, AdhocSql(5, 20));
  EXPECT_NE(a, AdhocSql(6, 20));
  EXPECT_EQ(AdhocFactRows(5), AdhocFactRows(5));
  EXPECT_NE(AdhocFactRows(5), AdhocFactRows(6));
  EXPECT_EQ(AnalyticOrderRows(5), AnalyticOrderRows(5));
}

int RunPerfbench(const std::string& workload, bool corrupt) {
  std::string cmd = std::string(PERFBENCH_BIN) + " --workload " + workload +
                    " --seed 7 --seconds 1 --trace 0" +
                    (corrupt ? " --corrupt" : "") + " > /dev/null 2>&1";
  int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CorruptedExpectation, FailsTheRun) {
  for (const char* workload : {"oltp", "adhoc", "analytic"}) {
    EXPECT_EQ(RunPerfbench(workload, false), 0) << workload;
    EXPECT_EQ(RunPerfbench(workload, true), kExitCheckFailed) << workload;
  }
}

}  // namespace
}  // namespace perfbench
