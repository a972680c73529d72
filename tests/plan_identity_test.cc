// Plan-identity regression: pins, for a fixed corpus of queries, the plan the
// optimizer chooses (a hash of the EXPLAIN text plus every plan node's
// label), its estimated cost, and the size of the §5 search
// (solutions_generated, solutions_stored). Any change to the join
// enumerator that is meant to be a pure speed-up must leave every line
// below unchanged. If a change to the cost model or the search is
// *intentional*, re-golden with the lines the failure messages print.
//
// Corpus:
//   - FuzzQueryGen streams over the chain, star and snowflake schema
//     families (family = seed % 3, as in the differential fuzzer);
//   - a 7-relation star shaped like a data-warehouse ad-hoc join: a fact
//     table with six indexed foreign keys and six small dimensions;
//   - per-search-option variants (no interesting orders, no Cartesian
//     heuristic, forced join methods, no hash join), aggregated per case.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "optimizer/explain.h"
#include "workload/querygen.h"

namespace systemr {
namespace {

struct Golden {
  const char* name;
  uint64_t hash;
  double cost;
  size_t generated;
  size_t stored;
};

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

void AppendLabels(const PlanRef& node, std::string* out) {
  if (node == nullptr) return;
  *out += node->label;
  *out += '\n';
  AppendLabels(node->left, out);
  AppendLabels(node->right, out);
}

// EXPLAIN of the top plan and of every nested block, plus all node labels.
std::string PlanText(const OptimizedQuery& q) {
  std::string text = ExplainPlan(q.root, *q.block);
  AppendLabels(q.root, &text);
  std::vector<std::string> subs;
  for (const auto& [block, plan] : q.subquery_plans) {
    std::string s = ExplainPlan(plan, *block);
    AppendLabels(plan, &s);
    subs.push_back(std::move(s));
  }
  std::sort(subs.begin(), subs.end());
  for (const std::string& s : subs) text += "--\n" + s;
  return text;
}

Golden Measure(const OptimizedQuery& q) {
  return Golden{nullptr, Fnv(kFnvBasis, PlanText(q)), q.est_cost,
                q.solutions_generated, q.solutions_stored};
}

std::string Line(const std::string& name, const Golden& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", 0x%016" PRIx64 "ULL, %.17g, %zu, %zu},",
                name.c_str(), g.hash, g.cost, g.generated, g.stored);
  return buf;
}

// --- The corpus ----------------------------------------------------------

struct Variant {
  const char* name;
  void (*apply)(OptimizerOptions*);
};

const std::vector<Variant>& Variants() {
  static const std::vector<Variant> kVariants = {
      {"no-orders",
       [](OptimizerOptions* o) { o->join.use_interesting_orders = false; }},
      {"no-heuristic",
       [](OptimizerOptions* o) { o->join.cartesian_heuristic = false; }},
      {"no-hash",
       [](OptimizerOptions* o) { o->join.enable_hash_join = false; }},
      {"force-nl",
       [](OptimizerOptions* o) {
         o->join.force = JoinMethodForce::kNestedLoop;
       }},
      {"force-merge",
       [](OptimizerOptions* o) { o->join.force = JoinMethodForce::kMerge; }},
      {"force-hash",
       [](OptimizerOptions* o) { o->join.force = JoinMethodForce::kHash; }},
  };
  return kVariants;
}

constexpr int kFuzzSeeds = 24;
constexpr int kQueriesPerSeed = 6;
constexpr int kVariantSeeds = 6;

std::vector<std::string> FuzzQueries(const FuzzSchema& schema, uint64_t seed) {
  FuzzQueryGen gen(schema, seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::string> out;
  for (int i = 0; i < kQueriesPerSeed; ++i) out.push_back(gen.Next().Sql());
  return out;
}

constexpr int kDims = 6;
constexpr int kDimRows = 150;
constexpr int kFactRows = 3000;

Status BuildStar(Database* db) {
  Rng rng(4242);
  auto insert_all = [db](const std::string& table,
                         const std::vector<std::string>& tuples) -> Status {
    for (size_t i = 0; i < tuples.size(); i += 100) {
      std::string sql = "INSERT INTO " + table + " VALUES ";
      for (size_t j = i; j < std::min(tuples.size(), i + 100); ++j) {
        if (j > i) sql += ", ";
        sql += tuples[j];
      }
      RETURN_IF_ERROR(db->Mutate(sql).status());
    }
    return Status::OK();
  };
  for (int d = 1; d <= kDims; ++d) {
    const std::string name = "DIM" + std::to_string(d);
    RETURN_IF_ERROR(db->Execute("CREATE TABLE " + name +
                                " (ID INT, ATTR INT, GRP INT, NAME STRING)"));
    std::vector<std::string> rows;
    for (int id = 0; id < kDimRows; ++id) {
      rows.push_back("(" + std::to_string(id) + ", " +
                     std::to_string(rng.Uniform(0, kDimRows / 2 - 1)) + ", " +
                     std::to_string(rng.Uniform(0, 9)) + ", '" +
                     rng.RandomString(8) + "')");
    }
    RETURN_IF_ERROR(insert_all(name, rows));
    RETURN_IF_ERROR(db->Execute("CREATE UNIQUE INDEX " + name + "_ID ON " +
                                name + " (ID)"));
    RETURN_IF_ERROR(db->Execute("CREATE INDEX " + name + "_ATTR ON " + name +
                                " (ATTR)"));
    RETURN_IF_ERROR(db->Execute("UPDATE STATISTICS " + name));
  }
  RETURN_IF_ERROR(db->Execute(
      "CREATE TABLE FACT (F_ID INT, D1 INT, D2 INT, D3 INT, D4 INT, D5 INT, "
      "D6 INT, M1 INT, M2 INT)"));
  std::vector<std::string> rows;
  for (int id = 0; id < kFactRows; ++id) {
    std::string t = "(" + std::to_string(id);
    for (int d = 0; d < kDims; ++d) {
      t += ", " + std::to_string(rng.Uniform(0, kDimRows - 1));
    }
    t += ", " + std::to_string(rng.Uniform(0, 9999)) + ", " +
         std::to_string(rng.Uniform(0, 99)) + ")";
    rows.push_back(std::move(t));
  }
  RETURN_IF_ERROR(insert_all("FACT", rows));
  RETURN_IF_ERROR(db->Execute("CREATE UNIQUE INDEX FACT_ID ON FACT (F_ID)"));
  for (int d = 1; d <= kDims; ++d) {
    const std::string fk = "D" + std::to_string(d);
    RETURN_IF_ERROR(db->Execute("CREATE INDEX FACT_" + fk + " ON FACT (" +
                                fk + ")"));
  }
  return db->Execute("UPDATE STATISTICS FACT");
}

// Star joins of the fact table with 2..6 dimensions: the first dimension
// carries a selective indexed predicate, the others a group range; every
// other query orders by a fact column, and one groups.
std::vector<std::string> StarQueries() {
  std::vector<std::string> out;
  for (int dims = 2; dims <= kDims; ++dims) {
    for (int ordered = 0; ordered < 2; ++ordered) {
      std::string select = "SELECT F.F_ID, F.M1, DIM1.NAME";
      std::string from = " FROM DIM1, FACT F";
      std::string where = " WHERE DIM1.ATTR = " + std::to_string(3 * dims) +
                          " AND F.D1 = DIM1.ID";
      for (int d = 2; d <= dims; ++d) {
        const std::string dim = "DIM" + std::to_string(d);
        from += ", " + dim;
        where += " AND F.D" + std::to_string(d) + " = " + dim + ".ID AND " +
                 dim + ".GRP BETWEEN " + std::to_string(d % 3) + " AND " +
                 std::to_string(d % 3 + 5 + ordered);
      }
      std::string sql = select + from + where;
      if (ordered == 1) {
        sql += dims % 2 == 0 ? " ORDER BY F.M1" : " ORDER BY F.M1 DESC";
      }
      out.push_back(sql);
    }
  }
  out.push_back(
      "SELECT DIM2.GRP, COUNT(*) FROM DIM1, FACT F, DIM2 WHERE DIM1.ATTR = 7 "
      "AND F.D1 = DIM1.ID AND F.D2 = DIM2.ID GROUP BY DIM2.GRP");
  return out;
}

// Plans every query with `db`'s current options: a line per query, or one
// aggregate line when `aggregate` is set.
void MeasureQueries(Database* db, const std::string& name,
                    const std::vector<std::string>& queries, bool aggregate,
                    std::vector<std::pair<std::string, Golden>>* out) {
  Golden total{nullptr, kFnvBasis, 0, 0, 0};
  for (size_t i = 0; i < queries.size(); ++i) {
    StatusOr<OptimizedQuery> q = db->Prepare(queries[i]);
    ASSERT_TRUE(q.ok()) << name << ": " << queries[i] << ": "
                        << q.status().ToString();
    Golden g = Measure(*q);
    if (!aggregate) {
      out->emplace_back(name + "/q" + std::to_string(i), g);
      continue;
    }
    char cost[64];
    std::snprintf(cost, sizeof(cost), "%.9g", g.cost);
    total.hash = Fnv(total.hash, PlanText(*q) + cost);
    total.cost += g.cost;
    total.generated += g.generated;
    total.stored += g.stored;
  }
  if (aggregate) out->emplace_back(name, total);
}

// One case: per-query lines under the default options, then, with
// `variants`, one aggregate line per search-option variant.
void MeasureCase(Database* db, const std::string& name,
                 const std::vector<std::string>& queries, bool variants,
                 std::vector<std::pair<std::string, Golden>>* out) {
  MeasureQueries(db, name, queries, false, out);
  if (!variants) return;
  OptimizerOptions defaults = db->options();
  for (const Variant& v : Variants()) {
    v.apply(&db->options());
    MeasureQueries(db, name + "/" + v.name, queries, true, out);
    db->options() = defaults;
  }
}

std::vector<std::pair<std::string, Golden>> MeasureCorpus() {
  std::vector<std::pair<std::string, Golden>> out;
  static const char* kFamilies[] = {"chain", "star", "snowflake"};
  for (uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    auto family = static_cast<FuzzSchema::Family>(seed % 3);
    FuzzSchema schema = MakeFuzzSchema(family, seed);
    Database db(64);
    EXPECT_TRUE(BuildFuzzSchema(&db, schema, seed, true).ok());
    db.set_feedback_enabled(false);
    std::string name =
        std::string(kFamilies[seed % 3]) + "/s" + std::to_string(seed);
    MeasureCase(&db, name, FuzzQueries(schema, seed), seed <= kVariantSeeds,
                &out);
  }
  Database db(4096);
  EXPECT_TRUE(BuildStar(&db).ok());
  db.set_feedback_enabled(false);
  MeasureCase(&db, "star7", StarQueries(), true, &out);
  return out;
}

// Captured on the eager-enumeration optimizer (before the cost-first
// rewrite). The hash column was re-captured once when EXPLAIN dropped its
// `batches=` annotation; the cost and search-size columns are unchanged.
const Golden kGoldens[] = {
    {"star/s1/q0", 0x6d2d8f14bd7267e3ULL, 2.6945578231292515, 1, 1},
    {"star/s1/q1", 0xed7d1e862f89dea1ULL, 3.7999999986000006, 1, 1},
    {"star/s1/q2", 0x5dfd689e2bca26f7ULL, 1.0000000031999998, 1, 1},
    {"star/s1/q3", 0x496b3f4169139070ULL, 3.4333333333333331, 2, 2},
    {"star/s1/q4", 0x9ba1b30794dc7e54ULL, 5.553333334764444, 71, 16},
    {"star/s1/q5", 0x02affdd0c24f5d9fULL, 0, 1, 1},
    {"star/s1/no-orders", 0x1f68867c86a1a379ULL, 16.58122449302703, 32, 11},
    {"star/s1/no-heuristic", 0xef0ded1c3ad17ddeULL, 16.481224493027028, 102, 25},
    {"star/s1/no-hash", 0xef0ded1c3ad17ddeULL, 16.481224493027028, 61, 22},
    {"star/s1/force-nl", 0xef0ded1c3ad17ddeULL, 16.481224493027028, 29, 22},
    {"star/s1/force-merge", 0xbcf8bfeb46a089aaULL, 25.627891159693696, 37, 17},
    {"star/s1/force-hash", 0x9aaa6452d966b0c5ULL, 23.794557829222587, 25, 16},
    {"snowflake/s2/q0", 0x81b5586d63327aa4ULL, 14, 1, 1},
    {"snowflake/s2/q1", 0xfa24929301ac61b1ULL, 1.3856481481481482, 1, 1},
    {"snowflake/s2/q2", 0x1e50f9f128a1d6c8ULL, 3, 1, 1},
    {"snowflake/s2/q3", 0x6f7f0c08eeeb9520ULL, 12.599999999999998, 20, 6},
    {"snowflake/s2/q4", 0xa38c6134b840a3b6ULL, 14.938461538461542, 20, 6},
    {"snowflake/s2/q5", 0x94a27e1f65b9bfeeULL, 32.140989170303158, 80, 19},
    {"snowflake/s2/no-orders", 0x7871c22712d183c7ULL, 78.06509885691284, 50, 15},
    {"snowflake/s2/no-heuristic", 0x1cc472ffbe0b5dd5ULL, 78.06509885691284, 156, 38},
    {"snowflake/s2/no-hash", 0x1c88f6017f284a64ULL, 85.797177216171349, 97, 33},
    {"snowflake/s2/force-nl", 0x4fa9caad9590db19ULL, 102.57639362358624, 45, 34},
    {"snowflake/s2/force-merge", 0x76a4d81cc117c9a9ULL, 89.948904725949717, 61, 25},
    {"snowflake/s2/force-hash", 0xf61a2ba4fab5afe8ULL, 100.09421058637211, 40, 24},
    {"chain/s3/q0", 0x070bb40a29b0cad9ULL, 4.4666666666666677, 1, 1},
    {"chain/s3/q1", 0x258d92e4f2b5d0adULL, 1.1000000046000002, 1, 1},
    {"chain/s3/q2", 0x0b7ca37435cd0d7eULL, 3.6692307692307695, 1, 1},
    {"chain/s3/q3", 0x2b60206f94213d12ULL, 5.1868131868131861, 25, 8},
    {"chain/s3/q4", 0x2e8ca93d88d141deULL, 2.311242603550296, 2, 2},
    {"chain/s3/q5", 0xb0bd7ef34f1b65fdULL, 0.1000000046, 1, 1},
    {"chain/s3/no-orders", 0x6d5149da43dd8012ULL, 18.37418992185145, 15, 8},
    {"chain/s3/no-heuristic", 0xcb4f9095dd7f54dfULL, 16.833953235460918, 31, 14},
    {"chain/s3/no-hash", 0x336f916079aae326ULL, 17.833953235460921, 26, 14},
    {"chain/s3/force-nl", 0x336f916079aae326ULL, 17.833953235460921, 16, 14},
    {"chain/s3/force-merge", 0x83cdf777c4bf3413ULL, 22.283969885477571, 21, 12},
    {"chain/s3/force-hash", 0x1caa9551d0f37e19ULL, 25.547140048647734, 16, 12},
    {"star/s4/q0", 0x5e980d7d8884a037ULL, 7.4000000000000004, 1, 1},
    {"star/s4/q1", 0xfb137db6803d0579ULL, 10.200000000000001, 1, 1},
    {"star/s4/q2", 0xb589bd157f47893fULL, 8.74209486166008, 20, 6},
    {"star/s4/q3", 0x8f9b7f42fbe360b4ULL, 4.2000000000000002, 2, 2},
    {"star/s4/q4", 0xa8d2e705af4eb22dULL, 2.3818840612384058, 49, 11},
    {"star/s4/q5", 0xa6763814168ee656ULL, 1.8444444444444446, 1, 1},
    {"star/s4/no-orders", 0xd98a0713c8ad3caaULL, 36.868423367342928, 41, 13},
    {"star/s4/no-heuristic", 0xfa026c863050585aULL, 34.768423367342926, 91, 24},
    {"star/s4/no-hash", 0xfa026c863050585aULL, 34.768423367342926, 59, 22},
    {"star/s4/force-nl", 0xfa026c863050585aULL, 34.768423367342926, 29, 22},
    {"star/s4/force-merge", 0x31fbf7f1a183cac8ULL, 39.473495831111045, 40, 19},
    {"star/s4/force-hash", 0xfdd2bd3fb4ce2f1aULL, 40.315590693105904, 27, 18},
    {"snowflake/s5/q0", 0x13f99a8504a65d0fULL, 39.923076923076927, 71, 16},
    {"snowflake/s5/q1", 0x80cdd542178d6509ULL, 17.246153846153849, 20, 6},
    {"snowflake/s5/q2", 0xa6513eb3ca84f348ULL, 4.7999999999999998, 1, 1},
    {"snowflake/s5/q3", 0xe2363c6323ec8eccULL, 48.789230769230777, 80, 19},
    {"snowflake/s5/q4", 0xe7c540e526e5d39bULL, 17.006923081533849, 71, 16},
    {"snowflake/s5/q5", 0xc50a74070ec63b71ULL, 2.3333333333333335, 1, 1},
    {"snowflake/s5/no-orders", 0xc928a647371dcd4aULL, 130.09871795332873, 93, 23},
    {"snowflake/s5/no-heuristic", 0x82eb74cb66f44744ULL, 130.09871795332873, 327, 69},
    {"snowflake/s5/no-hash", 0x1d95179a2893f375ULL, 133.87256410567952, 190, 57},
    {"snowflake/s5/force-nl", 0xd7308cffac456008ULL, 171.26410258329335, 82, 59},
    {"snowflake/s5/force-merge", 0x902fd195c6ab8e19ULL, 143.58641025952568, 110, 41},
    {"snowflake/s5/force-hash", 0x37b98757f9a0f735ULL, 173.4225641031949, 69, 38},
    {"chain/s6/q0", 0x2fce6a47bd11565bULL, 2.8666666666666671, 1, 1},
    {"chain/s6/q1", 0x5610e0d34712ff63ULL, 5.7666666666666666, 20, 6},
    {"chain/s6/q2", 0xbedfb6b6f7978533ULL, 10.541176470588235, 20, 6},
    {"chain/s6/q3", 0x0c5920f725e6c7c1ULL, 7.9894314868804654, 1, 1},
    {"chain/s6/q4", 0xc651f2c9c9c18b80ULL, 4.833333333333333, 1, 1},
    {"chain/s6/q5", 0x98550d3f114f867aULL, 9.5, 1, 1},
    {"chain/s6/no-orders", 0xbf1a8397e117be43ULL, 46.46198050648831, 24, 10},
    {"chain/s6/no-heuristic", 0x7afe3da38aac3116ULL, 41.497274624135365, 44, 16},
    {"chain/s6/no-hash", 0x1def8ef7a5fd6fdbULL, 46.597274624135366, 36, 16},
    {"chain/s6/force-nl", 0x1def8ef7a5fd6fdbULL, 46.597274624135366, 20, 16},
    {"chain/s6/force-merge", 0xe9691b92dd67a5aaULL, 51.887470702566745, 28, 14},
    {"chain/s6/force-hash", 0xbc873d839a2cea11ULL, 60.416882467272622, 20, 14},
    {"star/s7/q0", 0xc6dc5f6c6e3abf4bULL, 1.11625, 1, 1},
    {"star/s7/q1", 0xa62d60c317fdba0dULL, 5.5218181818181833, 71, 16},
    {"star/s7/q2", 0xeaa885ffb535cec9ULL, 4.7000000000000002, 1, 1},
    {"star/s7/q3", 0xf21c4b3e19e7f58eULL, 2.5531250000000005, 1, 1},
    {"star/s7/q4", 0x93b9189610ab17cdULL, 4.1000000000000005, 1, 1},
    {"star/s7/q5", 0x1cfb85214345c25eULL, 15.500000000000002, 20, 6},
    {"snowflake/s8/q0", 0xf6e859648c1a50ccULL, 7, 20, 6},
    {"snowflake/s8/q1", 0xc17edc54c572d056ULL, 2.3333333333333335, 1, 1},
    {"snowflake/s8/q2", 0x53e78a00c81359aeULL, 1, 2, 2},
    {"snowflake/s8/q3", 0x0144cb0c7b8c3040ULL, 2.4666666666666668, 1, 1},
    {"snowflake/s8/q4", 0x7de79b432d264533ULL, 4.2110000000000003, 2, 2},
    {"snowflake/s8/q5", 0x316e7829a310722bULL, 2.0666666666666669, 1, 1},
    {"chain/s9/q0", 0xc0c82c9a168c9dd9ULL, 7.5666666666666664, 71, 16},
    {"chain/s9/q1", 0x652ea42bb28b5bc5ULL, 1.0000000114000001, 1, 1},
    {"chain/s9/q2", 0xa1cf3d58556740f7ULL, 4.8500000000000005, 1, 1},
    {"chain/s9/q3", 0x2b6074288cdbd522ULL, 2.4666666666666668, 1, 1},
    {"chain/s9/q4", 0x6ff2994c108cf7ccULL, 33.799999999999997, 20, 6},
    {"chain/s9/q5", 0x41c51b32ce131973ULL, 2.166666666666667, 1, 1},
    {"star/s10/q0", 0xbfbe7c2d25058d22ULL, 3.7000000000000002, 20, 6},
    {"star/s10/q1", 0x0b8de8a8313b3212ULL, 2.4000000000000004, 1, 1},
    {"star/s10/q2", 0xe1887d0dcfbbfc98ULL, 20.606250019656251, 88, 20},
    {"star/s10/q3", 0x88f79a154c0af644ULL, 2.8333333333333335, 1, 1},
    {"star/s10/q4", 0xb093e45b04a47897ULL, 8.3571428571428577, 20, 6},
    {"star/s10/q5", 0xda5f2c77ca09c69fULL, 2.1366666666666667, 1, 1},
    {"snowflake/s11/q0", 0x6781987d5f878c08ULL, 1.6750000133833334, 20, 6},
    {"snowflake/s11/q1", 0xe84cfbc52484446dULL, 2.6454545454545451, 15, 4},
    {"snowflake/s11/q2", 0x1f2a0fbb09f6ba7eULL, 3.2542229605922159, 20, 6},
    {"snowflake/s11/q3", 0xffa5a09f7170125cULL, 3.0075757575757578, 1, 1},
    {"snowflake/s11/q4", 0xdb715d8e2b39ba98ULL, 5.9786885245901651, 1, 1},
    {"snowflake/s11/q5", 0x97121c05ec4c4e66ULL, 1.0909091045545454, 15, 4},
    {"chain/s12/q0", 0xbe4d9348737f7ac6ULL, 15.761904761904761, 20, 6},
    {"chain/s12/q1", 0x03590ae85cc0c829ULL, 20.714285714285712, 20, 6},
    {"chain/s12/q2", 0x9dca79f8738408caULL, 3.9142857142857133, 20, 6},
    {"chain/s12/q3", 0xe17db6ef65f6be34ULL, 1, 2, 2},
    {"chain/s12/q4", 0xc3c663aa87b8cba4ULL, 1.6142857257142857, 20, 6},
    {"chain/s12/q5", 0x58c297cad418580aULL, 4.8000000000000007, 1, 1},
    {"star/s13/q0", 0x2cb8913fb8d7fff9ULL, 0.97142857142857131, 1, 1},
    {"star/s13/q1", 0x11570b44c70232faULL, 2.6000000000000001, 1, 1},
    {"star/s13/q2", 0xf4725b0b4cefe04bULL, 8.5061403508771907, 1, 1},
    {"star/s13/q3", 0x9f64919bdc2355b4ULL, 6.5076923076923077, 20, 6},
    {"star/s13/q4", 0xa9d64b174ea53e39ULL, 1.8698412696238094, 1, 1},
    {"star/s13/q5", 0xb7d0168db9cd63c3ULL, 4, 2, 2},
    {"snowflake/s14/q0", 0x52db7f06a8654c6dULL, 24.59375, 20, 6},
    {"snowflake/s14/q1", 0xc73129704937eaa5ULL, 11.1, 1, 1},
    {"snowflake/s14/q2", 0x4d2c27669d4e4331ULL, 11.070833333333335, 62, 14},
    {"snowflake/s14/q3", 0x890094922ddda4f3ULL, 2.1222222222222227, 20, 6},
    {"snowflake/s14/q4", 0xc19c9785c05c573dULL, 37.753124999999997, 71, 16},
    {"snowflake/s14/q5", 0x49d467a2ed679b09ULL, 17.359375000140624, 20, 6},
    {"chain/s15/q0", 0x9672169f2c847f80ULL, 8.9729251744356446, 20, 6},
    {"chain/s15/q1", 0xc86a282e4a03e24dULL, 1.8400000000000003, 20, 6},
    {"chain/s15/q2", 0x113646c92ee3887fULL, 1.2999999999999998, 1, 1},
    {"chain/s15/q3", 0x74a7519ebbc1aacdULL, 1.8115599981489194, 1, 1},
    {"chain/s15/q4", 0x5f675b84f96ca669ULL, 22.986666666666668, 20, 6},
    {"chain/s15/q5", 0xf6a2fd178eb4ec50ULL, 13.513333333333334, 20, 6},
    {"star/s16/q0", 0xe772cda5b6263911ULL, 2.736363639413637, 20, 6},
    {"star/s16/q1", 0x438dbfa5fdd5f9b7ULL, 12.90909090909091, 20, 6},
    {"star/s16/q2", 0x81c941c73f2a2827ULL, 1.2, 1, 1},
    {"star/s16/q3", 0x150c8e784575ad66ULL, 4.7272727272727284, 20, 6},
    {"star/s16/q4", 0x716eeec4abfa55fbULL, 4.2095272727272732, 20, 6},
    {"star/s16/q5", 0x34972b1608de3301ULL, 2.1848484848272731, 1, 1},
    {"snowflake/s17/q0", 0x265147ee350e56b6ULL, 3.566666667866667, 20, 6},
    {"snowflake/s17/q1", 0x56db4f970e98b07aULL, 4.6000000000000005, 1, 1},
    {"snowflake/s17/q2", 0x4e2d40b2147fc396ULL, 5.4000000000000004, 1, 1},
    {"snowflake/s17/q3", 0x33aa5ed57b38a941ULL, 2.1111111111111112, 1, 1},
    {"snowflake/s17/q4", 0x9a16083685097a25ULL, 4.1541666666666668, 1, 1},
    {"snowflake/s17/q5", 0x512fdc25d60f6a7dULL, 5.4000000000000004, 1, 1},
    {"chain/s18/q0", 0xe9c430e199dc8567ULL, 1.3702422145328723, 1, 1},
    {"chain/s18/q1", 0x8c56f43cc186f486ULL, 1.4480534178361251, 2, 2},
    {"chain/s18/q2", 0x28265156f760c3c8ULL, 2.9000000000000004, 1, 1},
    {"chain/s18/q3", 0xf0b9b2091fb50480ULL, 3.2000000000000011, 1, 1},
    {"chain/s18/q4", 0x7f106bfd2b3b8a32ULL, 2.882352941176471, 1, 1},
    {"chain/s18/q5", 0x8681b8345a17eb86ULL, 1.8352941176470587, 1, 1},
    {"star/s19/q0", 0x9fe050c24e3fa937ULL, 16.454761904761902, 20, 6},
    {"star/s19/q1", 0x90e119b43185159aULL, 5.6000000003000006, 1, 1},
    {"star/s19/q2", 0xa40855bd81798561ULL, 2.9499999993500001, 1, 1},
    {"star/s19/q3", 0x9a63351bcff1072bULL, 3.0659090909090909, 20, 6},
    {"star/s19/q4", 0x6b92443c10cb7d9aULL, 5.3000000009000008, 1, 1},
    {"star/s19/q5", 0x27896ff717c5576fULL, 1, 2, 2},
    {"snowflake/s20/q0", 0xbbc64223a4697bb4ULL, 1.1000000000000001, 1, 1},
    {"snowflake/s20/q1", 0xca39bcae93845147ULL, 3.8000000000000003, 1, 1},
    {"snowflake/s20/q2", 0x959c6b417cdd4c7aULL, 2.7333333333333334, 1, 1},
    {"snowflake/s20/q3", 0x7d112fd28d907ee1ULL, 14.100000000000001, 1, 1},
    {"snowflake/s20/q4", 0x7b282b91518d83d7ULL, 4, 2, 2},
    {"snowflake/s20/q5", 0x234a517d508a2ecfULL, 21.300000000000004, 1, 1},
    {"chain/s21/q0", 0x852899592a72bcd4ULL, 4.2000000000000002, 1, 1},
    {"chain/s21/q1", 0x128bbee6e76662b2ULL, 2.9000000000000004, 1, 1},
    {"chain/s21/q2", 0x76733ef339b864daULL, 6.5999999999999996, 1, 1},
    {"chain/s21/q3", 0x1a97d79b76ec77eeULL, 2.8372395840466149, 20, 6},
    {"chain/s21/q4", 0x44ef86963e46af8dULL, 8.5, 1, 1},
    {"chain/s21/q5", 0xb5dfd94052cb1625ULL, 1.3916666764666665, 20, 6},
    {"star/s22/q0", 0x2902627b9f87feccULL, 3.4000000000000004, 2, 2},
    {"star/s22/q1", 0xa17cd553b6a8584aULL, 2.1000000018000002, 1, 1},
    {"star/s22/q2", 0xf10aabd4baba408bULL, 1.1000000000000001, 1, 1},
    {"star/s22/q3", 0x6442411d2d7d44b5ULL, 3.2000000000000002, 1, 1},
    {"star/s22/q4", 0x11823fc1812d2551ULL, 4, 2, 2},
    {"star/s22/q5", 0xc348dffceeef13a3ULL, 7.1999999999999993, 16, 4},
    {"snowflake/s23/q0", 0x72e383512e58b54cULL, 36.024999999999999, 71, 15},
    {"snowflake/s23/q1", 0x5785bfa973d781a9ULL, 13.5, 2, 2},
    {"snowflake/s23/q2", 0x78fabc1e661e7b47ULL, 4.0999999999999996, 1, 1},
    {"snowflake/s23/q3", 0x42d6e59ad4eaacdaULL, 2.0263157894736841, 20, 6},
    {"snowflake/s23/q4", 0xe16f54590276bd07ULL, 15.25, 20, 6},
    {"snowflake/s23/q5", 0x3f853b7e5113c638ULL, 16.399999999999999, 20, 6},
    {"chain/s24/q0", 0x6195dca47397e1bbULL, 4.548, 20, 6},
    {"chain/s24/q1", 0x509be69263d205b8ULL, 2.100000001397436, 1, 1},
    {"chain/s24/q2", 0x4448bec19fb17158ULL, 8.7471074380165312, 20, 6},
    {"chain/s24/q3", 0x145035c30fafddd2ULL, 8.2999999999999989, 1, 1},
    {"chain/s24/q4", 0x459f2224641365f0ULL, 2.1000000000000001, 1, 1},
    {"chain/s24/q5", 0xc20a85b187b1e006ULL, 12.398076926278849, 20, 6},
    {"star7/q0", 0xb9b0bcec1c7d5318ULL, 25.699999999999999, 71, 15},
    {"star7/q1", 0xfcfb797550329b60ULL, 32.322222222222223, 71, 15},
    {"star7/q2", 0xa6825709501c7245ULL, 38.261629629629631, 214, 34},
    {"star7/q3", 0xeef380d08a778e87ULL, 47.214444444444446, 214, 34},
    {"star7/q4", 0x2de441294f6784f5ULL, 58.69481560493827, 621, 77},
    {"star7/q5", 0x34f835f3759753b9ULL, 68.952749629629636, 621, 77},
    {"star7/q6", 0x851c6cb972e44855ULL, 71.015042444115224, 1756, 176},
    {"star7/q7", 0x18cedd02d09f3e78ULL, 85.193042883950639, 1756, 176},
    {"star7/q8", 0xf1382c93d369c9cfULL, 84.854099538172846, 4819, 403},
    {"star7/q9", 0x0f00306a78260222ULL, 103.26433595851852, 4819, 403},
    {"star7/q10", 0xdc25733955fdcf4cULL, 49.173333333333332, 71, 15},
    {"star7/no-orders", 0x0df901aa35d45a22ULL, 664.64571568895462, 2797, 294},
    {"star7/no-heuristic", 0x139fd95812364160ULL, 664.64571568895462, 25672, 2226},
    {"star7/no-hash", 0xebbf7c3d4dee5af3ULL, 675.64571568895462, 11309, 1425},
    {"star7/force-nl", 0xc8fed525ef0df5e9ULL, 1952.6406954604777, 4321, 1624},
    {"star7/force-merge", 0x73263c4a0430117bULL, 5035.6342340383862, 3569, 781},
    {"star7/force-hash", 0xd36ee92eead55f14ULL, 8299.5183603987498, 1049, 378},
};

TEST(PlanIdentityTest, PlansMatchGoldens) {
  std::vector<std::pair<std::string, Golden>> actual = MeasureCorpus();
  const size_t n_goldens = sizeof(kGoldens) / sizeof(kGoldens[0]);
  std::string all;
  for (const auto& [name, g] : actual) all += Line(name, g) + "\n";
  ASSERT_EQ(actual.size(), n_goldens) << "corpus lines:\n" << all;
  for (size_t i = 0; i < n_goldens; ++i) {
    const auto& [name, g] = actual[i];
    const Golden& want = kGoldens[i];
    SCOPED_TRACE(Line(name, g));
    EXPECT_EQ(name, want.name);
    EXPECT_EQ(g.hash, want.hash);
    EXPECT_DOUBLE_EQ(g.cost, want.cost);
    EXPECT_EQ(g.generated, want.generated);
    EXPECT_EQ(g.stored, want.stored);
  }
}

}  // namespace
}  // namespace systemr
