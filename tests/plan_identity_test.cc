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
// rewrite) and unchanged since.
const Golden kGoldens[] = {
    {"star/s1/q0", 0xc002902daf55e111ULL, 2.6945578231292515, 1, 1},
    {"star/s1/q1", 0xf286ce28e7e5b715ULL, 3.7999999986000006, 1, 1},
    {"star/s1/q2", 0xb11f02911af90957ULL, 1.0000000031999998, 1, 1},
    {"star/s1/q3", 0xb62282e1ce428d3cULL, 3.4333333333333331, 2, 2},
    {"star/s1/q4", 0x0d4c150d840f11a8ULL, 5.553333334764444, 71, 16},
    {"star/s1/q5", 0xbadbddb4d1b04689ULL, 0, 1, 1},
    {"star/s1/no-orders", 0xc6bf72c366e35e57ULL, 16.58122449302703, 32, 11},
    {"star/s1/no-heuristic", 0xe6c65bb3cb8e2f5eULL, 16.481224493027028, 102, 25},
    {"star/s1/no-hash", 0xe6c65bb3cb8e2f5eULL, 16.481224493027028, 61, 22},
    {"star/s1/force-nl", 0xe6c65bb3cb8e2f5eULL, 16.481224493027028, 29, 22},
    {"star/s1/force-merge", 0x3158e490006d3310ULL, 25.627891159693696, 37, 17},
    {"star/s1/force-hash", 0x182e6391059d5b25ULL, 23.794557829222587, 25, 16},
    {"snowflake/s2/q0", 0x7487433ce2f520faULL, 14, 1, 1},
    {"snowflake/s2/q1", 0xddc361fc13d3b289ULL, 1.3856481481481482, 1, 1},
    {"snowflake/s2/q2", 0xa6078e9f30ad381cULL, 3, 1, 1},
    {"snowflake/s2/q3", 0x51ae139b9cd67d90ULL, 12.599999999999998, 20, 6},
    {"snowflake/s2/q4", 0x612a76bace33e96eULL, 14.938461538461542, 20, 6},
    {"snowflake/s2/q5", 0x8257badecf52a0fcULL, 32.140989170303158, 80, 19},
    {"snowflake/s2/no-orders", 0x65bcfa5b419faec7ULL, 78.06509885691284, 50, 15},
    {"snowflake/s2/no-heuristic", 0x1ddc8d2f0ddf64a5ULL, 78.06509885691284, 156, 38},
    {"snowflake/s2/no-hash", 0x79d8d0253bff4f18ULL, 85.797177216171349, 97, 33},
    {"snowflake/s2/force-nl", 0x784bf39a33301069ULL, 102.57639362358624, 45, 34},
    {"snowflake/s2/force-merge", 0x938dbe9dd2b07f31ULL, 89.948904725949717, 61, 25},
    {"snowflake/s2/force-hash", 0x8374e806a997add0ULL, 100.09421058637211, 40, 24},
    {"chain/s3/q0", 0x1c82ca2982e07fc3ULL, 4.4666666666666677, 1, 1},
    {"chain/s3/q1", 0x9f52ea8f9aaaa2dbULL, 1.1000000046000002, 1, 1},
    {"chain/s3/q2", 0x833435e7cad206eeULL, 3.6692307692307695, 1, 1},
    {"chain/s3/q3", 0x5fbddd2fae15b6b6ULL, 5.1868131868131861, 25, 8},
    {"chain/s3/q4", 0xd6f950d237a4be92ULL, 2.311242603550296, 2, 2},
    {"chain/s3/q5", 0x06094a4ab61055b1ULL, 0.1000000046, 1, 1},
    {"chain/s3/no-orders", 0xd37860e17eed346cULL, 18.37418992185145, 15, 8},
    {"chain/s3/no-heuristic", 0x940422ccd53bae53ULL, 16.833953235460918, 31, 14},
    {"chain/s3/no-hash", 0x2158d4754e595d84ULL, 17.833953235460921, 26, 14},
    {"chain/s3/force-nl", 0x2158d4754e595d84ULL, 17.833953235460921, 16, 14},
    {"chain/s3/force-merge", 0xf7d8d8197fd43ac3ULL, 22.283969885477571, 21, 12},
    {"chain/s3/force-hash", 0x6327fb2d6580ae03ULL, 25.547140048647734, 16, 12},
    {"star/s4/q0", 0xc38370f798178e73ULL, 7.4000000000000004, 1, 1},
    {"star/s4/q1", 0x647267d63beda0fdULL, 10.200000000000001, 1, 1},
    {"star/s4/q2", 0xaf64cf7b96e13343ULL, 8.74209486166008, 20, 6},
    {"star/s4/q3", 0x6b1ccdf716eadd78ULL, 4.2000000000000002, 2, 2},
    {"star/s4/q4", 0x4e915770a546da6fULL, 2.3818840612384058, 49, 11},
    {"star/s4/q5", 0x6a3d009cae4fb90cULL, 1.8444444444444446, 1, 1},
    {"star/s4/no-orders", 0xa5a39a1ee6a02dc6ULL, 36.868423367342928, 41, 13},
    {"star/s4/no-heuristic", 0xe84c8696831decaaULL, 34.768423367342926, 91, 24},
    {"star/s4/no-hash", 0xe84c8696831decaaULL, 34.768423367342926, 59, 22},
    {"star/s4/force-nl", 0xe84c8696831decaaULL, 34.768423367342926, 29, 22},
    {"star/s4/force-merge", 0x10a3eed540f19952ULL, 39.473495831111045, 40, 19},
    {"star/s4/force-hash", 0x7fe4c8ceb6ce33e6ULL, 40.315590693105904, 27, 18},
    {"snowflake/s5/q0", 0x114af1cd579aa043ULL, 39.923076923076927, 71, 16},
    {"snowflake/s5/q1", 0x618221f78d5345d7ULL, 17.246153846153849, 20, 6},
    {"snowflake/s5/q2", 0x6f496b566576c94cULL, 4.7999999999999998, 1, 1},
    {"snowflake/s5/q3", 0x6d0634b984b09fd4ULL, 48.789230769230777, 80, 19},
    {"snowflake/s5/q4", 0x155a24562c6ead27ULL, 17.006923081533849, 71, 16},
    {"snowflake/s5/q5", 0xfa63e0d46da3853bULL, 2.3333333333333335, 1, 1},
    {"snowflake/s5/no-orders", 0x42ef9b7475dd3072ULL, 130.09871795332873, 93, 23},
    {"snowflake/s5/no-heuristic", 0x052d917c2441a90cULL, 130.09871795332873, 327, 69},
    {"snowflake/s5/no-hash", 0x0444983b6632e5afULL, 133.87256410567952, 190, 57},
    {"snowflake/s5/force-nl", 0xcf560c5b4a51cf24ULL, 171.26410258329335, 82, 59},
    {"snowflake/s5/force-merge", 0xbe01cb53743a376dULL, 143.58641025952568, 110, 41},
    {"snowflake/s5/force-hash", 0x2ebbb60c7de85da1ULL, 173.4225641031949, 69, 38},
    {"chain/s6/q0", 0x83e9dfab9aff4ab7ULL, 2.8666666666666671, 1, 1},
    {"chain/s6/q1", 0xbc8d65caec91b859ULL, 5.7666666666666666, 20, 6},
    {"chain/s6/q2", 0x17d68c6178ad50f7ULL, 10.541176470588235, 20, 6},
    {"chain/s6/q3", 0x61acf05dbb923087ULL, 7.9894314868804654, 1, 1},
    {"chain/s6/q4", 0x529ed6e0d5dd604aULL, 4.833333333333333, 1, 1},
    {"chain/s6/q5", 0x9551cdc985792012ULL, 9.5, 1, 1},
    {"chain/s6/no-orders", 0x2146d91e9640c323ULL, 46.46198050648831, 24, 10},
    {"chain/s6/no-heuristic", 0xd8c65fc39b242cf0ULL, 41.497274624135365, 44, 16},
    {"chain/s6/no-hash", 0x180f59c643673fdfULL, 46.597274624135366, 36, 16},
    {"chain/s6/force-nl", 0x180f59c643673fdfULL, 46.597274624135366, 20, 16},
    {"chain/s6/force-merge", 0xa920b93ff5bfe672ULL, 51.887470702566745, 28, 14},
    {"chain/s6/force-hash", 0x1dbfee8665a7dd45ULL, 60.416882467272622, 20, 14},
    {"star/s7/q0", 0xd46c65dfedfab6e5ULL, 1.11625, 1, 1},
    {"star/s7/q1", 0x54173bbe46d759b1ULL, 5.5218181818181833, 71, 16},
    {"star/s7/q2", 0x215066c7f0111c23ULL, 4.7000000000000002, 1, 1},
    {"star/s7/q3", 0x18355969d0109f10ULL, 2.5531250000000005, 1, 1},
    {"star/s7/q4", 0x0501bfc6d5f9e4f3ULL, 4.1000000000000005, 1, 1},
    {"star/s7/q5", 0x473c421157350d6eULL, 15.500000000000002, 20, 6},
    {"snowflake/s8/q0", 0xb4a7353635bdaae8ULL, 7, 20, 6},
    {"snowflake/s8/q1", 0x3c0d7a6270f6efc6ULL, 2.3333333333333335, 1, 1},
    {"snowflake/s8/q2", 0x6abff0c433c4c67aULL, 1, 2, 2},
    {"snowflake/s8/q3", 0xba1776744d9c3142ULL, 2.4666666666666668, 1, 1},
    {"snowflake/s8/q4", 0x780aa3d32305bb9dULL, 4.2110000000000003, 2, 2},
    {"snowflake/s8/q5", 0x720ab3be565e7993ULL, 2.0666666666666669, 1, 1},
    {"chain/s9/q0", 0x9cd861f38fb72983ULL, 7.5666666666666664, 71, 16},
    {"chain/s9/q1", 0x3203b57d427ac055ULL, 1.0000000114000001, 1, 1},
    {"chain/s9/q2", 0x9c4ed093121f661dULL, 4.8500000000000005, 1, 1},
    {"chain/s9/q3", 0xd51cf2b6cf8110a2ULL, 2.4666666666666668, 1, 1},
    {"chain/s9/q4", 0x623e44d8593c2a48ULL, 33.799999999999997, 20, 6},
    {"chain/s9/q5", 0x6c88753889f6f751ULL, 2.166666666666667, 1, 1},
    {"star/s10/q0", 0x0ad4c669198b63a6ULL, 3.7000000000000002, 20, 6},
    {"star/s10/q1", 0xdd30d3c230e8731eULL, 2.4000000000000004, 1, 1},
    {"star/s10/q2", 0x725da92c861f172cULL, 20.606250019656251, 88, 20},
    {"star/s10/q3", 0x92e1143a8f08a324ULL, 2.8333333333333335, 1, 1},
    {"star/s10/q4", 0xda167e6a9993cbdfULL, 8.3571428571428577, 20, 6},
    {"star/s10/q5", 0x6d449912f1ef158dULL, 2.1366666666666667, 1, 1},
    {"snowflake/s11/q0", 0x731a648715789b1cULL, 1.6750000133833334, 20, 6},
    {"snowflake/s11/q1", 0x7cca7b46958392b9ULL, 2.6454545454545451, 15, 4},
    {"snowflake/s11/q2", 0x70c34b2932596c20ULL, 3.2542229605922159, 20, 6},
    {"snowflake/s11/q3", 0x1d5f6f7cf4dea40eULL, 3.0075757575757578, 1, 1},
    {"snowflake/s11/q4", 0x9b9cd3c53880faa6ULL, 5.9786885245901651, 1, 1},
    {"snowflake/s11/q5", 0x8da15faf45437b0eULL, 1.0909091045545454, 15, 4},
    {"chain/s12/q0", 0x999f6ed509ea8b56ULL, 15.761904761904761, 20, 6},
    {"chain/s12/q1", 0x9d04f8f9e6c594edULL, 20.714285714285712, 20, 6},
    {"chain/s12/q2", 0x9f701664470fa658ULL, 3.9142857142857133, 20, 6},
    {"chain/s12/q3", 0x89b81a28ebe7d29eULL, 1, 2, 2},
    {"chain/s12/q4", 0xec7e9c3246aaecb2ULL, 1.6142857257142857, 20, 6},
    {"chain/s12/q5", 0xe7398f6363830692ULL, 4.8000000000000007, 1, 1},
    {"star/s13/q0", 0xcf70cf62a250d1fdULL, 0.97142857142857131, 1, 1},
    {"star/s13/q1", 0x1671a83afde07a94ULL, 2.6000000000000001, 1, 1},
    {"star/s13/q2", 0x3ac15bf323ac7b07ULL, 8.5061403508771907, 1, 1},
    {"star/s13/q3", 0xcb235cf79c84d8e8ULL, 6.5076923076923077, 20, 6},
    {"star/s13/q4", 0xcf36a38f7bc46c45ULL, 1.8698412696238094, 1, 1},
    {"star/s13/q5", 0x783357c925e5f069ULL, 4, 2, 2},
    {"snowflake/s14/q0", 0x6ff8e4e119151857ULL, 24.59375, 20, 6},
    {"snowflake/s14/q1", 0x72c6608e74bb3bfdULL, 11.1, 1, 1},
    {"snowflake/s14/q2", 0xc9e6dafa888301c1ULL, 11.070833333333335, 62, 14},
    {"snowflake/s14/q3", 0x8e727b9f48dd679bULL, 2.1222222222222227, 20, 6},
    {"snowflake/s14/q4", 0x997a2dc0be743d17ULL, 37.753124999999997, 71, 16},
    {"snowflake/s14/q5", 0x69482e366e335149ULL, 17.359375000140624, 20, 6},
    {"chain/s15/q0", 0x29ca3cb0ca20bed4ULL, 8.9729251744356446, 20, 6},
    {"chain/s15/q1", 0x47777cf1024a7389ULL, 1.8400000000000003, 20, 6},
    {"chain/s15/q2", 0x4517b895750b29c7ULL, 1.2999999999999998, 1, 1},
    {"chain/s15/q3", 0x5c9fa89321ec1cd9ULL, 1.8115599981489194, 1, 1},
    {"chain/s15/q4", 0x9322cf267718031fULL, 22.986666666666668, 20, 6},
    {"chain/s15/q5", 0x8d44855298f09da8ULL, 13.513333333333334, 20, 6},
    {"star/s16/q0", 0x9f311aaddb6261d7ULL, 2.736363639413637, 20, 6},
    {"star/s16/q1", 0x09fce9dc390d4573ULL, 12.90909090909091, 20, 6},
    {"star/s16/q2", 0x433132cf9f35ab1bULL, 1.2, 1, 1},
    {"star/s16/q3", 0x13eb103e333930e6ULL, 4.7272727272727284, 20, 6},
    {"star/s16/q4", 0x987b46bd4612e7e5ULL, 4.2095272727272732, 20, 6},
    {"star/s16/q5", 0xe44e72f929c58625ULL, 2.1848484848272731, 1, 1},
    {"snowflake/s17/q0", 0x102c65af9f869748ULL, 3.566666667866667, 20, 6},
    {"snowflake/s17/q1", 0x20ae4ffdac170b12ULL, 4.6000000000000005, 1, 1},
    {"snowflake/s17/q2", 0x0d657f8043a3d958ULL, 5.4000000000000004, 1, 1},
    {"snowflake/s17/q3", 0x1e175a4c58aeacd3ULL, 2.1111111111111112, 1, 1},
    {"snowflake/s17/q4", 0xa039b452b3599c7bULL, 4.1541666666666668, 1, 1},
    {"snowflake/s17/q5", 0xa53fa05cc88c657bULL, 5.4000000000000004, 1, 1},
    {"chain/s18/q0", 0x3b9e612fc037003dULL, 1.3702422145328723, 1, 1},
    {"chain/s18/q1", 0x95f75fa852fbd188ULL, 1.4480534178361251, 2, 2},
    {"chain/s18/q2", 0x0ab9d64c66656d44ULL, 2.9000000000000004, 1, 1},
    {"chain/s18/q3", 0x56c4702683fdbb50ULL, 3.2000000000000011, 1, 1},
    {"chain/s18/q4", 0x23a5e15ba8da7a76ULL, 2.882352941176471, 1, 1},
    {"chain/s18/q5", 0xbc4b10c5bd38d81cULL, 1.8352941176470587, 1, 1},
    {"star/s19/q0", 0xcabf70bec0b5b31dULL, 16.454761904761902, 20, 6},
    {"star/s19/q1", 0x93c453901925cbb4ULL, 5.6000000003000006, 1, 1},
    {"star/s19/q2", 0x1ae8da242336681fULL, 2.9499999993500001, 1, 1},
    {"star/s19/q3", 0x0914d3ab8c2ba1fdULL, 3.0659090909090909, 20, 6},
    {"star/s19/q4", 0xf73b7e5c7410aba4ULL, 5.3000000009000008, 1, 1},
    {"star/s19/q5", 0xe1348de5b2947e37ULL, 1, 2, 2},
    {"snowflake/s20/q0", 0xbec323e8347d8018ULL, 1.1000000000000001, 1, 1},
    {"snowflake/s20/q1", 0x82bcfad229ae0145ULL, 3.8000000000000003, 1, 1},
    {"snowflake/s20/q2", 0xa06eaf7a073e64f4ULL, 2.7333333333333334, 1, 1},
    {"snowflake/s20/q3", 0x10abebafc7a0e445ULL, 14.100000000000001, 1, 1},
    {"snowflake/s20/q4", 0x1bf8b0e8900720dbULL, 4, 2, 2},
    {"snowflake/s20/q5", 0xfde85ca6b272e1d1ULL, 21.300000000000004, 1, 1},
    {"chain/s21/q0", 0xddc25961e0e38700ULL, 4.2000000000000002, 1, 1},
    {"chain/s21/q1", 0xcb2155250f652b98ULL, 2.9000000000000004, 1, 1},
    {"chain/s21/q2", 0xbdf1b9b0bde88038ULL, 6.5999999999999996, 1, 1},
    {"chain/s21/q3", 0xa105a69e17557baaULL, 2.8372395840466149, 20, 6},
    {"chain/s21/q4", 0xa5695f1e69125e3fULL, 8.5, 1, 1},
    {"chain/s21/q5", 0x272f6dabd3d6beb9ULL, 1.3916666764666665, 20, 6},
    {"star/s22/q0", 0x205e2b79ab996634ULL, 3.4000000000000004, 2, 2},
    {"star/s22/q1", 0xa3916564147233d0ULL, 2.1000000018000002, 1, 1},
    {"star/s22/q2", 0x0bf230f48e087049ULL, 1.1000000000000001, 1, 1},
    {"star/s22/q3", 0xa781d7a093105a57ULL, 3.2000000000000002, 1, 1},
    {"star/s22/q4", 0xd8ef9d979a8e2849ULL, 4, 2, 2},
    {"star/s22/q5", 0xa0c4dfa16fb1f9ffULL, 7.1999999999999993, 16, 4},
    {"snowflake/s23/q0", 0x4243f5873595347cULL, 36.024999999999999, 71, 15},
    {"snowflake/s23/q1", 0x05842925797571d1ULL, 13.5, 2, 2},
    {"snowflake/s23/q2", 0x87d7ef540a0b87a7ULL, 4.0999999999999996, 1, 1},
    {"snowflake/s23/q3", 0xd2dfdf17e93b03eeULL, 2.0263157894736841, 20, 6},
    {"snowflake/s23/q4", 0x36772e7b4a6d3c93ULL, 15.25, 20, 6},
    {"snowflake/s23/q5", 0xa57775eec641f130ULL, 16.399999999999999, 20, 6},
    {"chain/s24/q0", 0x37c8ad45b1f085adULL, 4.548, 20, 6},
    {"chain/s24/q1", 0xb800c37511fdc02cULL, 2.100000001397436, 1, 1},
    {"chain/s24/q2", 0xca8c2dd105f29258ULL, 8.7471074380165312, 20, 6},
    {"chain/s24/q3", 0xd1470aee243d5a44ULL, 8.2999999999999989, 1, 1},
    {"chain/s24/q4", 0x0093d3ecc3718f94ULL, 2.1000000000000001, 1, 1},
    {"chain/s24/q5", 0x20cd7445b5aab8caULL, 12.398076926278849, 20, 6},
    {"star7/q0", 0x247bbbe3c5d8a882ULL, 25.699999999999999, 71, 15},
    {"star7/q1", 0x1a3e06e295d1475cULL, 32.322222222222223, 71, 15},
    {"star7/q2", 0x34aa00648ad4af51ULL, 38.261629629629631, 214, 34},
    {"star7/q3", 0xb1e6661ac9419dadULL, 47.214444444444446, 214, 34},
    {"star7/q4", 0xc304fe95c892eb23ULL, 58.69481560493827, 621, 77},
    {"star7/q5", 0x26b72a1740c4e6a1ULL, 68.952749629629636, 621, 77},
    {"star7/q6", 0x8ef71bf330500dd1ULL, 71.015042444115224, 1756, 176},
    {"star7/q7", 0xa630c9862056ae72ULL, 85.193042883950639, 1756, 176},
    {"star7/q8", 0x7aed0ca8e79f246fULL, 84.854099538172846, 4819, 403},
    {"star7/q9", 0x64322b1ea99057caULL, 103.26433595851852, 4819, 403},
    {"star7/q10", 0x4f7ed9d675a34fceULL, 49.173333333333332, 71, 15},
    {"star7/no-orders", 0x97ee477315b12d84ULL, 664.64571568895462, 2797, 294},
    {"star7/no-heuristic", 0xc98c607fdb12ddcaULL, 664.64571568895462, 25672, 2226},
    {"star7/no-hash", 0x1d281c79df112557ULL, 675.64571568895462, 11309, 1425},
    {"star7/force-nl", 0x16ad5039d338d8d9ULL, 1952.6406954604777, 4321, 1624},
    {"star7/force-merge", 0x665039490c242119ULL, 5035.6342340383862, 3569, 781},
    {"star7/force-hash", 0x213d8d64969fecf4ULL, 8299.5183603987498, 1049, 378},
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
