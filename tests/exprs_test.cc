// Expression-subsystem edge cases (`ctest -L exprs`): scalar
// subqueries folded into predicates — including one over an empty
// input, where the scalar defaults to 0 (threshold semantics) — the
// left outer hash join's miss patch with zero probe matches and with
// an empty build side, substring value expressions over empty and
// short strings (Q22's shape), and CASE conditionals in projections
// and aggregate arguments (Q8's share shape). Every plan is asserted
// byte-identical between serial and staged parallel execution at 1, 2
// and 4 worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "storage/table.h"
#include "storage/table_fingerprint.h"

namespace ma::plan {
namespace {

using Out = ProjectOperator::Output;
using Agg = HashAggOperator::AggSpec;
using GK = HashAggOperator::GroupKey;

Agg MakeAgg(const char* fn, ExprPtr arg, const char* out_name) {
  Agg a;
  a.fn = fn;
  a.arg = std::move(arg);
  a.out_name = out_name;
  return a;
}

/// Serial result of `plan` (the reference the parity check compares
/// against; also used for content asserts).
std::unique_ptr<Table> RunSerial(const LogicalPlan& plan) {
  QuerySession session{SessionConfig{}};
  RunResult r = session.Run(plan, ExecMode::kSerial);
  return std::move(r.table);
}

/// Runs `plan` serially and through the staged executor at 1/2/4
/// worker threads; every staged table must equal the serial one byte
/// for byte (storage/table_fingerprint.h).
void ExpectStagedParity(const LogicalPlan& plan, u64 morsel_size = 2048) {
  ASSERT_TRUE(plan.ok()) << plan.status.message();
  QuerySession serial_session{SessionConfig{}};
  const RunResult ref = serial_session.Run(plan, ExecMode::kSerial);
  ASSERT_NE(ref.table, nullptr);
  const u64 ref_fp = ExactFingerprint(*ref.table);

  for (const int threads : {1, 2, 4}) {
    SessionConfig cfg;
    cfg.parallel.num_threads = threads;
    cfg.parallel.morsel_size = morsel_size;
    QuerySession session{cfg};
    const RunResult got = session.Run(plan, ExecMode::kParallel);
    ASSERT_TRUE(session.last_run_parallel()) << threads << " threads";
    EXPECT_EQ(got.rows_emitted, ref.rows_emitted) << threads << " threads";
    EXPECT_EQ(ExactFingerprint(*got.table), ref_fp)
        << "diverged at " << threads << " threads";
  }
}

/// (key, skey, v, s): key in [0, 100), v a signed f64, s a short
/// string with empty strings mixed in — dictionary-coded by skey (the
/// TPC-H pattern: the string is functionally dependent on its code).
std::unique_ptr<Table> MakeEvents(size_t rows) {
  Rng rng(42);
  auto t = std::make_unique<Table>("events");
  Column* key = t->AddColumn("key", PhysicalType::kI64);
  Column* skey = t->AddColumn("skey", PhysicalType::kI64);
  Column* v = t->AddColumn("v", PhysicalType::kF64);
  Column* s = t->AddColumn("s", PhysicalType::kStr);
  static const char* kTags[6] = {"", "a", "ab", "abcdef", "xy-123", "q"};
  for (size_t i = 0; i < rows; ++i) {
    const u64 si = rng.NextBounded(6);
    key->Append<i64>(static_cast<i64>(rng.NextBounded(100)));
    skey->Append<i64>(static_cast<i64>(si));
    v->Append<f64>(static_cast<f64>(rng.NextRange(-500, 500)) / 4.0);
    s->AppendString(kTags[si]);
  }
  t->set_row_count(rows);
  return t;
}

// ---------------------------------------------------------------------
// Scalar subqueries.
// ---------------------------------------------------------------------

TEST(ScalarSubqueryTest, KeyedSubqueryIsRejectedAtBuildTime) {
  auto t = MakeEvents(64);
  // A keyed aggregation can emit many rows — BindScalar rejects the
  // shape eagerly instead of aborting at run time.
  std::vector<Agg> sa;
  sa.push_back(MakeAgg("max", Col("v"), "m"));
  PlanBuilder sub = PlanBuilder::Scan(t.get(), {"key", "v"}, "sub/scan");
  sub.GroupBy({GK{"key", 7}}, {"key"}, std::move(sa), "sub/agg");
  PlanBuilder main = PlanBuilder::Scan(t.get(), {"v"}, "main/scan");
  main.BindScalar("thr", std::move(sub), "m");
  EXPECT_NE(main.status().message().find("must produce a single row"),
            std::string::npos);
}

TEST(ScalarSubqueryTest, EmptyScalarResultDefaultsToZero) {
  auto t = MakeEvents(6000);
  // The subquery's HAVING-style filter discards the aggregate's single
  // row: the zero-row scalar result defaults to 0 and the main filter
  // degenerates to v > 0.
  std::vector<Agg> sa;
  sa.push_back(MakeAgg("max", Col("v"), "m"));
  PlanBuilder sub = PlanBuilder::Scan(t.get(), {"key", "v"}, "sub/scan");
  sub.GroupBy({}, {}, std::move(sa), "sub/agg")
      .Filter(Gt(Col("m"), Lit(1e9)), "sub/none");

  LogicalPlan plan = PlanBuilder::Scan(t.get(), {"key", "v"}, "main/scan")
                         .BindScalar("thr", std::move(sub), "m")
                         .Filter(Gt(Col("v"), ScalarRef("thr")), "main/top")
                         .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  size_t positive = 0;
  const f64* v = t->FindColumn("v")->Data<f64>();
  for (size_t i = 0; i < t->row_count(); ++i) positive += v[i] > 0.0;
  auto result = RunSerial(plan);
  EXPECT_EQ(result->row_count(), positive);
  ExpectStagedParity(plan);
}

TEST(ScalarSubqueryTest, EmptyGlobalAggregateYieldsZeroThreshold) {
  auto t = MakeEvents(6000);
  // A *global* aggregate over an empty input still emits its one row
  // (sum = 0); both shapes land on the same 0 threshold.
  std::vector<Agg> sa;
  sa.push_back(MakeAgg("sum", Col("v"), "total"));
  PlanBuilder sub = PlanBuilder::Scan(t.get(), {"v"}, "sub/scan");
  sub.Filter(Gt(Col("v"), Lit(1e9)), "sub/none")
      .GroupBy({}, {}, std::move(sa), "sub/agg");

  LogicalPlan plan = PlanBuilder::Scan(t.get(), {"key", "v"}, "main/scan")
                         .BindScalar("thr", std::move(sub), "total")
                         .Filter(Gt(Col("v"), ScalarRef("thr")), "main/top")
                         .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  size_t positive = 0;
  const f64* v = t->FindColumn("v")->Data<f64>();
  for (size_t i = 0; i < t->row_count(); ++i) positive += v[i] > 0.0;
  auto result = RunSerial(plan);
  EXPECT_EQ(result->row_count(), positive);
  ExpectStagedParity(plan);
}

TEST(ScalarSubqueryTest, ThresholdFromAggregateFoldsIntoFilter) {
  auto t = MakeEvents(6000);
  // threshold = max(v) * 0.5, computed in a projection over the global
  // aggregate; only rows above it survive.
  std::vector<Agg> sa;
  sa.push_back(MakeAgg("max", Col("v"), "m"));
  PlanBuilder sub = PlanBuilder::Scan(t.get(), {"v"}, "sub/scan");
  sub.GroupBy({}, {}, std::move(sa), "sub/agg");
  std::vector<Out> th;
  th.push_back({"half_max", Mul(Col("m"), Lit(0.5))});
  sub.Project(std::move(th), "sub/half");

  LogicalPlan plan =
      PlanBuilder::Scan(t.get(), {"key", "v"}, "main/scan")
          .BindScalar("half_max", std::move(sub), "half_max")
          .Filter(Gt(Col("v"), ScalarRef("half_max")), "main/top")
          .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  const f64* v = t->FindColumn("v")->Data<f64>();
  f64 max_v = v[0];
  for (size_t i = 0; i < t->row_count(); ++i) max_v = std::max(max_v, v[i]);
  size_t expect = 0;
  for (size_t i = 0; i < t->row_count(); ++i) expect += v[i] > max_v * 0.5;
  auto result = RunSerial(plan);
  EXPECT_EQ(result->row_count(), expect);
  ExpectStagedParity(plan);
}

// ---------------------------------------------------------------------
// Left outer hash join.
// ---------------------------------------------------------------------

/// (k, c): one row per key in [lo, hi), c = k * 10.
std::unique_ptr<Table> MakeKeyed(i64 lo, i64 hi) {
  auto t = std::make_unique<Table>("keyed");
  Column* k = t->AddColumn("k", PhysicalType::kI64);
  Column* c = t->AddColumn("c", PhysicalType::kI64);
  for (i64 i = lo; i < hi; ++i) {
    k->Append<i64>(i);
    c->Append<i64>(i * 10);
  }
  t->set_row_count(static_cast<size_t>(hi - lo));
  return t;
}

TEST(LeftOuterJoinTest, ZeroProbeMatchesEmitAllDefaults) {
  auto probe = MakeKeyed(0, 5000);
  auto build = MakeKeyed(100000, 100010);  // disjoint key ranges
  HashJoinSpec lj;
  lj.build_key = "k";
  lj.probe_key = "k";
  lj.kind = HashJoinSpec::Kind::kLeftOuter;
  lj.build_outputs = {{"c", "bc"}};
  lj.probe_outputs = {"k"};
  LogicalPlan plan =
      PlanBuilder::Scan(probe.get(), {"k"}, "probe/scan")
          .HashJoin(PlanBuilder::Scan(build.get(), {"k", "c"},
                                      "build/scan"),
                    lj, "louter")
          .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  auto result = RunSerial(plan);
  ASSERT_EQ(result->row_count(), probe->row_count());
  const i64* bc = result->FindColumn("bc")->Data<i64>();
  const i64* k = result->FindColumn("k")->Data<i64>();
  for (size_t i = 0; i < result->row_count(); ++i) {
    EXPECT_EQ(bc[i], 0) << "row " << i;      // every probe row missed
    EXPECT_EQ(k[i], static_cast<i64>(i));    // probe order preserved
  }
  ExpectStagedParity(plan);
}

TEST(LeftOuterJoinTest, MixedMatchesAndMissesPatchDefaults) {
  auto probe = MakeKeyed(0, 5000);
  auto build = MakeKeyed(0, 2500);  // first half matches
  HashJoinSpec lj;
  lj.build_key = "k";
  lj.probe_key = "k";
  lj.kind = HashJoinSpec::Kind::kLeftOuter;
  lj.build_outputs = {{"c", "bc"}};
  lj.probe_outputs = {"k"};
  LogicalPlan plan =
      PlanBuilder::Scan(probe.get(), {"k"}, "probe/scan")
          .HashJoin(PlanBuilder::Scan(build.get(), {"k", "c"},
                                      "build/scan"),
                    lj, "louter")
          .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  auto result = RunSerial(plan);
  ASSERT_EQ(result->row_count(), probe->row_count());
  const i64* bc = result->FindColumn("bc")->Data<i64>();
  const i64* k = result->FindColumn("k")->Data<i64>();
  for (size_t i = 0; i < result->row_count(); ++i) {
    EXPECT_EQ(bc[i], k[i] < 2500 ? k[i] * 10 : 0) << "row " << i;
  }
  ExpectStagedParity(plan);
}

TEST(LeftOuterJoinTest, EmptyBuildSideStillTypesDefaults) {
  auto probe = MakeKeyed(0, 4000);
  auto build = MakeKeyed(0, 100);
  HashJoinSpec lj;
  lj.build_key = "k";
  lj.probe_key = "k";
  lj.kind = HashJoinSpec::Kind::kLeftOuter;
  lj.build_outputs = {{"c", "bc"}};
  lj.probe_outputs = {"k"};
  // The build-side filter keeps nothing: the join must still type its
  // output columns (declared build_output_types) and default every row.
  PlanBuilder b = PlanBuilder::Scan(build.get(), {"k", "c"}, "build/scan");
  b.Filter(Gt(Col("c"), Lit(i64{100000})), "build/none");
  LogicalPlan plan = PlanBuilder::Scan(probe.get(), {"k"}, "probe/scan")
                         .HashJoin(std::move(b), lj, "louter")
                         .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  auto result = RunSerial(plan);
  ASSERT_EQ(result->row_count(), probe->row_count());
  const Column* bc = result->FindColumn("bc");
  ASSERT_NE(bc, nullptr);
  ASSERT_EQ(bc->type(), PhysicalType::kI64);
  for (size_t i = 0; i < result->row_count(); ++i) {
    EXPECT_EQ(bc->Data<i64>()[i], 0);
  }
  ExpectStagedParity(plan);
}

// ---------------------------------------------------------------------
// Substring value expressions.
// ---------------------------------------------------------------------

TEST(SubstrExprTest, EmptyAndShortStringsClampSafely) {
  auto t = MakeEvents(6000);
  std::vector<Out> outs;
  outs.push_back({"s", Col("s")});
  outs.push_back({"head", Substr(Col("s"), 0, 2)});    // Q22's shape
  outs.push_back({"beyond", Substr(Col("s"), 4, 3)});  // starts past most
  LogicalPlan plan = PlanBuilder::Scan(t.get(), {"s"}, "scan")
                         .Project(std::move(outs), "sub")
                         .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  auto result = RunSerial(plan);
  ASSERT_EQ(result->row_count(), t->row_count());
  const StrRef* s = result->FindColumn("s")->Data<StrRef>();
  const StrRef* head = result->FindColumn("head")->Data<StrRef>();
  const StrRef* beyond = result->FindColumn("beyond")->Data<StrRef>();
  for (size_t i = 0; i < result->row_count(); ++i) {
    const std::string full(s[i].view());
    EXPECT_EQ(std::string(head[i].view()), full.substr(0, 2)) << i;
    EXPECT_EQ(std::string(beyond[i].view()),
              full.size() > 4 ? full.substr(4, 3) : "")
        << i;
  }
  ExpectStagedParity(plan);
}

TEST(SubstrExprTest, SubstringAsGroupOutputAndPredicateOperand) {
  auto t = MakeEvents(6000);
  // Filter on a substring predicate, group by the tag's dictionary
  // code with the substring as the decoded group output — the Q22
  // pattern end to end (c_cntrycode_code / substring(c_phone)).
  std::vector<Out> outs;
  outs.push_back({"skey", Col("skey")});
  outs.push_back({"v", Col("v")});
  outs.push_back({"tag2", Substr(Col("s"), 0, 2)});
  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("count", nullptr, "n"));
  aggs.push_back(MakeAgg("sum", Col("v"), "total"));
  LogicalPlan plan =
      PlanBuilder::Scan(t.get(), {"skey", "v", "s"}, "scan")
          .Filter(Expr::StrPred("prefix", Substr(Col("s"), 0, 1), "a"),
                  "pre")
          .Project(std::move(outs), "proj")
          .GroupBy({GK{"skey", 3}}, {"skey", "tag2"}, std::move(aggs),
                   "agg")
          .Sort({{"skey", false}})
          .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();
  ExpectStagedParity(plan);
}

// ---------------------------------------------------------------------
// CASE value expressions.
// ---------------------------------------------------------------------

TEST(CaseExprTest, ConditionalSumMatchesReference) {
  auto t = MakeEvents(6000);
  // sum(case when key in (3, 7) then v else 0) — the Q8 market-share
  // shape — alongside a case between two columns.
  std::vector<Out> outs;
  outs.push_back({"key", Col("key")});
  outs.push_back(
      {"in_share", Case(InI64("key", {3, 7}), Col("v"), Lit(0.0))});
  outs.push_back(
      {"clamped", Case(Lt(Col("v"), Lit(0.0)), Lit(0.0), Col("v"))});
  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("in_share"), "share"));
  aggs.push_back(MakeAgg("sum", Col("clamped"), "pos_sum"));
  LogicalPlan plan = PlanBuilder::Scan(t.get(), {"key", "v"}, "scan")
                         .Project(std::move(outs), "proj")
                         .GroupBy({}, {}, std::move(aggs), "agg")
                         .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  const i64* key = t->FindColumn("key")->Data<i64>();
  const f64* v = t->FindColumn("v")->Data<f64>();
  f64 share = 0, pos = 0;
  for (size_t i = 0; i < t->row_count(); ++i) {
    if (key[i] == 3 || key[i] == 7) share += v[i];
    if (v[i] >= 0.0) pos += v[i];
  }
  auto result = RunSerial(plan);
  ASSERT_EQ(result->row_count(), 1u);
  EXPECT_NEAR(result->FindColumn("share")->Data<f64>()[0], share,
              std::abs(share) * 1e-9 + 1e-9);
  EXPECT_NEAR(result->FindColumn("pos_sum")->Data<f64>()[0], pos,
              std::abs(pos) * 1e-9 + 1e-9);
  ExpectStagedParity(plan);
}

TEST(CaseExprTest, CaseOverScalarRefThreshold) {
  auto t = MakeEvents(6000);
  // CASE predicate referencing a plan scalar: above-average rows keep
  // their value, the rest contribute 0.
  std::vector<Agg> sa;
  sa.push_back(MakeAgg("avg", Col("v"), "avg_v"));
  PlanBuilder sub = PlanBuilder::Scan(t.get(), {"v"}, "sub/scan");
  sub.GroupBy({}, {}, std::move(sa), "sub/agg");

  std::vector<Out> outs;
  outs.push_back({"key", Col("key")});
  outs.push_back({"top_v", Case(Gt(Col("v"), ScalarRef("avg_v")),
                                Col("v"), Lit(0.0))});
  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("top_v"), "top_sum"));
  LogicalPlan plan = PlanBuilder::Scan(t.get(), {"key", "v"}, "scan")
                         .BindScalar("avg_v", std::move(sub), "avg_v")
                         .Project(std::move(outs), "proj")
                         .GroupBy({GK{"key", 7}}, {"key"},
                                  std::move(aggs), "agg")
                         .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();
  ExpectStagedParity(plan);
}

}  // namespace
}  // namespace ma::plan
