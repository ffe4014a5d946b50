// The logical-plan layer: builder schema validation, serial/parallel
// result parity for every node kind, stage-DAG fragmentation
// (structural asserts on stage kinds, dependency edges and
// materialization points for agg-feeding-join and merge-join plans),
// and the TPC-H acceptance property — Q1 and Q6 expressed once via
// PlanBuilder produce byte-identical tables under ExecMode::kSerial and
// ExecMode::kParallel at 1, 2 and 4 threads, with the parallel runs
// going through per-worker compiled pipelines (visible as one merged
// profile row per plan site with `instances` == thread count).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "plan/compiler.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "storage/table_fingerprint.h"
#include "tpch/dbgen.h"
#include "tpch/plans.h"

namespace ma::plan {
namespace {

/// Sugar for building move-only output lists inline:
/// Outs("a", Col("a"), "y", Mul(Col("x"), Lit(2.0))).
void AddOuts(std::vector<ProjectOperator::Output>&) {}
template <typename... Rest>
void AddOuts(std::vector<ProjectOperator::Output>& v, const char* name,
             ExprPtr expr, Rest&&... rest) {
  v.push_back({name, std::move(expr)});
  AddOuts(v, std::forward<Rest>(rest)...);
}
template <typename... Args>
std::vector<ProjectOperator::Output> Outs(Args&&... args) {
  std::vector<ProjectOperator::Output> v;
  AddOuts(v, std::forward<Args>(args)...);
  return v;
}

// ---------------------------------------------------------------------
// Helpers. (ExactFingerprint comes from storage/table_fingerprint.h.)
// ---------------------------------------------------------------------

/// Runs `plan` serially and in parallel at several thread counts and
/// expects byte-identical result tables throughout. Returns the serial
/// fingerprint.
u64 ExpectParity(const LogicalPlan& plan, u64 morsel_size = 2048) {
  SessionConfig cfg;
  cfg.parallel.num_threads = 1;
  QuerySession serial_session{cfg};
  const RunResult ref = serial_session.Run(plan, ExecMode::kSerial);
  EXPECT_FALSE(serial_session.last_run_parallel());
  const u64 ref_fp = ExactFingerprint(*ref.table);

  for (const int threads : {1, 2, 4}) {
    SessionConfig pcfg;
    pcfg.parallel.num_threads = threads;
    pcfg.parallel.morsel_size = morsel_size;
    QuerySession session{pcfg};
    const RunResult got = session.Run(plan, ExecMode::kParallel);
    EXPECT_TRUE(session.last_run_parallel()) << threads << " threads";
    EXPECT_EQ(got.rows_emitted, ref.rows_emitted) << threads << " threads";
    EXPECT_EQ(ExactFingerprint(*got.table), ref_fp)
        << threads << " threads";
  }
  return ref_fp;
}

std::unique_ptr<Table> MakeNumbersTable(size_t rows) {
  Rng rng(77);
  auto t = std::make_unique<Table>("numbers");
  Column* a = t->AddColumn("a", PhysicalType::kI64);
  Column* g = t->AddColumn("g", PhysicalType::kI64);
  Column* x = t->AddColumn("x", PhysicalType::kF64);
  Column* s = t->AddColumn("s", PhysicalType::kStr);
  static const char* kNames[8] = {"alpha", "bravo", "charlie", "delta",
                                  "echo",  "fox",   "golf",    "hotel"};
  for (size_t i = 0; i < rows; ++i) {
    const i64 gi = static_cast<i64>(rng.NextBounded(8));
    a->Append<i64>(static_cast<i64>(rng.NextBounded(1000)));
    g->Append<i64>(gi);
    x->Append<f64>(static_cast<f64>(rng.NextRange(-900, 900)) / 7.0);
    s->AppendString(kNames[gi]);  // functionally dependent on g
  }
  t->set_row_count(rows);
  return t;
}

// ---------------------------------------------------------------------
// Builder validation.
// ---------------------------------------------------------------------

TEST(PlanBuilderTest, ValidPlanBuildsWithSchema) {
  auto t = MakeNumbersTable(128);
  PlanBuilder b = PlanBuilder::Scan(t.get(), {"a", "x"});
  ASSERT_TRUE(b.status().ok()) << b.status().message();
  ASSERT_EQ(b.schema().size(), 2u);
  EXPECT_EQ(b.schema()[0].name, "a");
  EXPECT_EQ(b.schema()[0].type, PhysicalType::kI64);
  EXPECT_EQ(b.schema()[1].type, PhysicalType::kF64);
  b.Filter(Lt(Col("a"), Lit(100)))
      .Project(Outs("y", Mul(Col("x"), Lit(2.0))));
  ASSERT_TRUE(b.status().ok()) << b.status().message();
  ASSERT_EQ(b.schema().size(), 1u);
  EXPECT_EQ(b.schema()[0].name, "y");
  EXPECT_EQ(b.schema()[0].type, PhysicalType::kF64);
  const LogicalPlan plan = b.Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.Describe().find("project"), std::string::npos);
}

TEST(PlanBuilderTest, UnknownColumnsAreRejected) {
  auto t = MakeNumbersTable(16);
  // In the scan list.
  EXPECT_NE(PlanBuilder::Scan(t.get(), {"nope"})
                .status()
                .message()
                .find("unknown column"),
            std::string::npos);
  // In a filter predicate.
  PlanBuilder f = PlanBuilder::Scan(t.get());
  f.Filter(Lt(Col("nope"), Lit(1)));
  EXPECT_NE(f.status().message().find("unknown column 'nope'"),
            std::string::npos);
  // In a sort key; the error sticks through Build().
  PlanBuilder s = PlanBuilder::Scan(t.get());
  s.Sort({{"nope", false}});
  EXPECT_FALSE(s.status().ok());
  EXPECT_FALSE(s.Build().ok());
  // In a group key.
  PlanBuilder g = PlanBuilder::Scan(t.get());
  g.GroupBy({{"nope", 8}}, {}, {});
  EXPECT_NE(g.status().message().find("unknown column"),
            std::string::npos);
}

TEST(PlanBuilderTest, TypeErrorsAreRejected) {
  auto t = MakeNumbersTable(16);
  // i64 + f64 column mismatch.
  PlanBuilder m = PlanBuilder::Scan(t.get());
  m.Project(Outs("bad", Add(Col("a"), Col("x"))));
  EXPECT_NE(m.status().message().find("type mismatch"),
            std::string::npos);
  // Literal on the left of arithmetic (the evaluator would abort).
  PlanBuilder l = PlanBuilder::Scan(t.get());
  l.Project(Outs("bad", Add(Lit(1), Col("a"))));
  EXPECT_NE(l.status().message().find("must not be a constant"),
            std::string::npos);
  // String predicate over a numeric column.
  PlanBuilder sp = PlanBuilder::Scan(t.get());
  sp.Filter(StrEq("a", "alpha"));
  EXPECT_NE(sp.status().message().find("string predicate"),
            std::string::npos);
  // Group key must be i64.
  PlanBuilder g = PlanBuilder::Scan(t.get());
  g.GroupBy({{"x", 8}}, {}, {});
  EXPECT_NE(g.status().message().find("must be i64"), std::string::npos);
  // Group key widths must pack into 63 bits.
  PlanBuilder w = PlanBuilder::Scan(t.get());
  w.GroupBy({{"a", 40}, {"g", 40}}, {}, {});
  EXPECT_NE(w.status().message().find("exceed 63 bits"),
            std::string::npos);
  // A value expression is not a predicate.
  PlanBuilder p = PlanBuilder::Scan(t.get());
  p.Filter(Add(Col("a"), Lit(1)));
  EXPECT_NE(p.status().message().find("not a predicate"),
            std::string::npos);
}

TEST(PlanBuilderTest, HashJoinValidation) {
  auto t = MakeNumbersTable(16);
  HashJoinSpec spec;
  spec.build_key = "x";  // f64: not a join key
  spec.probe_key = "a";
  PlanBuilder b = PlanBuilder::Scan(t.get());
  b.HashJoin(PlanBuilder::Scan(t.get()), spec);
  EXPECT_NE(b.status().message().find("must be i64"), std::string::npos);

  HashJoinSpec semi;
  semi.build_key = "a";
  semi.probe_key = "a";
  semi.kind = HashJoinSpec::Kind::kSemi;
  semi.build_outputs = {{"x", "x"}};
  PlanBuilder s = PlanBuilder::Scan(t.get());
  s.HashJoin(PlanBuilder::Scan(t.get()), semi);
  EXPECT_NE(s.status().message().find("semi/anti"), std::string::npos);

  // Left outer joins emit probe then build outputs and declare the
  // build output types (the empty-build / miss-payload contract).
  HashJoinSpec louter;
  louter.build_key = "a";
  louter.probe_key = "a";
  louter.kind = HashJoinSpec::Kind::kLeftOuter;
  louter.build_outputs = {{"x", "bx"}};
  louter.probe_outputs = {"a"};
  PlanBuilder lo = PlanBuilder::Scan(t.get());
  lo.HashJoin(PlanBuilder::Scan(t.get()), louter);
  ASSERT_TRUE(lo.status().ok()) << lo.status().message();
  ASSERT_EQ(lo.schema().size(), 2u);
  EXPECT_EQ(lo.schema()[0].name, "a");
  EXPECT_EQ(lo.schema()[1].name, "bx");
  EXPECT_EQ(lo.schema()[1].type, PhysicalType::kF64);
}

TEST(PlanBuilderTest, ScalarBindingValidation) {
  auto t = MakeNumbersTable(16);
  // Unbound scalar refs are rejected.
  PlanBuilder u = PlanBuilder::Scan(t.get());
  u.Filter(Gt(Col("x"), ScalarRef("nope")));
  EXPECT_NE(u.status().message().find("unknown scalar"),
            std::string::npos);

  // A bound scalar type-checks and flows into predicates; duplicates
  // are rejected.
  auto sub = [&t]() {
    std::vector<HashAggOperator::AggSpec> aggs;
    HashAggOperator::AggSpec a;
    a.fn = "max";
    a.arg = Col("x");
    a.out_name = "m";
    aggs.push_back(std::move(a));
    PlanBuilder s = PlanBuilder::Scan(t.get(), {"x"});
    s.GroupBy({}, {}, std::move(aggs));
    return s;
  };
  PlanBuilder b = PlanBuilder::Scan(t.get());
  b.BindScalar("m", sub(), "m");
  ASSERT_TRUE(b.status().ok()) << b.status().message();
  b.BindScalar("m", sub(), "m");
  EXPECT_NE(b.status().message().find("duplicate scalar"),
            std::string::npos);

  // Scalars must be numeric (i64/f64).
  PlanBuilder one_str = PlanBuilder::Scan(t.get(), {"s"});
  one_str.Limit(1);
  PlanBuilder str_scalar = PlanBuilder::Scan(t.get());
  str_scalar.BindScalar("s", std::move(one_str), "s");
  EXPECT_NE(str_scalar.status().message().find("must be i64 or f64"),
            std::string::npos);

  // Shapes that may emit more than one row are rejected eagerly.
  PlanBuilder multi = PlanBuilder::Scan(t.get());
  multi.BindScalar("m2", PlanBuilder::Scan(t.get(), {"a"}), "a");
  EXPECT_NE(multi.status().message().find("must produce a single row"),
            std::string::npos);

  // A scalar ref on the left of a comparison is rejected like a
  // literal would be.
  PlanBuilder l = PlanBuilder::Scan(t.get());
  l.BindScalar("m", sub(), "m");
  l.Filter(Gt(ScalarRef("m"), Col("x")));
  EXPECT_NE(l.status().message().find("must not be a constant"),
            std::string::npos);
}

TEST(PlanBuilderTest, CaseAndSubstrValidation) {
  auto t = MakeNumbersTable(16);
  // Case branches must agree in type.
  PlanBuilder c = PlanBuilder::Scan(t.get());
  c.Project(Outs("bad", Case(Lt(Col("a"), Lit(1)), Col("a"), Col("x"))));
  EXPECT_NE(c.status().message().find("case branches disagree"),
            std::string::npos);
  // A literal branch coerces to the column branch's type.
  PlanBuilder ok = PlanBuilder::Scan(t.get());
  ok.Project(Outs("v", Case(Lt(Col("a"), Lit(1)), Col("x"), Lit(0.0))));
  ASSERT_TRUE(ok.status().ok()) << ok.status().message();
  EXPECT_EQ(ok.schema()[0].type, PhysicalType::kF64);
  // A string literal cannot masquerade as a numeric case branch (the
  // evaluator would silently fill 0).
  PlanBuilder sl = PlanBuilder::Scan(t.get());
  sl.Project(Outs("bad", Case(Lt(Col("a"), Lit(1)), Lit("hot"),
                              Col("x"))));
  EXPECT_NE(sl.status().message().find("case branches disagree"),
            std::string::npos);
  // ...nor a comparison constant (same silent-zero hazard).
  PlanBuilder sc = PlanBuilder::Scan(t.get());
  sc.Filter(Eq(Col("a"), Lit("ten")));
  EXPECT_NE(sc.status().message().find("type mismatch"),
            std::string::npos);
  // Substring requires a string source and produces a string.
  PlanBuilder bad = PlanBuilder::Scan(t.get());
  bad.Project(Outs("bad", Substr(Col("a"), 0, 2)));
  EXPECT_NE(bad.status().message().find("substring over non-string"),
            std::string::npos);
  // A literal substring source is rejected eagerly (the evaluator
  // requires a vector operand and would abort).
  PlanBuilder lit = PlanBuilder::Scan(t.get());
  lit.Project(Outs("bad", Substr(Lit("abcdef"), 0, 2)));
  EXPECT_NE(lit.status().message().find(
                "substring source must be a column"),
            std::string::npos);
  PlanBuilder good = PlanBuilder::Scan(t.get());
  good.Project(Outs("tag", Substr(Col("s"), 0, 2)));
  ASSERT_TRUE(good.status().ok()) << good.status().message();
  EXPECT_EQ(good.schema()[0].type, PhysicalType::kStr);
}

// ---------------------------------------------------------------------
// Serial/parallel parity per node kind.
// ---------------------------------------------------------------------

TEST(PlanParityTest, ScanOnly) {
  auto t = MakeNumbersTable(20 * 1024);
  ExpectParity(PlanBuilder::Scan(t.get(), {"a", "x"}).Build());
}

TEST(PlanParityTest, FilterAndProject) {
  auto t = MakeNumbersTable(20 * 1024);
  ExpectParity(
      PlanBuilder::Scan(t.get(), {"a", "x"})
          .Filter(Lt(Col("a"), Lit(400)))
          .Project(Outs("a", Col("a"), "y", Mul(Col("x"), Lit(3.0))))
          .Build());
}

HashJoinSpec InnerSpec() {
  HashJoinSpec spec;
  spec.build_key = "a";
  spec.probe_key = "a";
  spec.build_outputs = {{"x", "bx"}};
  spec.probe_outputs = {"a", "g"};
  return spec;
}

TEST(PlanParityTest, InnerHashJoin) {
  auto probe = MakeNumbersTable(16 * 1024);
  auto build = MakeNumbersTable(2000);
  PlanBuilder build_side = PlanBuilder::Scan(build.get(), {"a", "x"});
  build_side.Filter(Lt(Col("a"), Lit(500)));
  ExpectParity(PlanBuilder::Scan(probe.get(), {"a", "g"})
                   .HashJoin(std::move(build_side), InnerSpec())
                   .Build());
}

TEST(PlanParityTest, SemiHashJoinWithBloom) {
  auto probe = MakeNumbersTable(16 * 1024);
  auto build = MakeNumbersTable(512);
  HashJoinSpec spec;
  spec.build_key = "a";
  spec.probe_key = "a";
  spec.kind = HashJoinSpec::Kind::kSemi;
  spec.use_bloom = true;
  PlanBuilder build_side = PlanBuilder::Scan(build.get(), {"a"});
  build_side.Filter(Lt(Col("a"), Lit(300)));
  ExpectParity(PlanBuilder::Scan(probe.get(), {"a", "x"})
                   .HashJoin(std::move(build_side), spec)
                   .Build());
}

TEST(PlanParityTest, GroupByWithStringOutputsAndF64Sums) {
  auto t = MakeNumbersTable(30 * 1024);
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("x");
    a.out_name = "sum_x";
    aggs.push_back(std::move(a));
  }
  {
    HashAggOperator::AggSpec a;
    a.fn = "avg";
    a.arg = Col("x");
    a.out_name = "avg_x";
    aggs.push_back(std::move(a));
  }
  {
    HashAggOperator::AggSpec a;
    a.fn = "min";
    a.arg = Col("a");
    a.out_name = "min_a";
    aggs.push_back(std::move(a));
  }
  {
    HashAggOperator::AggSpec a;
    a.fn = "count";
    a.out_name = "cnt";
    aggs.push_back(std::move(a));
  }
  // The f64 sums make this the hard case: per-thread partial sums are
  // merged, and only the fixed-point accumulator keeps the result
  // bit-identical across thread counts — and identical to serial.
  ExpectParity(PlanBuilder::Scan(t.get(), {"g", "s", "a", "x"})
                   .GroupBy({{"g", 4}}, {"g", "s"}, std::move(aggs))
                   .Sort({{"g", false}})
                   .Build());
}

TEST(PlanParityTest, GroupByWithoutSortEmitsKeyOrderBothWays) {
  // Groups are first seen in descending key order, so serial
  // insertion-order emission would come out reversed relative to the
  // parallel merge's packed-key order. The plan contract instead pins
  // both executors to key order — byte identity needs no Sort node.
  constexpr size_t kRows = 16 * 1024;
  auto t = std::make_unique<Table>("desc");
  Column* g = t->AddColumn("g", PhysicalType::kI64);
  Column* v = t->AddColumn("v", PhysicalType::kI64);
  for (size_t i = 0; i < kRows; ++i) {
    g->Append<i64>(7 - static_cast<i64>(i * 8 / kRows));  // 7,7,...,0
    v->Append<i64>(static_cast<i64>(i % 13));
  }
  t->set_row_count(kRows);
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("v");
    a.out_name = "sum_v";
    aggs.push_back(std::move(a));
  }
  ExpectParity(PlanBuilder::Scan(t.get(), {"g", "v"})
                   .GroupBy({{"g", 4}}, {"g"}, std::move(aggs))
                   .Build());
}

TEST(PlanParityTest, DistinctIsAGroupByWithoutAggregates) {
  // Keys and no aggregates: one row per distinct (g, a). The outputs
  // name the keys out of key order and add a captured string, so the
  // decoded key columns and the first-seen column must line up.
  auto t = MakeNumbersTable(30 * 1024);
  const LogicalPlan plan = PlanBuilder::Scan(t.get(), {"a", "g", "s"})
                               .GroupBy({{"g", 4}, {"a", 10}},
                                        {"a", "s", "g"}, {}, "distinct")
                               .Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();
  ExpectParity(plan);

  QuerySession session{SessionConfig{}};
  const RunResult r = session.Run(plan, ExecMode::kSerial);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_EQ(r.table->num_columns(), 3u);
  std::set<std::pair<i64, i64>> want;
  for (size_t i = 0; i < t->row_count(); ++i) {
    want.insert({t->FindColumn("g")->Data<i64>()[i],
                 t->FindColumn("a")->Data<i64>()[i]});
  }
  ASSERT_EQ(r.table->row_count(), want.size());
  static const char* kNames[8] = {"alpha", "bravo", "charlie", "delta",
                                  "echo",  "fox",   "golf",    "hotel"};
  size_t row = 0;
  for (const auto& [g, a] : want) {  // ascending (g, a): packed-key order
    EXPECT_EQ(r.table->FindColumn("g")->Data<i64>()[row], g);
    EXPECT_EQ(r.table->FindColumn("a")->Data<i64>()[row], a);
    EXPECT_EQ(r.table->FindColumn("s")->Data<StrRef>()[row].view(), kNames[g]);
    ++row;
  }
}

TEST(PlanBuilderTest, KeylessGroupByNeedsAggregatesAndNoOutputs) {
  // Neither a key nor an aggregate defines no row, and a key-less
  // GroupBy has no key to decode a group output from: the builder
  // rejects both, and running the plan returns the typed error on both
  // paths — over an empty input too, where the one global row would
  // lack the group output.
  auto t = MakeNumbersTable(0);
  for (const bool with_sum : {false, true}) {
    for (const std::vector<std::string>& outputs :
         {std::vector<std::string>{}, std::vector<std::string>{"g"}}) {
      if (with_sum && outputs.empty()) continue;  // a global aggregate
      std::vector<HashAggOperator::AggSpec> aggs;
      if (with_sum) {
        HashAggOperator::AggSpec a;
        a.fn = "sum";
        a.arg = Col("x");
        a.out_name = "sum_x";
        aggs.push_back(std::move(a));
      }
      const LogicalPlan plan = PlanBuilder::Scan(t.get(), {"g", "x"})
                                   .GroupBy({}, outputs, std::move(aggs))
                                   .Build();
      EXPECT_FALSE(plan.ok());
      EXPECT_EQ(plan.status.code(), StatusCode::kInvalidArgument);
      for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
        QuerySession session{SessionConfig{}};
        const RunResult r = session.Run(plan, mode);
        EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(r.table, nullptr);
      }
    }
  }
}

TEST(PlanParityTest, SortLimitAndBareLimit) {
  auto t = MakeNumbersTable(12 * 1024);
  ExpectParity(PlanBuilder::Scan(t.get(), {"a", "x"})
                   .Sort({{"a", true}, {"x", false}}, 100)
                   .Build());
  ExpectParity(
      PlanBuilder::Scan(t.get(), {"a"}).Limit(777).Build());
}

TEST(PlanParityTest, I8SortKeysAndPayloadsSortAlikeEveryWay) {
  // Serial Sort and the staged sort stage (parallel TopN from 4096 rows
  // with a limit, else SortOperator) share one order and one gather, so
  // i8 keys and payloads sort and come out the same in every mode.
  for (const size_t rows : {size_t{100000}, size_t{1000}}) {
    Rng rng(2024);
    Table t("i8s");
    Column* k = t.AddColumn("k", PhysicalType::kI64);
    Column* b = t.AddColumn("b", PhysicalType::kI8);
    Column* c = t.AddColumn("c", PhysicalType::kI8);
    for (size_t i = 0; i < rows; ++i) {
      k->Append<i64>(static_cast<i64>(rng.NextBounded(rows / 4)));
      b->Append<i8>(static_cast<i8>(rng.NextRange(-128, 127)));
      c->Append<i8>(static_cast<i8>(rng.NextRange(-5, 5)));
    }
    t.set_row_count(rows);
    const std::vector<std::vector<SortKey>> key_sets = {
        {{"k"}}, {{"c", true}, {"k"}}};
    for (const std::vector<SortKey>& keys : key_sets) {
      for (const size_t limit : {size_t{10}, size_t{0}}) {
        SCOPED_TRACE(std::to_string(rows) + " rows, " + keys[0].column +
                     " first, limit " + std::to_string(limit));
        const LogicalPlan plan =
            PlanBuilder::Scan(&t).Sort(keys, limit).Build();
        ASSERT_TRUE(plan.ok()) << plan.status.ToString();
        QuerySession serial_session{SessionConfig{}};
        const RunResult ref = serial_session.Run(plan, ExecMode::kSerial);
        ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
        ASSERT_EQ(ref.table->row_count(), limit > 0 ? limit : rows);
        const Column* rk = ref.table->FindColumn("k");
        const Column* rc = ref.table->FindColumn("c");
        for (size_t i = 1; i < ref.table->row_count(); ++i) {
          const i8 c0 = rc->Get<i8>(i - 1);
          const i8 c1 = rc->Get<i8>(i);
          if (keys[0].column == "c" && c0 != c1) {
            ASSERT_GT(c0, c1) << "row " << i;
          } else {
            ASSERT_LE(rk->Get<i64>(i - 1), rk->Get<i64>(i)) << "row " << i;
          }
        }
        const u64 ref_fp = ExactFingerprint(*ref.table);
        for (const int threads : {1, 2, 4}) {
          SessionConfig cfg;
          cfg.parallel.num_threads = threads;
          cfg.parallel.morsel_size = 4096;
          QuerySession session{cfg};
          const RunResult got = session.Run(plan, ExecMode::kParallel);
          ASSERT_TRUE(got.status.ok())
              << threads << " threads: " << got.status.ToString();
          EXPECT_TRUE(session.last_run_parallel()) << threads << " threads";
          EXPECT_EQ(ExactFingerprint(*got.table), ref_fp)
              << threads << " threads";
        }
      }
    }
  }
}

TEST(PlanParityTest, JoinFeedingAggregationWithHavingTail) {
  auto probe = MakeNumbersTable(24 * 1024);
  auto build = MakeNumbersTable(1024);
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("bx");
    a.out_name = "sum_bx";
    aggs.push_back(std::move(a));
  }
  {
    HashAggOperator::AggSpec a;
    a.fn = "count";
    a.out_name = "cnt";
    aggs.push_back(std::move(a));
  }
  ExpectParity(PlanBuilder::Scan(probe.get(), {"a", "g"})
                   .HashJoin(PlanBuilder::Scan(build.get(), {"a", "x"}),
                             InnerSpec())
                   .GroupBy({{"g", 4}}, {"g"}, std::move(aggs))
                   .Filter(Gt(Col("cnt"), Lit(0)))  // HAVING: pipeline stage
                   .Sort({{"g", false}})
                   .Build());
}

// ---------------------------------------------------------------------
// Stage-DAG fragmentation.
// ---------------------------------------------------------------------

TEST(PlanFragmentTest, JoinAggSortSplitsIntoStages) {
  auto probe = MakeNumbersTable(4096);
  auto b1 = MakeNumbersTable(256);
  auto b2 = MakeNumbersTable(256);
  auto b3 = MakeNumbersTable(128);

  // Build side of the second join itself probes a third build — the
  // nested phase must come out *before* the phase that probes it.
  HashJoinSpec nested;
  nested.build_key = "a";
  nested.probe_key = "a";
  nested.kind = HashJoinSpec::Kind::kSemi;
  PlanBuilder build2 = PlanBuilder::Scan(b2.get(), {"a", "x"});
  build2.HashJoin(PlanBuilder::Scan(b3.get(), {"a"}), nested);

  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "count";
    a.out_name = "cnt";
    aggs.push_back(std::move(a));
  }
  HashJoinSpec j2 = InnerSpec();
  j2.build_outputs = {{"x", "b2x"}};
  j2.probe_outputs = {"a", "g"};
  PlanBuilder main = PlanBuilder::Scan(probe.get(), {"a", "g"});
  main.HashJoin(PlanBuilder::Scan(b1.get(), {"a", "x"}), InnerSpec())
      .HashJoin(std::move(build2), j2)
      .GroupBy({{"g", 4}}, {"g"}, std::move(aggs))
      .Sort({{"g", false}});
  const LogicalPlan plan = main.Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  StagePlan sp;
  const Status s = Compiler::BuildStagePlan(plan, &sp);
  ASSERT_TRUE(s.ok()) << s.message();

  // sort -> group_by -> join2 -> join1 -> scan along the spine.
  const PlanNode* sort = plan.root.get();
  const PlanNode* agg = sort->children[0].get();
  const PlanNode* join2 = agg->children[0].get();
  const PlanNode* join1 = join2->children[1].get();
  const PlanNode* spine_scan = join1->children[1].get();
  const PlanNode* nested_join = join2->children[0].get();
  ASSERT_EQ(nested_join->kind, NodeKind::kHashJoin);

  // Three join-build stages in dependency order, the aggregation stage
  // over the spine pipeline, then the sort stage producing the result.
  ASSERT_EQ(sp.stages.size(), 5u) << sp.Describe();
  EXPECT_EQ(sp.stages[0].kind, Stage::Kind::kJoinBuild);
  EXPECT_EQ(sp.stages[0].join, nested_join);  // dependency first
  EXPECT_EQ(sp.stages[1].join, join2);
  ASSERT_EQ(sp.stages[1].deps.size(), 1u);
  EXPECT_EQ(sp.stages[1].deps[0], 0);  // probes the nested build
  EXPECT_EQ(sp.stages[2].join, join1);
  const Stage& aggregate = sp.stages[3];
  EXPECT_EQ(aggregate.kind, Stage::Kind::kAggregate);
  EXPECT_EQ(aggregate.agg, agg);
  EXPECT_EQ(aggregate.root, join2);
  EXPECT_EQ(aggregate.input.scan, spine_scan);
  EXPECT_TRUE(aggregate.materialize);
  EXPECT_EQ(aggregate.deps, (std::vector<int>{1, 2}));
  const Stage& last = sp.stages[4];
  EXPECT_EQ(last.kind, Stage::Kind::kSort);
  EXPECT_EQ(last.input.stage, 3);
  EXPECT_EQ(last.sort_keys.size(), sort->sort_keys.size());
  EXPECT_EQ(last.limit, sort->limit);
  EXPECT_FALSE(last.materialize);
  EXPECT_EQ(last.deps, (std::vector<int>{3}));

  // The parity machinery also runs this shape (small tables, so force
  // the parallel mode).
  ExpectParity(plan, /*morsel_size=*/512);
}

/// The acceptance-criteria shape: an aggregation feeding a hash join
/// compiles to dependent stages, the aggregate materializing into an
/// intermediate that the final pipeline scans.
TEST(PlanFragmentTest, AggFeedingJoinMaterializesIntermediate) {
  auto t = MakeNumbersTable(8192);
  auto dim = MakeNumbersTable(64);

  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("x");
    a.out_name = "sum_x";
    aggs.push_back(std::move(a));
  }
  HashJoinSpec spec;
  spec.build_key = "g";
  spec.probe_key = "g";
  spec.build_outputs = {{"x", "dim_x"}};
  spec.probe_outputs = {"g", "sum_x"};
  PlanBuilder b = PlanBuilder::Scan(t.get(), {"g", "x"});
  b.GroupBy({{"g", 4}}, {"g"}, std::move(aggs))
      .HashJoin(PlanBuilder::Scan(dim.get(), {"g", "x"}), spec)
      .Sort({{"g", false}});
  const LogicalPlan plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  const PlanNode* join = plan.root->children[0].get();
  ASSERT_EQ(join->kind, NodeKind::kHashJoin);
  const PlanNode* agg = join->children[1].get();
  ASSERT_EQ(agg->kind, NodeKind::kGroupBy);

  // The dimension build comes first, then the aggregate stage
  // materializes, the join pipeline scans that intermediate while
  // probing the build, and the sort over its output is the last stage.
  ASSERT_EQ(sp.stages.size(), 4u) << sp.Describe();
  EXPECT_EQ(sp.stages[0].kind, Stage::Kind::kJoinBuild);
  EXPECT_EQ(sp.stages[0].join, join);
  EXPECT_EQ(sp.stages[1].kind, Stage::Kind::kAggregate);
  EXPECT_EQ(sp.stages[1].agg, agg);
  EXPECT_TRUE(sp.stages[1].materialize);
  ASSERT_EQ(sp.stages[1].out_schema.size(), 2u);
  EXPECT_EQ(sp.stages[1].out_schema[0].name, "g");
  EXPECT_EQ(sp.stages[1].out_schema[1].name, "sum_x");
  const Stage& probe = sp.stages[2];
  EXPECT_EQ(probe.kind, Stage::Kind::kPipeline);
  EXPECT_TRUE(probe.input.from_stage());
  EXPECT_EQ(probe.input.stage, 1);  // scans the materialized aggregate
  EXPECT_EQ(probe.stop, agg);
  EXPECT_TRUE(probe.materialize);
  EXPECT_EQ(probe.deps, (std::vector<int>{0, 1}));
  const Stage& last = sp.stages[3];
  EXPECT_EQ(last.kind, Stage::Kind::kSort);
  EXPECT_EQ(last.input.stage, 2);
  EXPECT_FALSE(last.materialize);

  ExpectParity(plan, /*morsel_size=*/512);
}

TEST(PlanFragmentTest, FilterAboveAggregateIsLastPipelineStage) {
  auto t = MakeNumbersTable(8192);
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "count";
    a.out_name = "cnt";
    aggs.push_back(std::move(a));
  }
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"g", Col("g")});
  outs.push_back({"twice", Mul(Col("cnt"), Lit(2))});
  PlanBuilder b = PlanBuilder::Scan(t.get(), {"g", "x"});
  b.GroupBy({{"g", 4}}, {"g"}, std::move(aggs))
      .Filter(Gt(Col("cnt"), Lit(1000)))
      .Project(std::move(outs));
  const LogicalPlan plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();
  const PlanNode* agg = plan.root->children[0]->children[0].get();
  ASSERT_EQ(agg->kind, NodeKind::kGroupBy);

  // The HAVING filter and the projection above the aggregation form
  // one pipeline stage that scans the aggregate's intermediate.
  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  ASSERT_EQ(sp.stages.size(), 2u) << sp.Describe();
  EXPECT_EQ(sp.stages[0].kind, Stage::Kind::kAggregate);
  EXPECT_TRUE(sp.stages[0].materialize);
  const Stage& last = sp.stages[1];
  EXPECT_EQ(last.kind, Stage::Kind::kPipeline);
  EXPECT_EQ(last.root, plan.root.get());
  EXPECT_EQ(last.stop, agg);
  EXPECT_EQ(last.input.stage, 0);
  EXPECT_FALSE(last.materialize);

  ExpectParity(plan, /*morsel_size=*/512);
}

TEST(PlanFragmentTest, MergeJoinOverBaseScansIsOneStage) {
  // Two tables sorted ascending on k; left keys unique.
  auto left = std::make_unique<Table>("left");
  Column* lk = left->AddColumn("k", PhysicalType::kI64);
  Column* lv = left->AddColumn("lv", PhysicalType::kI64);
  for (i64 i = 0; i < 500; ++i) {
    lk->Append<i64>(i);
    lv->Append<i64>(i * 10);
  }
  left->set_row_count(500);
  auto right = std::make_unique<Table>("right");
  Column* rk = right->AddColumn("k", PhysicalType::kI64);
  Column* rv = right->AddColumn("rv", PhysicalType::kI64);
  for (i64 i = 0; i < 2000; ++i) {
    rk->Append<i64>(i / 4);  // duplicates, still ascending
    rv->Append<i64>(i);
  }
  right->set_row_count(2000);

  MergeJoinSpec spec;
  spec.left_key = "k";
  spec.right_key = "k";
  spec.left_outputs = {{"lv", "lv"}};
  spec.right_outputs = {{"rv", "rv"}};
  PlanBuilder b = PlanBuilder::Scan(left.get());
  b.MergeJoin(PlanBuilder::Scan(right.get()), spec);
  const LogicalPlan plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  // Both inputs are base scans, read directly by the one merge stage
  // (the merge operator checks their key order while it drains them).
  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  ASSERT_EQ(sp.stages.size(), 1u) << sp.Describe();
  const Stage& merge = sp.stages[0];
  EXPECT_EQ(merge.kind, Stage::Kind::kMergeJoin);
  EXPECT_FALSE(merge.input.from_stage());
  EXPECT_FALSE(merge.right.from_stage());
  EXPECT_EQ(merge.input.scan->table, left.get());
  EXPECT_EQ(merge.right.scan->table, right.get());
  EXPECT_TRUE(merge.deps.empty());
  EXPECT_FALSE(merge.materialize);

  // kParallel now runs the staged path — byte-identical to serial.
  QuerySession session{SessionConfig()};
  const RunResult serial = session.Run(plan, ExecMode::kSerial);
  EXPECT_EQ(serial.rows_emitted, 2000u);
  const RunResult staged = session.Run(plan, ExecMode::kParallel);
  EXPECT_TRUE(session.last_run_parallel());
  EXPECT_EQ(ExactFingerprint(*staged.table),
            ExactFingerprint(*serial.table));
}

TEST(PlanFragmentTest, MergeJoinOverExplicitSortIsTwoStages) {
  // The right side arrives unsorted, and the plan says so with an
  // explicit Sort node on the join key. Both executors lower the same
  // Sort — serial and staged results stay byte-identical.
  auto left = std::make_unique<Table>("left");
  Column* lk = left->AddColumn("k", PhysicalType::kI64);
  Column* lv = left->AddColumn("lv", PhysicalType::kI64);
  for (i64 i = 0; i < 200; ++i) {
    lk->Append<i64>(i);
    lv->Append<i64>(i * 3);
  }
  left->set_row_count(200);
  auto right = std::make_unique<Table>("right");
  Column* rk = right->AddColumn("k", PhysicalType::kI64);
  Column* rv = right->AddColumn("rv", PhysicalType::kI64);
  for (i64 i = 0; i < 1000; ++i) {
    rk->Append<i64>((i * 37) % 200);  // scrambled
    rv->Append<i64>(i);
  }
  right->set_row_count(1000);

  MergeJoinSpec spec;
  spec.left_key = "k";
  spec.right_key = "k";
  spec.left_outputs = {{"lv", "lv"}};
  spec.right_outputs = {{"k", "rk"}, {"rv", "rv"}};
  PlanBuilder sorted_right = PlanBuilder::Scan(right.get());
  sorted_right.Sort({{"k", false}, {"rv", false}});
  PlanBuilder b = PlanBuilder::Scan(left.get());
  b.MergeJoin(std::move(sorted_right), spec);
  const LogicalPlan plan = b.Build();
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  // Stages: the right side's sort, then the merge reading the bare left
  // scan directly and the sort's intermediate.
  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  ASSERT_EQ(sp.stages.size(), 2u) << sp.Describe();
  EXPECT_EQ(sp.stages[0].kind, Stage::Kind::kSort);
  EXPECT_TRUE(sp.stages[0].materialize);
  const Stage& merge = sp.stages[1];
  EXPECT_EQ(merge.kind, Stage::Kind::kMergeJoin);
  EXPECT_FALSE(merge.input.from_stage());
  EXPECT_EQ(merge.right.stage, 0);
  EXPECT_EQ(merge.deps, (std::vector<int>{0}));

  QuerySession session{SessionConfig()};
  const RunResult serial = session.Run(plan, ExecMode::kSerial);
  EXPECT_EQ(serial.rows_emitted, 1000u);
  const RunResult staged = session.Run(plan, ExecMode::kParallel);
  EXPECT_TRUE(session.last_run_parallel());
  EXPECT_EQ(ExactFingerprint(*staged.table),
            ExactFingerprint(*serial.table));
  // Every right row matches exactly one left key, with lv == 3 * rk.
  const Column* lvc = staged.table->FindColumn("lv");
  const Column* rkc = staged.table->FindColumn("rk");
  ASSERT_NE(lvc, nullptr);
  ASSERT_NE(rkc, nullptr);
  for (size_t i = 0; i < staged.table->row_count(); ++i) {
    EXPECT_EQ(lvc->Data<i64>()[i], 3 * rkc->Data<i64>()[i]);
  }
}

TEST(PlanFragmentTest, AutoStaysSerialOnSmallTables) {
  auto t = MakeNumbersTable(512);  // below min_parallel_rows
  QuerySession session{SessionConfig()};
  session.Run(PlanBuilder::Scan(t.get(), {"a"}).Build(),
              ExecMode::kAuto);
  EXPECT_FALSE(session.last_run_parallel());
}

TEST(PlanFragmentTest, AutoRoutesByDrivingTableSize) {
  // kAuto must pick serial for a tiny scan and the staged parallel
  // path once the driving table clears the row threshold.
  SessionConfig cfg;
  cfg.parallel.num_threads = 2;
  cfg.min_parallel_rows = 4096;

  auto small = MakeNumbersTable(1024);
  QuerySession small_session{cfg};
  small_session.Run(PlanBuilder::Scan(small.get(), {"a"}).Build(),
                    ExecMode::kAuto);
  EXPECT_FALSE(small_session.last_run_parallel());

  auto big = MakeNumbersTable(16 * 1024);
  QuerySession big_session{cfg};
  big_session.Run(PlanBuilder::Scan(big.get(), {"a"}).Build(),
                  ExecMode::kAuto);
  EXPECT_TRUE(big_session.last_run_parallel());

  // The threshold looks at the largest *base* table any stage scans:
  // a big build side below a small probe still flips kAuto parallel.
  HashJoinSpec spec;
  spec.build_key = "a";
  spec.probe_key = "a";
  spec.kind = HashJoinSpec::Kind::kSemi;
  PlanBuilder probe = PlanBuilder::Scan(small.get(), {"a", "x"});
  probe.HashJoin(PlanBuilder::Scan(big.get(), {"a"}), spec);
  QuerySession join_session{cfg};
  join_session.Run(probe.Build(), ExecMode::kAuto);
  EXPECT_TRUE(join_session.last_run_parallel());
}

TEST(PlanFragmentTest, StagedStageProfileCountsJoinBuilds) {
  // A filtered build side over an empty probe: the build stage calls
  // select primitives, the probe stage none. The staged run's stage
  // profile includes the build, as the serial engine's totals do.
  auto build = MakeNumbersTable(16 * 1024);
  auto probe = MakeNumbersTable(0);
  PlanBuilder build_side = PlanBuilder::Scan(build.get(), {"a", "x"});
  build_side.Filter(Lt(Col("a"), Lit(500)));
  const LogicalPlan plan = PlanBuilder::Scan(probe.get(), {"a", "g"})
                               .HashJoin(std::move(build_side), InnerSpec())
                               .Build();
  SessionConfig cfg;
  cfg.parallel.num_threads = 2;
  QuerySession session{cfg};
  const RunResult r = session.Run(plan, ExecMode::kParallel);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_TRUE(session.last_run_parallel());
  EXPECT_EQ(r.table->row_count(), 0u);
  EXPECT_GT(r.stages.primitives, 0u);
  EXPECT_GE(r.stages.execute, r.stages.primitives);
}

TEST(PlanFragmentTest, DeclaredSchemaTypesEmptyOutputsOnly) {
  const std::vector<ColumnInfo> schema = {{"k", PhysicalType::kI64},
                                          {"v", PhysicalType::kF64}};
  // An empty output whose drain guessed a type and missed a column is
  // rebuilt with exactly the declared columns.
  RunResult empty;
  empty.table = std::make_unique<Table>("stage");
  empty.table->AddColumn("v", PhysicalType::kI64);
  empty.table->AddColumn("extra", PhysicalType::kStr);
  empty = WithDeclaredSchema(schema, std::move(empty));
  ASSERT_EQ(empty.table->num_columns(), 2u);
  EXPECT_EQ(empty.table->column_name(0), "k");
  EXPECT_EQ(empty.table->column(0)->type(), PhysicalType::kI64);
  EXPECT_EQ(empty.table->column_name(1), "v");
  EXPECT_EQ(empty.table->column(1)->type(), PhysicalType::kF64);
  EXPECT_EQ(empty.table->row_count(), 0u);

  // A non-empty output that holds the declared columns passes through
  // untouched, extra columns and column order included.
  RunResult full;
  full.table = std::make_unique<Table>("stage");
  full.table->AddColumn("v", PhysicalType::kF64)->Append<f64>(1.5);
  full.table->AddColumn("k", PhysicalType::kI64)->Append<i64>(7);
  full.table->set_row_count(1);
  const Table* before = full.table.get();
  full = WithDeclaredSchema(schema, std::move(full));
  EXPECT_EQ(full.table.get(), before);
  EXPECT_EQ(full.table->column_name(0), "v");
}

// ---------------------------------------------------------------------
// Shared-subplan CSE: structural asserts on the stage DAG.
// ---------------------------------------------------------------------

/// The duplicated subtree all CSE tests use: filter over a scan, with a
/// tweakable literal and table so near-miss variants differ in exactly
/// one leaf.
PlanBuilder FilteredScan(const Table* t, i64 threshold) {
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "g", "x"});
  b.Filter(Lt(Col("a"), Lit(threshold)));
  return b;
}

/// Joins a per-group count of `build` back against `probe` — the
/// consumer shape sitting on top of the (maybe shared) subtrees.
LogicalPlan JoinCountsAgainst(PlanBuilder probe, PlanBuilder build) {
  std::vector<HashAggOperator::AggSpec> aggs;
  HashAggOperator::AggSpec cnt;
  cnt.fn = "count";
  cnt.out_name = "cnt";
  aggs.push_back(std::move(cnt));
  build.GroupBy({{"g", 4}}, {"g"}, std::move(aggs));

  HashJoinSpec j;
  j.build_key = "g";
  j.probe_key = "g";
  j.build_outputs = {{"cnt", "cnt"}};
  j.probe_outputs = {"a", "g", "x"};
  probe.HashJoin(std::move(build), j);
  return probe.Build();
}

size_t CountBaseScanStages(const StagePlan& sp) {
  size_t n = 0;
  for (const Stage& s : sp.stages) {
    if (s.input.scan != nullptr) ++n;
  }
  return n;
}

size_t CountReaders(const StagePlan& sp, int stage_id) {
  size_t n = 0;
  for (const Stage& s : sp.stages) {
    if (s.input.from_stage() && s.input.stage == stage_id) ++n;
    if (s.right.from_stage() && s.right.stage == stage_id) ++n;
  }
  return n;
}

TEST(PlanCseTest, DuplicateSubtreeMaterializesOnceWithTwoReaders) {
  auto t = MakeNumbersTable(4096);
  const LogicalPlan plan =
      JoinCountsAgainst(FilteredScan(t.get(), 500),
                        FilteredScan(t.get(), 500));
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());

  // One materializing stage runs the duplicated filter+scan; the
  // aggregate and the final probe pipeline both read its output, so
  // the base table is scanned by exactly one stage.
  ASSERT_EQ(sp.stages.size(), 4u) << sp.Describe();
  EXPECT_EQ(CountBaseScanStages(sp), 1u) << sp.Describe();
  const Stage& shared = sp.stages[0];
  EXPECT_TRUE(shared.materialize);
  ASSERT_NE(shared.input.scan, nullptr);
  EXPECT_EQ(shared.input.scan->table, t.get());
  EXPECT_EQ(CountReaders(sp, shared.id), 2u) << sp.Describe();

  // The merged DAG still produces the right bytes everywhere.
  ExpectParity(plan, /*morsel_size=*/512);
}

TEST(PlanCseTest, ExplicitBindSharedLandsOnOneStage) {
  auto t = MakeNumbersTable(4096);
  const SharedSubplan shared =
      PlanBuilder::BindShared("cse_base", FilteredScan(t.get(), 500));
  ASSERT_TRUE(shared.ok()) << shared.status().message();
  const LogicalPlan plan =
      JoinCountsAgainst(PlanBuilder::SharedRef(shared, "probe_ref"),
                        PlanBuilder::SharedRef(shared, "build_ref"));
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  ASSERT_EQ(sp.stages.size(), 4u) << sp.Describe();
  EXPECT_EQ(CountBaseScanStages(sp), 1u) << sp.Describe();
  EXPECT_EQ(CountReaders(sp, sp.stages[0].id), 2u) << sp.Describe();

  ExpectParity(plan, /*morsel_size=*/512);
}

TEST(PlanCseTest, NearMissLiteralIsNotMerged) {
  auto t = MakeNumbersTable(4096);
  // Identical shape, but the filter literals differ by one: the canon
  // encodings differ, so both subtrees keep their own base-table scan.
  const LogicalPlan plan =
      JoinCountsAgainst(FilteredScan(t.get(), 500),
                        FilteredScan(t.get(), 501));
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  EXPECT_EQ(sp.stages.size(), 3u) << sp.Describe();
  EXPECT_EQ(CountBaseScanStages(sp), 2u) << sp.Describe();

  ExpectParity(plan, /*morsel_size=*/512);
}

TEST(PlanCseTest, NearMissTableIsNotMerged) {
  // Same shape, same literal, equal CONTENTS — but two distinct table
  // objects. Identity of the scanned table is part of the subtree
  // canon (scanning a different table is a different computation), so
  // no merge happens.
  auto t1 = MakeNumbersTable(4096);
  auto t2 = MakeNumbersTable(4096);
  const LogicalPlan plan =
      JoinCountsAgainst(FilteredScan(t1.get(), 500),
                        FilteredScan(t2.get(), 500));
  ASSERT_TRUE(plan.ok()) << plan.status.message();

  StagePlan sp;
  ASSERT_TRUE(Compiler::BuildStagePlan(plan, &sp).ok());
  EXPECT_EQ(sp.stages.size(), 3u) << sp.Describe();
  EXPECT_EQ(CountBaseScanStages(sp), 2u) << sp.Describe();

  ExpectParity(plan, /*morsel_size=*/512);
}

// ---------------------------------------------------------------------
// TPC-H acceptance: Q1 and Q6, one plan, every executor, same bytes.
// ---------------------------------------------------------------------

class TpchPlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchConfig cfg;
    cfg.scale_factor = 0.01;
    data_ = tpch::Generate(cfg).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static tpch::TpchData* data_;
};

tpch::TpchData* TpchPlanTest::data_ = nullptr;

void ExpectTpchParity(const LogicalPlan& plan, const char* what,
                      const std::string& probe_label) {
  ASSERT_TRUE(plan.ok()) << plan.status.message();
  SessionConfig scfg;
  QuerySession serial_session{scfg};
  const RunResult ref = serial_session.Run(plan, ExecMode::kSerial);
  ASSERT_NE(ref.table, nullptr);
  const u64 ref_fp = ExactFingerprint(*ref.table);

  for (const int threads : {1, 2, 4}) {
    SessionConfig pcfg;
    pcfg.parallel.num_threads = threads;
    pcfg.parallel.morsel_size = 4096;
    // Pinned partitions so every worker provably drains rows: the
    // profile assertions below need all `threads` pipeline instances to
    // have bound their primitives. (The PlanParityTest cases cover the
    // work-stealing path; byte-identity holds either way.)
    pcfg.parallel.work_stealing = false;
    QuerySession session{pcfg};
    const RunResult got = session.Run(plan, ExecMode::kParallel);
    ASSERT_TRUE(session.last_run_parallel()) << what;
    EXPECT_EQ(ExactFingerprint(*got.table), ref_fp)
        << what << " at " << threads << " threads";

    // Per-worker compiled pipelines: the merged profile carries one
    // instance per thread for the plan's filter site, each with its own
    // bandit (winner_per_thread has one entry per worker that ran it).
    const auto profile = session.Profile();
    const InstanceProfile* site = nullptr;
    for (const InstanceProfile& p : profile) {
      if (p.label.rfind(probe_label, 0) == 0) site = &p;
    }
    ASSERT_NE(site, nullptr) << what << ": no profile row for "
                             << probe_label;
    EXPECT_EQ(site->instances, threads)
        << what << ": expected one compiled pipeline per worker";
    EXPECT_EQ(site->winner_per_thread.size(),
              static_cast<size_t>(threads));
  }
}

TEST_F(TpchPlanTest, Q1ByteIdenticalSerialAndParallel) {
  ExpectTpchParity(tpch::Q1Plan(*data_), "Q1", "q1/select");
}

TEST_F(TpchPlanTest, Q6ByteIdenticalSerialAndParallel) {
  ExpectTpchParity(tpch::Q6Plan(*data_), "Q6", "q6/select");
}

}  // namespace
}  // namespace ma::plan
