// Operator correctness against hand-computed references, on all engine
// execution modes (default / forced flavors / heuristic / adaptive) —
// Micro Adaptivity must never change results, only speed.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "exec/op_hash_agg.h"
#include "exec/op_hash_join.h"
#include "exec/op_merge_join.h"
#include "exec/op_project.h"
#include "exec/op_scan.h"
#include "exec/op_select.h"
#include "exec/op_sort.h"
#include "table_fingerprint.h"

namespace ma {
namespace {

/// Builds a small orders-like table.
std::unique_ptr<Table> MakeNumbersTable(size_t rows, u64 seed = 1) {
  auto t = std::make_unique<Table>("numbers");
  Column* id = t->AddColumn("id", PhysicalType::kI64);
  Column* val = t->AddColumn("val", PhysicalType::kI64);
  Column* price = t->AddColumn("price", PhysicalType::kF64);
  Column* tag = t->AddColumn("tag", PhysicalType::kStr);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    id->Append<i64>(static_cast<i64>(i));
    val->Append<i64>(rng.NextRange(0, 99));
    price->Append<f64>(static_cast<f64>(rng.NextRange(1, 1000)) / 10.0);
    tag->AppendString(rng.NextBool(0.3) ? "hot" : "cold");
  }
  t->set_row_count(rows);
  return t;
}

std::vector<ExecMode> AllModes() {
  return {ExecMode::kDefault, ExecMode::kForcedFlavor,
          ExecMode::kHeuristic, ExecMode::kAdaptive};
}

EngineConfig ConfigFor(ExecMode mode) {
  EngineConfig cfg;
  cfg.adaptive.mode = mode;
  cfg.adaptive.forced_flavor = "nobranching";
  // Fast-switching bandit parameters so even short tests exercise the
  // explore/exploit machinery.
  cfg.adaptive.params.explore_period = 64;
  cfg.adaptive.params.exploit_period = 8;
  cfg.adaptive.params.explore_length = 2;
  return cfg;
}

class AllModesTest : public ::testing::TestWithParam<ExecMode> {};

INSTANTIATE_TEST_SUITE_P(
    Modes, AllModesTest, ::testing::ValuesIn(AllModes()),
    [](const auto& info) {
      switch (info.param) {
        case ExecMode::kDefault:
          return "Default";
        case ExecMode::kForcedFlavor:
          return "Forced";
        case ExecMode::kHeuristic:
          return "Heuristic";
        case ExecMode::kAdaptive:
          return "Adaptive";
      }
      return "?";
    });

TEST_P(AllModesTest, ScanSelectProject) {
  auto table = MakeNumbersTable(10000);
  Engine engine(ConfigFor(GetParam()));
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"id", "val"});
  auto select = std::make_unique<SelectOperator>(
      &engine, std::move(scan), Lt(Col("val"), Lit(40)));
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"id", Col("id")});
  outs.push_back({"val2", Mul(Col("val"), Lit(2))});
  ProjectOperator project(&engine, std::move(select), std::move(outs));

  RunResult r = engine.Run(project);
  // Reference.
  const Column* val = table->FindColumn("val");
  size_t expected = 0;
  for (size_t i = 0; i < table->row_count(); ++i) {
    expected += (val->Data<i64>()[i] < 40);
  }
  ASSERT_EQ(r.table->row_count(), expected);
  const Column* rid = r.table->FindColumn("id");
  const Column* rv2 = r.table->FindColumn("val2");
  ASSERT_NE(rid, nullptr);
  ASSERT_NE(rv2, nullptr);
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    const i64 orig = val->Data<i64>()[rid->Data<i64>()[i]];
    EXPECT_LT(orig, 40);
    EXPECT_EQ(rv2->Data<i64>()[i], orig * 2);
  }
  EXPECT_GT(r.stages.primitives, 0u);
}

TEST_P(AllModesTest, HashAggGrouped) {
  auto table = MakeNumbersTable(20000);
  Engine engine(ConfigFor(GetParam()));
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"val", "price"});
  std::vector<HashAggOperator::AggSpec> aggs;
  aggs.push_back({"count", nullptr, "cnt"});
  aggs.push_back({"sum", Col("val"), "sum_val"});
  aggs.push_back({"min", Col("price"), "min_price"});
  aggs.push_back({"avg", Col("price"), "avg_price"});
  HashAggOperator agg(&engine, std::move(scan),
                      {{"val", 8}}, {"val"}, std::move(aggs));
  RunResult r = engine.Run(agg);

  // Reference aggregation.
  std::map<i64, std::tuple<i64, i64, f64, f64>> ref;  // cnt,sum,min,sumf
  const Column* val = table->FindColumn("val");
  const Column* price = table->FindColumn("price");
  for (size_t i = 0; i < table->row_count(); ++i) {
    auto& [cnt, sum, mn, sumf] = ref.try_emplace(
        val->Data<i64>()[i], 0, 0, 1e300, 0.0).first->second;
    cnt++;
    sum += val->Data<i64>()[i];
    mn = std::min(mn, price->Data<f64>()[i]);
    sumf += price->Data<f64>()[i];
  }
  ASSERT_EQ(r.table->row_count(), ref.size());
  const Column* g = r.table->FindColumn("val");
  const Column* cnt = r.table->FindColumn("cnt");
  const Column* sum = r.table->FindColumn("sum_val");
  const Column* mn = r.table->FindColumn("min_price");
  const Column* avg = r.table->FindColumn("avg_price");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    const auto& [rc, rs, rm, rsf] = ref.at(g->Data<i64>()[i]);
    EXPECT_EQ(cnt->Data<i64>()[i], rc);
    EXPECT_EQ(sum->Data<i64>()[i], rs);
    EXPECT_DOUBLE_EQ(mn->Data<f64>()[i], rm);
    EXPECT_NEAR(avg->Data<f64>()[i], rsf / rc, 1e-9);
  }
}

TEST_P(AllModesTest, HashAggGlobal) {
  auto table = MakeNumbersTable(5000);
  Engine engine(ConfigFor(GetParam()));
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"val"});
  std::vector<HashAggOperator::AggSpec> aggs;
  aggs.push_back({"sum", Col("val"), "total"});
  aggs.push_back({"count", nullptr, "n"});
  aggs.push_back({"max", Col("val"), "mx"});
  HashAggOperator agg(&engine, std::move(scan), {}, {}, std::move(aggs));
  RunResult r = engine.Run(agg);
  ASSERT_EQ(r.table->row_count(), 1u);
  i64 total = 0, mx = 0;
  const Column* val = table->FindColumn("val");
  for (size_t i = 0; i < table->row_count(); ++i) {
    total += val->Data<i64>()[i];
    mx = std::max(mx, val->Data<i64>()[i]);
  }
  EXPECT_EQ(r.table->FindColumn("total")->Data<i64>()[0], total);
  EXPECT_EQ(r.table->FindColumn("n")->Data<i64>()[0],
            static_cast<i64>(table->row_count()));
  EXPECT_EQ(r.table->FindColumn("mx")->Data<i64>()[0], mx);
}

/// A lineitem-like row: `ord` plays l_orderkey, `part` varies inside
/// an order.
struct ClusteredRow {
  i64 ord;
  i64 part;
  i64 qty;
  f64 price;
};

/// Rows in the given order; `name` depends on `ord` only.
std::unique_ptr<Table> MakeClusteredTable(
    const std::vector<ClusteredRow>& rows) {
  auto t = std::make_unique<Table>("clustered");
  Column* ord = t->AddColumn("ord", PhysicalType::kI64);
  Column* part = t->AddColumn("part", PhysicalType::kI64);
  Column* qty = t->AddColumn("qty", PhysicalType::kI64);
  Column* price = t->AddColumn("price", PhysicalType::kF64);
  Column* name = t->AddColumn("name", PhysicalType::kStr);
  for (const ClusteredRow& r : rows) {
    ord->Append<i64>(r.ord);
    part->Append<i64>(r.part);
    qty->Append<i64>(r.qty);
    price->Append<f64>(r.price);
    name->AppendString("o" + std::to_string(r.ord));
  }
  t->set_row_count(rows.size());
  return t;
}

/// Key-sorted aggregation of `table` grouped by (ord, part), with integer
/// aggregates and exact f64 sums only: order-independent, so any input
/// order of the same rows must give the same bytes.
RunResult AggregateByOrdPart(ExecMode mode, const Table& table,
                             bool* ran_in_run_mode) {
  Engine engine(ConfigFor(mode));
  auto scan = std::make_unique<ScanOperator>(
      &engine, &table,
      std::vector<std::string>{"ord", "part", "qty", "price", "name"});
  std::vector<HashAggOperator::AggSpec> aggs;
  aggs.push_back({"count", nullptr, "cnt"});
  aggs.push_back({"sum", Col("qty"), "sum_qty", PhysicalType::kI64});
  aggs.push_back({"min", Col("qty"), "min_qty", PhysicalType::kI64});
  aggs.push_back({"max", Col("qty"), "max_qty", PhysicalType::kI64});
  aggs.push_back({"sum", Col("price"), "sum_price", PhysicalType::kF64,
                  /*exact_f64_sum=*/true});
  aggs.push_back({"avg", Col("price"), "avg_price", PhysicalType::kF64,
                  /*exact_f64_sum=*/true});
  HashAggOperator agg(&engine, std::move(scan), {{"ord", 20}, {"part", 12}},
                      {"ord", "part", "name"}, std::move(aggs));
  agg.set_emit_key_sorted(true);
  RunResult r = engine.Run(agg);
  *ran_in_run_mode = agg.in_run_mode();
  return r;
}

TEST_P(AllModesTest, HashAggRunModeMatchesHashOnlyByteForByte) {
  // Orders ascend with 1..7 lines each; parts repeat inside an order.
  Rng rng(21);
  std::vector<ClusteredRow> rows;
  for (i64 o = 1; rows.size() < 6000; o += 1 + rng.NextBounded(3)) {
    const u64 lines = 1 + rng.NextBounded(7);
    for (u64 l = 0; l < lines; ++l) {
      rows.push_back({o, static_cast<i64>(rng.NextBounded(4)),
                      rng.NextRange(-10, 40),
                      static_cast<f64>(rng.NextRange(1, 100000)) / 3.0});
    }
  }
  // Hash-only reference: the same rows in descending order leave run
  // mode at the second row.
  bool runs = true;
  const RunResult ref = AggregateByOrdPart(
      GetParam(), *MakeClusteredTable({rows.rbegin(), rows.rend()}), &runs);
  ASSERT_FALSE(runs);
  ASSERT_GT(ref.table->row_count(), 3000u);

  const RunResult ascending =
      AggregateByOrdPart(GetParam(), *MakeClusteredTable(rows), &runs);
  EXPECT_TRUE(runs);
  EXPECT_EQ(ExactFingerprint(*ascending.table), ExactFingerprint(*ref.table));

  // One row of an early order moved to the end: run mode until the
  // last vector, hash for the rest.
  std::vector<ClusteredRow> late = rows;
  late.push_back(late[10]);
  late.erase(late.begin() + 10);
  const RunResult late_run =
      AggregateByOrdPart(GetParam(), *MakeClusteredTable(late), &runs);
  EXPECT_FALSE(runs);
  EXPECT_EQ(ExactFingerprint(*late_run.table), ExactFingerprint(*ref.table));
}

std::unique_ptr<Table> MakeDimTable(size_t rows) {
  auto t = std::make_unique<Table>("dim");
  Column* k = t->AddColumn("d_key", PhysicalType::kI64);
  Column* name = t->AddColumn("d_name", PhysicalType::kStr);
  for (size_t i = 0; i < rows; ++i) {
    k->Append<i64>(static_cast<i64>(i * 2));  // even keys only
    name->AppendString("dim_" + std::to_string(i * 2));
  }
  t->set_row_count(rows);
  return t;
}

TEST_P(AllModesTest, HashJoinInner) {
  auto fact = MakeNumbersTable(8000);
  auto dim = MakeDimTable(50);  // keys 0,2,...,98
  EngineConfig cfg = ConfigFor(GetParam());
  Engine engine(cfg);
  auto build = std::make_unique<ScanOperator>(&engine, dim.get());
  auto probe = std::make_unique<ScanOperator>(
      &engine, fact.get(), std::vector<std::string>{"id", "val"});
  HashJoinSpec spec;
  spec.build_key = "d_key";
  spec.probe_key = "val";
  spec.build_outputs = {{"d_name", "d_name"}};
  spec.probe_outputs = {"id", "val"};
  spec.use_bloom = true;
  HashJoinOperator join(&engine, std::move(build), std::move(probe), spec);
  RunResult r = engine.Run(join);

  const Column* val = fact->FindColumn("val");
  size_t expected = 0;
  for (size_t i = 0; i < fact->row_count(); ++i) {
    expected += (val->Data<i64>()[i] % 2 == 0);  // even vals match
  }
  ASSERT_EQ(r.table->row_count(), expected);
  const Column* rid = r.table->FindColumn("id");
  const Column* rname = r.table->FindColumn("d_name");
  for (size_t i = 0; i < std::min<size_t>(r.table->row_count(), 500); ++i) {
    const i64 v = val->Data<i64>()[rid->Data<i64>()[i]];
    EXPECT_EQ(rname->Data<StrRef>()[i].view(),
              "dim_" + std::to_string(v));
  }
}

TEST_P(AllModesTest, HashJoinSemiAnti) {
  auto fact = MakeNumbersTable(6000);
  auto dim = MakeDimTable(50);
  Engine engine(ConfigFor(GetParam()));
  size_t matching = 0;
  const Column* val = fact->FindColumn("val");
  for (size_t i = 0; i < fact->row_count(); ++i) {
    matching += (val->Data<i64>()[i] % 2 == 0);
  }
  for (const auto kind :
       {HashJoinSpec::Kind::kSemi, HashJoinSpec::Kind::kAnti}) {
    auto build = std::make_unique<ScanOperator>(&engine, dim.get());
    auto probe = std::make_unique<ScanOperator>(
        &engine, fact.get(), std::vector<std::string>{"id", "val"});
    HashJoinSpec spec;
    spec.build_key = "d_key";
    spec.probe_key = "val";
    spec.kind = kind;
    spec.use_bloom = (kind == HashJoinSpec::Kind::kSemi);
    HashJoinOperator join(&engine, std::move(build), std::move(probe),
                          spec);
    RunResult r = engine.Run(join);
    const size_t expected = kind == HashJoinSpec::Kind::kSemi
                                ? matching
                                : fact->row_count() - matching;
    EXPECT_EQ(r.table->row_count(), expected);
  }
}

TEST_P(AllModesTest, MergeJoin) {
  // Left: unique sorted keys 0..999; right: sorted keys with dups.
  auto left = std::make_unique<Table>("left");
  Column* lk = left->AddColumn("lk", PhysicalType::kI64);
  Column* lv = left->AddColumn("lv", PhysicalType::kI64);
  for (i64 i = 0; i < 1000; ++i) {
    lk->Append<i64>(i);
    lv->Append<i64>(i * 10);
  }
  left->set_row_count(1000);

  auto right = std::make_unique<Table>("right");
  Column* rk = right->AddColumn("rk", PhysicalType::kI64);
  Rng rng(3);
  i64 key = 0;
  size_t expected = 0;
  for (i64 i = 0; i < 5000; ++i) {
    key += static_cast<i64>(rng.NextBounded(2));
    rk->Append<i64>(key);
    expected += (key < 1000);
  }
  right->set_row_count(5000);

  Engine engine(ConfigFor(GetParam()));
  MergeJoinSpec spec;
  spec.left_key = "lk";
  spec.right_key = "rk";
  spec.left_outputs = {{"lv", "lv"}};
  spec.right_outputs = {{"rk", "rk"}};
  MergeJoinOperator join(
      &engine, std::make_unique<ScanOperator>(&engine, left.get()),
      std::make_unique<ScanOperator>(&engine, right.get()), spec);
  RunResult r = engine.Run(join);
  ASSERT_EQ(r.table->row_count(), expected);
  const Column* out_lv = r.table->FindColumn("lv");
  const Column* out_rk = r.table->FindColumn("rk");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    EXPECT_EQ(out_lv->Data<i64>()[i], out_rk->Data<i64>()[i] * 10);
  }
}

// An aggregate's accumulators are sized only once its argument type is
// bound, so an f64 sum charges the group table and its f64 accumulator —
// no i64 accumulator sized while the type still read as the default.
TEST(HashAggOperatorTest, F64SumChargesOnlyLiveState) {
  constexpr size_t kRows = 600;
  constexpr size_t kGroups = 200;
  auto table = std::make_unique<Table>("t");
  Column* g = table->AddColumn("g", PhysicalType::kI64);
  Column* x = table->AddColumn("x", PhysicalType::kF64);
  for (size_t i = 0; i < kRows; ++i) {
    g->Append<i64>(static_cast<i64>(i % kGroups));
    x->Append<f64>(0.25 * static_cast<f64>(i));
  }
  table->set_row_count(kRows);

  QueryContext ctx;
  ctx.SetMemoryBudget(u64{1} << 30);
  Engine engine{EngineConfig()};
  engine.set_context(&ctx);
  std::vector<HashAggOperator::AggSpec> aggs;
  aggs.push_back({"sum", Col("x"), "sx"});
  HashAggOperator agg(
      &engine,
      std::make_unique<ScanOperator>(&engine, table.get(),
                                     std::vector<std::string>{"g", "x"}),
      {{"g", 16}}, {}, std::move(aggs));
  ASSERT_TRUE(agg.Open().ok());
  // 16 bytes per group of table slots plus one f64 accumulator each.
  EXPECT_EQ(ctx.memory_reserved(), kGroups * (16 + sizeof(f64)));
}

TEST(SortOperatorTest, OrdersAndLimits) {
  auto table = MakeNumbersTable(5000);
  Engine engine;
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"id", "val"});
  SortOperator sort(&engine, std::move(scan),
                    {{"val", /*desc=*/true}, {"id", false}},
                    /*limit=*/100);
  RunResult r = engine.Run(sort);
  ASSERT_EQ(r.table->row_count(), 100u);
  const Column* v = r.table->FindColumn("val");
  const Column* id = r.table->FindColumn("id");
  for (size_t i = 1; i < 100; ++i) {
    const bool ordered =
        v->Data<i64>()[i - 1] > v->Data<i64>()[i] ||
        (v->Data<i64>()[i - 1] == v->Data<i64>()[i] &&
         id->Data<i64>()[i - 1] < id->Data<i64>()[i]);
    EXPECT_TRUE(ordered) << "at " << i;
  }
}

TEST(SelectOperatorTest, OrPredicateUnion) {
  auto table = MakeNumbersTable(4000);
  Engine engine;
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"val"});
  std::vector<ExprPtr> ors;
  ors.push_back(Lt(Col("val"), Lit(5)));
  ors.push_back(Ge(Col("val"), Lit(95)));
  SelectOperator select(&engine, std::move(scan), OrAny(std::move(ors)));
  RunResult r = engine.Run(select);
  const Column* val = table->FindColumn("val");
  size_t expected = 0;
  for (size_t i = 0; i < table->row_count(); ++i) {
    const i64 v = val->Data<i64>()[i];
    expected += (v < 5 || v >= 95);
  }
  EXPECT_EQ(r.table->row_count(), expected);
}

TEST(SelectOperatorTest, StringPredicates) {
  auto table = MakeNumbersTable(3000);
  Engine engine;
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"tag"});
  SelectOperator select(&engine, std::move(scan), StrEq("tag", "hot"));
  RunResult r = engine.Run(select);
  const Column* tag = table->FindColumn("tag");
  size_t expected = 0;
  for (size_t i = 0; i < table->row_count(); ++i) {
    expected += (tag->Data<StrRef>()[i].view() == "hot");
  }
  EXPECT_EQ(r.table->row_count(), expected);
  const Column* out = r.table->FindColumn("tag");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    EXPECT_EQ(out->Data<StrRef>()[i].view(), "hot");
  }
}

TEST(ScanOperatorTest, EmptyTableAndMissingColumn) {
  Table empty("empty");
  empty.AddColumn("a", PhysicalType::kI64);
  Engine engine;
  ScanOperator scan(&engine, &empty);
  ASSERT_TRUE(scan.Open().ok());
  Batch b;
  EXPECT_FALSE(scan.Next(&b));

  // Missing columns on an *empty* table are tolerated (empty pipeline
  // stages compose); on a non-empty table they are an error.
  ScanOperator lenient(&engine, &empty, {"nope"});
  EXPECT_TRUE(lenient.Open().ok());
  EXPECT_FALSE(lenient.Next(&b));

  Table nonempty("t");
  nonempty.AddColumn("a", PhysicalType::kI64)->Append<i64>(1);
  nonempty.set_row_count(1);
  ScanOperator bad(&engine, &nonempty, {"nope"});
  EXPECT_FALSE(bad.Open().ok());
}

TEST(EngineTest, StageProfileSumsUp) {
  auto table = MakeNumbersTable(50000);
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kAdaptive;
  Engine engine(cfg);
  auto scan = std::make_unique<ScanOperator>(
      &engine, table.get(), std::vector<std::string>{"id", "val"});
  SelectOperator select(&engine, std::move(scan),
                        Lt(Col("val"), Lit(40)));
  RunResult r = engine.Run(select);
  EXPECT_GT(r.total_cycles, 0u);
  EXPECT_GT(r.stages.primitives, 0u);
  // Primitive time is part of execute time (Table 1's nesting).
  EXPECT_LE(r.stages.primitives,
            r.stages.execute + r.stages.preprocess + 1);
  EXPECT_GT(r.seconds, 0.0);
}

}  // namespace
}  // namespace ma
