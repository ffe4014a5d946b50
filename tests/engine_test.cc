// Engine-level behaviour: instance bookkeeping, adaptivity effects on a
// query whose data makes one flavor clearly better, profile integrity.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/op_scan.h"
#include "exec/op_select.h"

namespace ma {
namespace {

std::unique_ptr<Table> MakePhasedTable(size_t rows) {
  // First 90% of rows pass the predicate (selectivity ~100%), last 10%
  // do not (~0%) — the Figure 2 "Q12" shape that punishes a static
  // branching choice and rewards switching.
  auto t = std::make_unique<Table>("phased");
  Column* v = t->AddColumn("v", PhysicalType::kI32);
  Rng rng(11);
  for (size_t i = 0; i < rows; ++i) {
    if (i < rows * 9 / 10) {
      v->Append<i32>(static_cast<i32>(rng.NextBounded(50)));  // < 100
    } else {
      // Mixed region: ~50% selectivity, branch-hostile.
      v->Append<i32>(static_cast<i32>(rng.NextBounded(200)));
    }
  }
  t->set_row_count(rows);
  return t;
}

TEST(EngineTest, InstanceRegistryTracksEverything) {
  auto table = MakePhasedTable(10000);
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kAdaptive;
  Engine engine(cfg);
  auto scan = std::make_unique<ScanOperator>(&engine, table.get());
  SelectOperator sel(&engine, std::move(scan), Lt(Col("v"), Lit(100)));
  engine.Run(sel);
  ASSERT_EQ(engine.instances().size(), 1u);
  const PrimitiveInstance& inst = *engine.instances()[0];
  EXPECT_EQ(inst.entry()->signature, "sel_lt_i32_col_i32_val");
  EXPECT_EQ(inst.calls(), (10000 + kDefaultVectorSize - 1) /
                              kDefaultVectorSize);
  EXPECT_EQ(inst.tuples(), 10000u);
  EXPECT_EQ(engine.TotalPrimitiveCycles(), inst.cycles());
}

TEST(EngineTest, ResultsIdenticalAcrossModes) {
  auto table = MakePhasedTable(200000);
  std::vector<size_t> row_counts;
  for (const ExecMode mode :
       {ExecMode::kDefault, ExecMode::kForcedFlavor, ExecMode::kHeuristic,
        ExecMode::kAdaptive}) {
    EngineConfig cfg;
    cfg.adaptive.mode = mode;
    cfg.adaptive.forced_flavor = "nobranching";
    Engine engine(cfg);
    auto scan = std::make_unique<ScanOperator>(&engine, table.get());
    SelectOperator sel(&engine, std::move(scan), Lt(Col("v"), Lit(100)));
    RunResult r = engine.Run(sel);
    row_counts.push_back(r.table->row_count());
  }
  for (size_t i = 1; i < row_counts.size(); ++i) {
    EXPECT_EQ(row_counts[i], row_counts[0]);
  }
}

TEST(EngineTest, AdaptiveUsesMultipleFlavorsOnPhasedData) {
  auto table = MakePhasedTable(2000000);
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kAdaptive;
  cfg.adaptive.enabled_sets = FlavorSetBit(FlavorSetId::kBranch);
  cfg.adaptive.params.explore_period = 256;
  cfg.adaptive.params.exploit_period = 8;
  cfg.adaptive.params.explore_length = 2;
  Engine engine(cfg);
  auto scan = std::make_unique<ScanOperator>(&engine, table.get());
  SelectOperator sel(&engine, std::move(scan), Lt(Col("v"), Lit(100)));
  engine.Run(sel);
  const PrimitiveInstance& inst = *engine.instances()[0];
  ASSERT_EQ(inst.num_flavors(), 2);
  // Both flavors must have been used (exploration guarantees it).
  EXPECT_GT(inst.usage()[0].calls, 0u);
  EXPECT_GT(inst.usage()[1].calls, 0u);
  // APH recorded the whole history.
  EXPECT_EQ(inst.aph().total_calls(), inst.calls());
}

TEST(EngineTest, VectorSizeConfigurable) {
  auto table = MakePhasedTable(10000);
  EngineConfig cfg;
  cfg.vector_size = 256;
  Engine engine(cfg);
  auto scan = std::make_unique<ScanOperator>(&engine, table.get());
  SelectOperator sel(&engine, std::move(scan), Lt(Col("v"), Lit(100)));
  engine.Run(sel);
  EXPECT_EQ(engine.instances()[0]->calls(), 10000u / 256 + 1);
}

TEST(EngineTest, ResetProfileClearsInstances) {
  auto table = MakePhasedTable(1000);
  Engine engine;
  auto scan = std::make_unique<ScanOperator>(&engine, table.get());
  SelectOperator sel(&engine, std::move(scan), Lt(Col("v"), Lit(100)));
  engine.Run(sel);
  EXPECT_FALSE(engine.instances().empty());
  engine.ResetProfile();
  EXPECT_TRUE(engine.instances().empty());
  EXPECT_EQ(engine.TotalPrimitiveCycles(), 0u);
}

}  // namespace
}  // namespace ma
