// Macro-adaptivity (adapt/strategy.h + the plan/exec/knowledge/serve
// wiring): the stage-scale bandit must be deterministic for a fixed
// reward feed, seeded instances must skip the sweep and correct stale
// priors, strategy records must round-trip bit-exactly through the v2
// store format (v1 files cold-start cleanly), and — the core contract —
// strategy-learned runs must be byte-identical to static runs at every
// thread count, because strategies steer time, never bytes. The
// parallel TopN path (ParallelExecutor::RunTopN) is held to the same
// standard against the serial SortOperator. Runs under TSan and
// ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adapt/strategy.h"
#include "common/rng.h"
#include "exec/op_sort.h"
#include "exec/parallel/parallel_executor.h"
#include "exec/query_context.h"
#include "knowledge/profile_store.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "serve/workload_server.h"
#include "storage/table_fingerprint.h"

namespace ma {
namespace {

using knowledge::ProfileStore;
using plan::LogicalPlan;
using plan::PlanBuilder;
using plan::QuerySession;
using serve::QueryHandle;
using serve::ServerConfig;
using serve::WorkloadServer;

std::unique_ptr<Table> MakeNumbersTable(size_t rows, u64 seed = 77) {
  Rng rng(seed);
  auto t = std::make_unique<Table>("numbers");
  Column* a = t->AddColumn("a", PhysicalType::kI64);
  Column* g = t->AddColumn("g", PhysicalType::kI64);
  Column* x = t->AddColumn("x", PhysicalType::kF64);
  for (size_t i = 0; i < rows; ++i) {
    a->Append<i64>(static_cast<i64>(rng.NextBounded(1000)));
    g->Append<i64>(static_cast<i64>(rng.NextBounded(8)));
    x->Append<f64>(static_cast<f64>(rng.NextRange(-900, 900)) / 7.0);
  }
  t->set_row_count(rows);
  return t;
}

/// i64 + f64 + string columns with heavy key ties, so TopN identity
/// exercises every comparator branch and the row-index tiebreak.
std::unique_ptr<Table> MakeMixedTable(size_t rows, u64 seed = 99) {
  Rng rng(seed);
  auto t = std::make_unique<Table>("mixed");
  Column* g = t->AddColumn("g", PhysicalType::kI64);
  Column* x = t->AddColumn("x", PhysicalType::kF64);
  Column* s = t->AddColumn("s", PhysicalType::kStr);
  Column* a = t->AddColumn("a", PhysicalType::kI64);
  for (size_t i = 0; i < rows; ++i) {
    g->Append<i64>(static_cast<i64>(rng.NextBounded(5)));  // heavy ties
    x->Append<f64>(static_cast<f64>(rng.NextRange(-50, 50)) / 3.0);
    s->AppendString("name" + std::to_string(rng.NextBounded(7)));
    a->Append<i64>(static_cast<i64>(rng.NextBounded(1000000)));
  }
  t->set_row_count(rows);
  return t;
}

/// Join → group-by → sort-limit: one plan that exercises every decision
/// kind (thread count, bloom at the join build, morsel size).
LogicalPlan JoinAggSortPlan(const Table* probe, const Table* build) {
  HashJoinSpec spec;
  spec.build_key = "a";
  spec.probe_key = "a";
  spec.build_outputs = {{"x", "bx"}};
  spec.probe_outputs = {"a", "g", "x"};
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec s;
    s.fn = "sum";
    s.arg = Col("x");
    s.out_name = "sum_x";
    aggs.push_back(std::move(s));
    HashAggOperator::AggSpec b;
    b.fn = "sum";
    b.arg = Col("bx");
    b.out_name = "sum_bx";
    aggs.push_back(std::move(b));
  }
  PlanBuilder p = PlanBuilder::Scan(probe, {"a", "g", "x"}, "st/scan");
  p.HashJoin(PlanBuilder::Scan(build, {"a", "x"}, "st/build"), spec,
             "st/join")
      .GroupBy({{"g", 8}}, {"g"}, std::move(aggs), "st/agg")
      .Sort({{"sum_x", true}}, /*limit=*/4);
  LogicalPlan plan = p.Build();
  EXPECT_TRUE(plan.ok()) << plan.status.ToString();
  return plan;
}

/// Filter → sort-limit over enough rows that the staged path takes the
/// parallel TopN branch.
LogicalPlan TopNPlan(const Table* t, size_t limit) {
  PlanBuilder p = PlanBuilder::Scan(t, {"g", "x", "s", "a"}, "st/tscan");
  p.Filter(Lt(Col("a"), Lit(900000)), "st/tselect")
      .Sort({{"g", false}, {"x", true}}, limit);
  LogicalPlan plan = p.Build();
  EXPECT_TRUE(plan.ok()) << plan.status.ToString();
  return plan;
}

u64 SerialFingerprint(const LogicalPlan& plan) {
  QuerySession session;
  const RunResult r = session.Run(plan, plan::ExecMode::kSerial);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.table, nullptr);
  return ExactFingerprint(*r.table);
}

std::string TempPath(const char* name) {
  return std::string("./strategy_test_") + name + ".bin";
}

const std::vector<StrategyArm> kThreadArms = {
    {"t4", 4}, {"t2", 2}, {"t1", 1}};

// ---------------------------------------------------------------------
// StrategyInstance: sweep, exploit, re-exploration, seeding.
// ---------------------------------------------------------------------

TEST(StrategyInstanceTest, SweepsEveryArmThenExploitsCheapest) {
  StrategyInstance inst(StrategyKind::kThreadCount, kThreadArms);
  // Initial sweep in index order.
  EXPECT_EQ(inst.Decide(), 0);
  inst.Reward(0, 1000, 50000);  // 50 cycles/tuple
  EXPECT_EQ(inst.Decide(), 1);
  inst.Reward(1, 1000, 1000);  // 1 cycle/tuple: the winner
  EXPECT_EQ(inst.Decide(), 2);
  inst.Reward(2, 1000, 90000);
  // Exploit phase: the cheapest measured arm, repeatedly.
  EXPECT_EQ(inst.Decide(), 1);
  inst.Reward(1, 1000, 1000);
  EXPECT_EQ(inst.Decide(), 1);
  EXPECT_EQ(inst.decisions(), 5u);
}

TEST(StrategyInstanceTest, ReexploresLeastChosenArmPeriodically) {
  StrategyInstance inst(StrategyKind::kThreadCount,
                        {{"fast", 4}, {"slow", 1}});
  // A dominant arm 0 still cedes every 16th decision to arm 1.
  std::vector<int> choices;
  for (int i = 0; i < 80; ++i) {
    const int arm = inst.Decide();
    choices.push_back(arm);
    inst.Reward(arm, 1000, arm == 0 ? 100 : 100000);
  }
  for (int i = 0; i < 80; ++i) {
    const bool explore_slot = (i % 16) == 15;
    if (i < 2) {
      EXPECT_EQ(choices[i], i) << "sweep at decision " << i;
    } else if (explore_slot) {
      EXPECT_EQ(choices[i], 1) << "re-exploration at decision " << i;
    } else {
      EXPECT_EQ(choices[i], 0) << "exploit at decision " << i;
    }
  }
}

TEST(StrategyInstanceTest, SeededInstanceSkipsSweepAndCorrectsStalePrior) {
  StrategyProfile prior;
  prior.site = "fp0/s0";
  prior.kind = StrategyKind::kThreadCount;
  prior.arms = {{"t4", 4, 4000, 400},      // 0.1 cycles/tuple: looks best
                {"t2", 4, 4000, 40000},    // 10 cycles/tuple
                {"t1", 4, 4000, 400000}};  // 100 cycles/tuple
  StrategyInstance inst(StrategyKind::kThreadCount, kThreadArms);
  inst.Seed(prior);

  // Fully seeded: no sweep, the best prior is exploited immediately.
  EXPECT_EQ(inst.Decide(), 0);
  // Live reality disagrees with the store: one expensive measurement
  // outweighs the stale prior and the instance moves on.
  inst.Reward(0, 1000, 1000000000);
  EXPECT_EQ(inst.Decide(), 1);

  // The delta holds live stats only — seeded bases never re-merge.
  const StrategyProfile delta = inst.ExportDelta("fp0/s0");
  u64 live_tuples = 0;
  for (const StrategyProfile::Arm& arm : delta.arms) {
    EXPECT_NE(arm.label, "t1");  // never decided live, not exported
    live_tuples += arm.tuples;
  }
  EXPECT_EQ(live_tuples, 1000u);
}

TEST(StrategyBookTest, IdenticalSeedsAndRewardsReproduceArmSequence) {
  StrategyProfile prior;
  prior.site = "fpab/s2";
  prior.kind = StrategyKind::kMorselSize;
  prior.arms = {{"m65536", 2, 2000, 9000}, {"m16384", 2, 2000, 4000}};
  const std::vector<StrategyArm> arms = {{"m65536", 65536},
                                         {"m16384", 16384}};

  StrategyBook b1, b2;
  b1.Seed({prior});
  b2.Seed({prior});
  for (int i = 0; i < 64; ++i) {
    const StrategyBook::Decision d1 =
        b1.Decide("fpab/s2", StrategyKind::kMorselSize, arms);
    const StrategyBook::Decision d2 =
        b2.Decide("fpab/s2", StrategyKind::kMorselSize, arms);
    ASSERT_EQ(d1.arm, d2.arm) << "diverged at decision " << i;
    ASSERT_EQ(d1.value, d2.value);
    // A deterministic reward feed that depends only on (arm, i).
    const u64 cycles = (d1.arm == 0 ? 3000 : 1500) + i * 7;
    b1.Reward(d1, 1000, cycles);
    b2.Reward(d2, 1000, cycles);
  }
  EXPECT_EQ(b1.decisions(), b2.decisions());
  EXPECT_EQ(b1.switches(), b2.switches());

  // Deterministic exports too — the store-merge payload is reproducible.
  const std::vector<StrategyProfile> e1 = b1.ExportDelta();
  const std::vector<StrategyProfile> e2 = b2.ExportDelta();
  ASSERT_EQ(e1.size(), e2.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].site, e2[i].site);
    ASSERT_EQ(e1[i].arms.size(), e2[i].arms.size());
    for (size_t a = 0; a < e1[i].arms.size(); ++a) {
      EXPECT_EQ(e1[i].arms[a].decisions, e2[i].arms[a].decisions);
      EXPECT_EQ(e1[i].arms[a].cycles, e2[i].arms[a].cycles);
    }
  }
}

// ---------------------------------------------------------------------
// StageStrategies: arm sets, the bloom credit rule, reward gating.
// ---------------------------------------------------------------------

/// Labels of `book`'s record for `site`/`kind` in arm order (empty when
/// the site never decided that kind).
std::vector<std::string> RecordLabels(const StrategyBook& book,
                                      const std::string& site,
                                      StrategyKind kind) {
  std::vector<std::string> labels;
  for (const StrategyProfile& p : book.ExportDelta()) {
    if (p.site != site || p.kind != kind) continue;
    for (const StrategyProfile::Arm& a : p.arms) labels.push_back(a.label);
  }
  return labels;
}

const StrategyProfile::Arm* RecordArm(const std::vector<StrategyProfile>& recs,
                                      const std::string& site,
                                      StrategyKind kind,
                                      const std::string& label) {
  for (const StrategyProfile& p : recs) {
    if (p.site != site || p.kind != kind) continue;
    for (const StrategyProfile::Arm& a : p.arms) {
      if (a.label == label) return &a;
    }
  }
  return nullptr;
}

TEST(StageStrategiesTest, ArmSetsInOrderWithDuplicatesRemoved) {
  struct Case {
    int pool;
    std::vector<int> workers;  // hint of each of three runs
    std::vector<std::string> thread_labels;
  };
  const Case cases[] = {
      {4, {4, 2, 1}, {"t4", "t2", "t1"}},
      {2, {2, 1, 2}, {"t2", "t1"}},  // t2 deduplicated
      {1, {1, 2, 1}, {"t1", "t2"}},  // t1 deduplicated; t2 clamps at use
  };
  for (const Case& c : cases) {
    StrategyBook book;
    std::vector<int> workers;
    std::vector<u64> morsels;
    std::vector<int> blooms;
    // One run per iteration, never rewarded: the sweep walks every arm
    // in index order, so the hints spell out the arm order; past the
    // sweep, unmeasured arms tie and arm 0 is exploited.
    for (int run = 0; run < 3; ++run) {
      StageStrategies strategies(&book, "fpx", 1, c.pool, 65536);
      const StageHints h = strategies.Decide(0, /*bloom_site=*/true);
      workers.push_back(h.workers);
      morsels.push_back(h.morsel_size);
      blooms.push_back(h.bloom);
    }
    EXPECT_EQ(workers, c.workers) << "pool " << c.pool;
    EXPECT_EQ(morsels, (std::vector<u64>{65536, 16384, 262144}));
    EXPECT_EQ(blooms, (std::vector<int>{1, 0, 1}));
    EXPECT_EQ(RecordLabels(book, "fpx/s0", StrategyKind::kThreadCount),
              c.thread_labels)
        << "pool " << c.pool;
    EXPECT_EQ(RecordLabels(book, "fpx/s0", StrategyKind::kMorselSize),
              (std::vector<std::string>{"m65536", "m16384", "m262144"}));
    EXPECT_EQ(RecordLabels(book, "fpx/s0", StrategyKind::kBloom),
              (std::vector<std::string>{"on", "off"}));
  }
}

TEST(StageStrategiesTest, BloomCreditsBuildPlusDependentStages) {
  // 0: join build (bloom site), 1: probes 0, 2: consumes 1 only,
  // 3: probes 0 and consumes 2.
  const std::vector<std::vector<int>> deps = {{}, {0}, {1}, {0, 2}};
  const u64 rows[] = {100, 1000, 50, 400};
  const u64 cycles[] = {7000, 90000, 3000, 20000};
  StrategyBook book;
  StageStrategies strategies(&book, "fpy", deps.size(), 4, 2048);
  for (int s = 0; s < 4; ++s) {
    strategies.Decide(s, /*bloom_site=*/s == 0);
    strategies.Measured(s, rows[s], cycles[s], deps[s]);
  }
  strategies.Reward();
  strategies.Reward();  // credits nothing more

  const std::vector<StrategyProfile> recs = book.ExportDelta();
  const StrategyProfile::Arm* bloom =
      RecordArm(recs, "fpy/s0", StrategyKind::kBloom, "on");
  ASSERT_NE(bloom, nullptr);
  EXPECT_EQ(bloom->decisions, 1u);
  EXPECT_EQ(bloom->tuples, 100u + 1000u + 400u);
  EXPECT_EQ(bloom->cycles, 7000u + 90000u + 20000u);
  // Thread and morsel decisions earn their own stage's timing only.
  for (int s = 0; s < 4; ++s) {
    const std::string site = "fpy/s" + std::to_string(s);
    for (const auto& [kind, label] :
         {std::pair{StrategyKind::kThreadCount, "t4"},
          std::pair{StrategyKind::kMorselSize, "m2048"}}) {
      const StrategyProfile::Arm* arm = RecordArm(recs, site, kind, label);
      ASSERT_NE(arm, nullptr) << site;
      EXPECT_EQ(arm->tuples, rows[s]) << site;
      EXPECT_EQ(arm->cycles, cycles[s]) << site;
    }
    if (s > 0) {
      EXPECT_TRUE(RecordLabels(book, site, StrategyKind::kBloom).empty());
    }
  }
}

TEST(StageStrategiesTest, NothingCreditedWithoutReward) {
  StrategyBook book;
  {
    StageStrategies strategies(&book, "fpz", 2, 4, 65536);
    strategies.Decide(0, /*bloom_site=*/true);
    strategies.Measured(0, 100, 5000, {});
    strategies.Decide(1, /*bloom_site=*/false);
    strategies.Measured(1, 900, 8000, {0});
  }  // a failed run: the scheduler never calls Reward()
  EXPECT_EQ(book.decisions(), 5u);
  for (const StrategyProfile& p : book.ExportDelta()) {
    for (const StrategyProfile::Arm& a : p.arms) {
      EXPECT_EQ(a.tuples, 0u) << p.site;
      EXPECT_EQ(a.cycles, 0u) << p.site;
    }
  }
}

TEST(StageStrategiesTest, NullBookGivesDefaultHints) {
  StageStrategies strategies(nullptr, "", 2, 4, 65536);
  const StageHints h = strategies.Decide(0, /*bloom_site=*/true);
  EXPECT_EQ(h.workers, 0);
  EXPECT_EQ(h.morsel_size, 0u);
  EXPECT_EQ(h.bloom, -1);
  strategies.Measured(0, 100, 5000, {});
  strategies.Measured(1, 100, 5000, {0});
  strategies.Reward();  // nothing to credit, nothing to crash on
}

// ---------------------------------------------------------------------
// ProfileStore v2: strategy records round-trip, v1 cold-starts.
// ---------------------------------------------------------------------

TEST(StrategyStoreTest, StrategyRecordsRoundTripBitExact) {
  ProfileStore store;
  // Real flavor profiles and strategy records side by side.
  {
    auto t = MakeNumbersTable(32 * 1024);
    QuerySession session;
    std::vector<HashAggOperator::AggSpec> aggs;
    HashAggOperator::AggSpec s;
    s.fn = "sum";
    s.arg = Col("x");
    s.out_name = "sum_x";
    aggs.push_back(std::move(s));
    PlanBuilder b = PlanBuilder::Scan(t.get(), {"a", "g", "x"}, "st/pscan");
    b.Filter(Lt(Col("a"), Lit(900)), "st/psel")
        .GroupBy({{"g", 8}}, {"g"}, std::move(aggs), "st/pagg");
    const LogicalPlan p = b.Build();
    ASSERT_TRUE(session.Run(p, plan::ExecMode::kSerial).ok());
    store.Merge(session.Profile());
    ASSERT_GT(store.size(), 0u);
  }
  StrategyProfile threads;
  threads.site = "fp0123456789abcdef/s1";
  threads.kind = StrategyKind::kThreadCount;
  threads.arms = {{"t4", 3, 3000, 900}, {"t1", 1, 1000, 5000}};
  StrategyProfile bloom;
  bloom.site = "fp0123456789abcdef/s1";
  bloom.kind = StrategyKind::kBloom;
  bloom.arms = {{"on", 2, 2000, 800}, {"off", 1, 1000, 700}};
  store.MergeStrategies({threads, bloom});
  EXPECT_EQ(store.strategies_size(), 2u);

  // Merging again folds by (site, kind, arm label).
  store.MergeStrategies({threads});
  EXPECT_EQ(store.strategies_size(), 2u);
  const std::vector<StrategyProfile> dump = store.DumpStrategies();
  ASSERT_EQ(dump.size(), 2u);
  for (const StrategyProfile& sp : dump) {
    if (sp.kind != StrategyKind::kThreadCount) continue;
    for (const StrategyProfile::Arm& arm : sp.arms) {
      if (arm.label == "t4") {
        EXPECT_EQ(arm.decisions, 6u);
      }
      if (arm.label == "t1") {
        EXPECT_EQ(arm.tuples, 2000u);
      }
    }
  }

  const std::string bytes = store.Serialize();
  ProfileStore copy;
  ASSERT_TRUE(copy.Deserialize(bytes).ok());
  EXPECT_EQ(copy.size(), store.size());
  EXPECT_EQ(copy.strategies_size(), store.strategies_size());
  EXPECT_EQ(copy.Serialize(), bytes);  // bit-exact round trip

  // Disk round trip too.
  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(store.Save(path).ok());
  ProfileStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.Serialize(), bytes);
  std::remove(path.c_str());
}

TEST(StrategyStoreTest, V1FileColdStartsCleanly) {
  ProfileStore store;
  StrategyProfile sp;
  sp.site = "fp00/s0";
  sp.kind = StrategyKind::kBloom;
  sp.arms = {{"on", 1, 100, 10}};
  store.MergeStrategies({sp});
  std::string v1 = store.Serialize();
  // A pre-strategy store differs only in the header version; readers
  // must refuse it whole rather than misparse the payload.
  v1[4] = 1;  // version u32 at offset 4 (little-endian)
  ProfileStore loaded;
  EXPECT_FALSE(loaded.Deserialize(v1).ok());
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.strategies_size(), 0u);  // never partially applied
}

// ---------------------------------------------------------------------
// Parallel TopN: byte-identical to the serial SortOperator.
// ---------------------------------------------------------------------

TEST(ParallelTopNTest, MatchesSerialSortAcrossThreadCounts) {
  auto t = MakeMixedTable(50 * 1024);
  const std::vector<std::string> cols = {"g", "x", "s", "a"};
  struct KeySet {
    std::vector<SortKey> keys;
    size_t limit;
  };
  const KeySet cases[] = {
      {{{"g", false}, {"x", true}}, 25},        // ties + desc f64
      {{{"s", false}, {"a", false}}, 100},      // string-keyed
      {{{"x", true}}, 7},                       // single f64 key
      {{{"g", true}}, 200 * 1024},              // limit > row count
  };
  for (const KeySet& kc : cases) {
    PlanBuilder b = PlanBuilder::Scan(t.get(), cols, "topn/scan");
    b.Sort(kc.keys, kc.limit);
    const LogicalPlan p = b.Build();
    ASSERT_TRUE(p.ok()) << p.status.ToString();
    const u64 serial_fp = SerialFingerprint(p);

    for (const int threads : {1, 2, 4}) {
      EngineConfig ecfg;
      ecfg.adaptive.mode = ExecMode::kAdaptive;
      ParallelConfig pcfg;
      pcfg.num_threads = threads;
      pcfg.morsel_size = 2048;
      ParallelExecutor exec{ecfg, pcfg};
      const RunResult r = exec.RunTopN(t.get(), cols, kc.keys, kc.limit);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(r.rows_emitted,
                std::min<u64>(kc.limit, t->row_count()));
      EXPECT_EQ(ExactFingerprint(*r.table), serial_fp)
          << "limit " << kc.limit << " at " << threads << " threads";
    }
  }
}

TEST(ParallelTopNTest, SessionSortLimitPlanIdenticalAcrossThreads) {
  auto t = MakeMixedTable(32 * 1024);
  const LogicalPlan p = TopNPlan(t.get(), 50);
  const u64 serial_fp = SerialFingerprint(p);
  plan::StagePlan sp;
  ASSERT_TRUE(plan::Compiler::BuildStagePlan(p, &sp).ok());
  ASSERT_EQ(sp.stages.back().kind, plan::Stage::Kind::kSort);
  const std::string sort_site =
      "/s" + std::to_string(sp.stages.back().id);
  for (const int threads : {1, 2, 4}) {
    for (const bool macro_on : {false, true}) {
      plan::SessionConfig sc;
      sc.parallel.num_threads = threads;
      sc.parallel.morsel_size = 2048;
      sc.min_parallel_rows = 4096;
      sc.macro.enabled = macro_on;
      if (macro_on) sc.macro.book = std::make_shared<StrategyBook>();
      QuerySession session(sc);
      // With macro-adaptivity on, repeated runs walk the root sort
      // stage's bandits through their arms (morsel 2048 gives the 512
      // and 8192 arms) and past the 16th decision's re-exploration; the
      // bytes never move.
      for (int round = 0; round < (macro_on ? 17 : 1); ++round) {
        const RunResult r = session.Run(p, plan::ExecMode::kParallel);
        ASSERT_TRUE(r.ok()) << r.status.ToString();
        EXPECT_EQ(ExactFingerprint(*r.table), serial_fp)
            << threads << " threads, macro=" << macro_on
            << " round=" << round;
      }
      if (!macro_on) continue;
      // The TopN is decided at its own stage site, with the thread
      // count and morsel size arms every stage gets.
      std::set<StrategyKind> kinds;
      for (const StrategyProfile& rec : sc.macro.book->ExportDelta()) {
        if (rec.site.ends_with(sort_site)) kinds.insert(rec.kind);
        EXPECT_FALSE(rec.site.ends_with("/tail")) << rec.site;
      }
      EXPECT_TRUE(kinds.count(StrategyKind::kThreadCount))
          << threads << " threads";
      EXPECT_TRUE(kinds.count(StrategyKind::kMorselSize))
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------
// Macro-adaptivity end to end: bytes never move, rewards only on
// success, servers learn and persist.
// ---------------------------------------------------------------------

TEST(MacroAdaptTest, LearnedRunsByteIdenticalToStaticAcrossThreads) {
  auto probe = MakeNumbersTable(32 * 1024, 7);
  auto build = MakeNumbersTable(2 * 1024, 8);
  auto mixed = MakeMixedTable(16 * 1024);
  const LogicalPlan join_plan = JoinAggSortPlan(probe.get(), build.get());
  const LogicalPlan topn_plan = TopNPlan(mixed.get(), 50);
  const u64 join_fp = SerialFingerprint(join_plan);
  const u64 topn_fp = SerialFingerprint(topn_plan);

  for (const int threads : {1, 2, 4}) {
    for (const bool macro_on : {false, true}) {
      plan::SessionConfig sc;
      sc.parallel.num_threads = threads;
      sc.parallel.morsel_size = 2048;
      sc.min_parallel_rows = 4096;
      sc.macro.enabled = macro_on;
      std::shared_ptr<StrategyBook> book;
      if (macro_on) {
        book = std::make_shared<StrategyBook>();
        sc.macro.book = book;
      }
      QuerySession session(sc);
      // Repeated runs walk the bandit through sweep, exploit and (at the
      // 16th decision) re-exploration arms, with morsel arms 2048, 512
      // and 8192; every one of them must produce the same bytes.
      for (int round = 0; round < (macro_on ? 17 : 6); ++round) {
        const RunResult jr =
            session.Run(join_plan, plan::ExecMode::kParallel);
        ASSERT_TRUE(jr.ok()) << jr.status.ToString();
        EXPECT_EQ(ExactFingerprint(*jr.table), join_fp)
            << "join, threads=" << threads << " macro=" << macro_on
            << " round=" << round;
        const RunResult tr =
            session.Run(topn_plan, plan::ExecMode::kParallel);
        ASSERT_TRUE(tr.ok()) << tr.status.ToString();
        EXPECT_EQ(ExactFingerprint(*tr.table), topn_fp)
            << "topn, threads=" << threads << " macro=" << macro_on
            << " round=" << round;
      }
      if (macro_on) {
        // The bandit actually ran: decisions and rewards accumulated
        // while the bytes stayed put.
        EXPECT_GT(book->decisions(), 0u);
        u64 rewarded = 0;
        for (const StrategyProfile& sp : book->ExportDelta()) {
          for (const StrategyProfile::Arm& arm : sp.arms) {
            rewarded += arm.tuples;
          }
        }
        EXPECT_GT(rewarded, 0u);
      }
    }
  }
}

TEST(MacroAdaptTest, OnlyJoinsThatCanBloomBuildFiltersOrDecideBloom) {
  // An anti join keeps exactly the probe rows a bloom filter would
  // discard, so use_bloom cannot apply to it: neither path makes a
  // /bloom instance, and the staged build makes no bloom decision. The
  // same plan as a semi join does both.
  auto probe = MakeNumbersTable(32 * 1024, 7);
  auto build = MakeNumbersTable(2 * 1024, 8);
  for (const HashJoinSpec::Kind kind :
       {HashJoinSpec::Kind::kSemi, HashJoinSpec::Kind::kAnti}) {
    const bool semi = kind == HashJoinSpec::Kind::kSemi;
    HashJoinSpec spec;
    spec.build_key = "a";
    spec.probe_key = "a";
    spec.kind = kind;
    spec.use_bloom = true;
    PlanBuilder p = PlanBuilder::Scan(probe.get(), {"a", "g"}, "st/scan");
    p.HashJoin(PlanBuilder::Scan(build.get(), {"a"}, "st/build"), spec,
               "st/join");
    const LogicalPlan plan = p.Build();
    ASSERT_TRUE(plan.ok()) << plan.status.ToString();
    for (const plan::ExecMode mode :
         {plan::ExecMode::kSerial, plan::ExecMode::kParallel}) {
      plan::SessionConfig sc;
      sc.parallel.num_threads = 2;
      sc.macro.enabled = true;
      sc.macro.book = std::make_shared<StrategyBook>();
      QuerySession session(sc);
      const RunResult r = session.Run(plan, mode);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      bool bloom_instance = false;
      for (const InstanceProfile& ip : session.Profile()) {
        bloom_instance |= ip.label.ends_with("/bloom");
      }
      EXPECT_EQ(bloom_instance, semi) << "semi=" << semi;
      if (mode != plan::ExecMode::kParallel) continue;
      bool bloom_decided = false;
      for (const StrategyProfile& rec : sc.macro.book->ExportDelta()) {
        bloom_decided |= rec.kind == StrategyKind::kBloom;
      }
      EXPECT_EQ(bloom_decided, semi) << "semi=" << semi;
    }
  }
}

TEST(MacroAdaptTest, FailedRunsNeverReward) {
  auto probe = MakeNumbersTable(32 * 1024, 7);
  auto build = MakeNumbersTable(2 * 1024, 8);
  const LogicalPlan p = JoinAggSortPlan(probe.get(), build.get());

  plan::SessionConfig sc;
  sc.parallel.num_threads = 2;
  sc.min_parallel_rows = 4096;
  sc.macro.enabled = true;
  sc.macro.book = std::make_shared<StrategyBook>();
  QuerySession session(sc);

  FaultInjector fi;
  fi.ArmFailure("parallel/", 1, StatusCode::kInternal, "injected");
  QueryContext ctx;
  ctx.set_fault_injector(&fi);
  const RunResult r = session.Run(p, plan::ExecMode::kParallel, &ctx);
  ASSERT_FALSE(r.ok());

  // Decisions were made before the failure, but no reward landed: a
  // partial run's timings never teach.
  EXPECT_GT(sc.macro.book->decisions(), 0u);
  for (const StrategyProfile& sp : sc.macro.book->ExportDelta()) {
    for (const StrategyProfile::Arm& arm : sp.arms) {
      EXPECT_EQ(arm.tuples, 0u) << sp.site;
      EXPECT_EQ(arm.cycles, 0u) << sp.site;
    }
  }

  // The same session heals on the next, un-faulted run — and rewards.
  const RunResult ok = session.Run(p, plan::ExecMode::kParallel);
  ASSERT_TRUE(ok.ok()) << ok.status.ToString();
  u64 rewarded_tuples = 0;
  for (const StrategyProfile& sp : sc.macro.book->ExportDelta()) {
    for (const StrategyProfile::Arm& arm : sp.arms) {
      rewarded_tuples += arm.tuples;
    }
  }
  EXPECT_GT(rewarded_tuples, 0u);
}

TEST(StrategyServerTest, LearnsPersistsAndWarmStartsByteIdentical) {
  auto probe = MakeNumbersTable(32 * 1024, 7);
  auto build = MakeNumbersTable(2 * 1024, 8);
  const LogicalPlan p = JoinAggSortPlan(probe.get(), build.get());
  const u64 serial_fp = SerialFingerprint(p);
  const std::string path = TempPath("server");
  std::remove(path.c_str());

  auto config = [&] {
    ServerConfig cfg;
    cfg.pool_threads = 2;
    cfg.max_concurrent = 1;
    cfg.max_parallel_queries = 1;
    cfg.admission.max_queue_depth = 64;
    cfg.admission.queue_deadline = std::chrono::milliseconds(0);
    cfg.session.parallel.morsel_size = 2048;
    cfg.session.min_parallel_rows = 4096;
    cfg.knowledge.strategies = true;
    cfg.knowledge.store_path = path;
    return cfg;
  };

  {
    WorkloadServer server(config());
    EXPECT_FALSE(server.warm_started());  // no file yet: cold
    for (int i = 0; i < 4; ++i) {
      QueryHandle h = server.Submit(&p, "strat");
      const serve::QueryResult& qr = h.Wait();
      ASSERT_TRUE(qr.run.ok()) << qr.run.status.ToString();
      EXPECT_EQ(ExactFingerprint(*qr.run.table), serial_fp);
    }
    server.Shutdown();  // merges the strategy delta, saves the store
    const serve::ServerStats stats = server.stats();
    EXPECT_GT(stats.strategy_decisions, 0u);
    EXPECT_GT(stats.store_strategies, 0u);
    EXPECT_GT(server.knowledge_store()->strategies_size(), 0u);
  }
  {
    WorkloadServer server(config());
    EXPECT_TRUE(server.warm_started());
    EXPECT_GT(server.knowledge_store()->strategies_size(), 0u);
    QueryHandle h = server.Submit(&p, "strat-warm");
    const serve::QueryResult& qr = h.Wait();
    ASSERT_TRUE(qr.run.ok()) << qr.run.status.ToString();
    // The seeded book steers arms, never bytes.
    EXPECT_EQ(ExactFingerprint(*qr.run.table), serial_fp);
    EXPECT_GT(server.stats().strategy_decisions, 0u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ma
