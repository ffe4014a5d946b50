// Morsel-driven parallel execution: scheduler coverage, multi-thread vs
// single-thread result parity on scan/select/project, hash-join and
// hash-agg pipelines, byte-identity of streaming pipelines across
// thread counts, per-thread bandit independence, and profile merging.
// This binary is also the target of the ThreadSanitizer CI job: it
// exercises the work-stealing queue, the shared (read-only) join build
// probed concurrently, and the post-run profile merge.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "adapt/profile_merge.h"
#include "exec/op_hash_agg.h"
#include "exec/op_hash_join.h"
#include "exec/op_project.h"
#include "exec/op_scan.h"
#include "exec/op_select.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/morsel_scan.h"
#include "exec/parallel/parallel_executor.h"
#include "exec/parallel/thread_pool.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "common/rng.h"
#include "table_fingerprint.h"
#include "tpch/dbgen.h"

namespace ma {
namespace {

// ---------------------------------------------------------------------
// Scheduler building blocks.
// ---------------------------------------------------------------------

TEST(MorselQueueTest, EveryMorselClaimedExactlyOnce) {
  MorselQueue q(1000, 64, /*num_workers=*/3);
  EXPECT_EQ(q.num_morsels(), 16u);  // ceil(1000 / 64)
  std::vector<int> claimed(q.num_morsels(), 0);
  u64 rows = 0;
  Morsel m;
  // Worker 2 drains everything: its own partition, then steals the rest.
  while (q.Next(2, &m)) {
    claimed[m.index] += 1;
    rows += m.end - m.begin;
    EXPECT_EQ(m.begin, static_cast<u64>(m.index) * 64);
  }
  for (size_t i = 0; i < claimed.size(); ++i) {
    EXPECT_EQ(claimed[i], 1) << "morsel " << i;
  }
  EXPECT_EQ(rows, 1000u);
  EXPECT_FALSE(q.Next(0, &m));  // nothing left for anyone
}

TEST(MorselQueueTest, StealingDisabledConfinesWorkersToPartitions) {
  MorselQueue q(8 * 64, 64, /*num_workers=*/2, /*stealing=*/false);
  Morsel m;
  std::set<size_t> w0;
  while (q.Next(0, &m)) w0.insert(m.index);
  EXPECT_EQ(w0, (std::set<size_t>{0, 1, 2, 3}));
  std::set<size_t> w1;
  while (q.Next(1, &m)) w1.insert(m.index);
  EXPECT_EQ(w1, (std::set<size_t>{4, 5, 6, 7}));
}

TEST(MorselQueueTest, ConcurrentDrainClaimsEachMorselOnce) {
  constexpr int kWorkers = 4;
  MorselQueue q(512 * 100, 100, kWorkers);
  std::vector<std::atomic<int>> claimed(q.num_morsels());
  for (auto& c : claimed) c.store(0);
  ThreadPool pool(kWorkers);
  pool.Run([&](int w) {
    Morsel m;
    while (q.Next(w, &m)) claimed[m.index].fetch_add(1);
  });
  for (size_t i = 0; i < claimed.size(); ++i) {
    EXPECT_EQ(claimed[i].load(), 1) << "morsel " << i;
  }
}

TEST(ThreadPoolTest, RunsEveryWorkerEachPhase) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  for (int phase = 0; phase < 5; ++phase) {
    pool.Run([&](int w) { hits[w].fetch_add(1); });
  }
  for (int w = 0; w < 3; ++w) EXPECT_EQ(hits[w].load(), 5);
}

// ---------------------------------------------------------------------
// Pipeline parity.
// ---------------------------------------------------------------------

// (ExactFingerprint comes from table_fingerprint.h.)

std::unique_ptr<Table> MakeNumbersTable(size_t rows) {
  Rng rng(321);
  auto t = std::make_unique<Table>("numbers");
  Column* a = t->AddColumn("a", PhysicalType::kI64);
  Column* b = t->AddColumn("x", PhysicalType::kF64);
  for (size_t i = 0; i < rows; ++i) {
    a->Append<i64>(static_cast<i64>(rng.NextBounded(1000)));
    b->Append<f64>(static_cast<f64>(rng.NextRange(-500, 500)) / 3.0);
  }
  t->set_row_count(rows);
  return t;
}

ParallelExecutor::PipelineFactory SelectProjectFactory() {
  return [](Engine* engine, OperatorPtr scan) -> OperatorPtr {
    auto select = std::make_unique<SelectOperator>(
        engine, std::move(scan), Lt(Col("a"), Lit(400)), "p/select");
    std::vector<ProjectOperator::Output> outs;
    outs.push_back({"a", Col("a")});
    outs.push_back({"y", Mul(Col("x"), Lit(2.0))});
    return std::make_unique<ProjectOperator>(engine, std::move(select),
                                             std::move(outs), "p/project");
  };
}

TEST(ParallelPipelineTest, MatchesSingleThreadedEngineByteForByte) {
  auto table = MakeNumbersTable(40 * 1024);

  // Single-threaded reference through the classic Engine.
  Engine engine{EngineConfig()};
  auto scan = std::make_unique<ScanOperator>(&engine, table.get());
  auto select = std::make_unique<SelectOperator>(
      &engine, std::move(scan), Lt(Col("a"), Lit(400)), "s/select");
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"a", Col("a")});
  outs.push_back({"y", Mul(Col("x"), Lit(2.0))});
  ProjectOperator project(&engine, std::move(select), std::move(outs),
                          "s/project");
  const RunResult ref = engine.Run(project);

  ParallelConfig pcfg;
  pcfg.morsel_size = 4 * 1024;  // 10 morsels: more than any thread count
  for (const int threads : {1, 2, 4}) {
    pcfg.num_threads = threads;
    ParallelExecutor exec{EngineConfig(), pcfg};
    const RunResult got =
        exec.RunPipeline(table.get(), {"a", "x"}, SelectProjectFactory());
    EXPECT_EQ(got.rows_emitted, ref.rows_emitted) << threads;
    EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table))
        << threads << " threads";
  }
}

TEST(ParallelPipelineTest, EmptyTableYieldsEmptyResult) {
  Table empty("empty");
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  ParallelExecutor exec{EngineConfig(), pcfg};
  const RunResult r =
      exec.RunPipeline(&empty, {}, [](Engine*, OperatorPtr scan) {
        return scan;
      });
  EXPECT_EQ(r.rows_emitted, 0u);
  EXPECT_EQ(r.table->row_count(), 0u);
}

// ---------------------------------------------------------------------
// Parallel hash join: shared build, per-thread probe.
// ---------------------------------------------------------------------

struct JoinTables {
  std::unique_ptr<Table> build;
  std::unique_ptr<Table> probe;
};

JoinTables MakeJoinTables(size_t build_rows, size_t probe_rows) {
  Rng rng(99);
  JoinTables t;
  t.build = std::make_unique<Table>("build");
  Column* bk = t.build->AddColumn("k", PhysicalType::kI64);
  Column* bv = t.build->AddColumn("bv", PhysicalType::kI64);
  for (size_t i = 0; i < build_rows; ++i) {
    bk->Append<i64>(static_cast<i64>(rng.NextBounded(200)));  // dup keys
    bv->Append<i64>(static_cast<i64>(i) * 3);
  }
  t.build->set_row_count(build_rows);
  t.probe = std::make_unique<Table>("probe");
  Column* pk = t.probe->AddColumn("k", PhysicalType::kI64);
  Column* pv = t.probe->AddColumn("pv", PhysicalType::kI64);
  for (size_t i = 0; i < probe_rows; ++i) {
    pk->Append<i64>(static_cast<i64>(rng.NextBounded(400)));  // ~50% miss
    pv->Append<i64>(static_cast<i64>(i));
  }
  t.probe->set_row_count(probe_rows);
  return t;
}

HashJoinSpec InnerSpec() {
  HashJoinSpec spec;
  spec.build_key = "k";
  spec.probe_key = "k";
  spec.build_outputs = {{"bv", "bv"}};
  spec.probe_outputs = {"k", "pv"};
  spec.kind = HashJoinSpec::Kind::kInner;
  return spec;
}

TEST(ParallelJoinTest, InnerJoinMatchesSingleThreadInOrder) {
  // Build keys are deliberately filtered (k < 150) so the parallel
  // build exercises a pipeline above the morsel scan too.
  const JoinTables t = MakeJoinTables(3000, 20 * 1024);

  Engine engine{EngineConfig()};
  auto build_scan =
      std::make_unique<ScanOperator>(&engine, t.build.get());
  auto build_sel = std::make_unique<SelectOperator>(
      &engine, std::move(build_scan), Lt(Col("k"), Lit(150)), "s/bsel");
  auto probe_scan =
      std::make_unique<ScanOperator>(&engine, t.probe.get());
  HashJoinOperator ref_join(&engine, std::move(build_sel),
                            std::move(probe_scan), InnerSpec(), "s/join");
  const RunResult ref = engine.Run(ref_join);

  ParallelConfig pcfg;
  pcfg.morsel_size = 2048;
  for (const int threads : {1, 3}) {
    pcfg.num_threads = threads;
    ParallelExecutor exec{EngineConfig(), pcfg};
    auto shared = exec.BuildJoin(
        t.build.get(), {"k", "bv"},
        [](Engine* engine, OperatorPtr scan) -> OperatorPtr {
          return std::make_unique<SelectOperator>(engine, std::move(scan),
                                                  Lt(Col("k"), Lit(150)),
                                                  "p/bsel");
        },
        InnerSpec());
    EXPECT_EQ(shared->ht.num_rows(), ref_join.build_rows());
    const SharedJoinBuild* shared_raw = shared.get();
    const RunResult got = exec.RunPipeline(
        t.probe.get(), {"k", "pv"},
        [shared_raw](Engine* engine, OperatorPtr scan) -> OperatorPtr {
          return std::make_unique<HashJoinOperator>(
              engine, shared_raw, std::move(scan), InnerSpec(), "p/join");
        });
    EXPECT_EQ(got.rows_emitted, ref.rows_emitted) << threads;
    EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table))
        << threads << " threads";
  }
}

TEST(ParallelJoinTest, SemiJoinMatchesSingleThread) {
  const JoinTables t = MakeJoinTables(2000, 16 * 1024);
  HashJoinSpec spec;
  spec.build_key = "k";
  spec.probe_key = "k";
  spec.kind = HashJoinSpec::Kind::kSemi;
  spec.use_bloom = true;

  Engine engine{EngineConfig()};
  HashJoinOperator ref_join(
      &engine,
      std::make_unique<ScanOperator>(&engine, t.build.get()),
      std::make_unique<ScanOperator>(&engine, t.probe.get()), spec,
      "s/semi");
  const RunResult ref = engine.Run(ref_join);

  ParallelConfig pcfg;
  pcfg.num_threads = 3;
  pcfg.morsel_size = 2048;
  ParallelExecutor exec{EngineConfig(), pcfg};
  auto shared = exec.BuildJoin(
      t.build.get(), {"k"},
      [](Engine*, OperatorPtr scan) { return scan; }, spec);
  ASSERT_NE(shared->bloom, nullptr);
  const SharedJoinBuild* shared_raw = shared.get();
  const RunResult got = exec.RunPipeline(
      t.probe.get(), {"k", "pv"},
      [shared_raw, spec](Engine* engine, OperatorPtr scan) -> OperatorPtr {
        return std::make_unique<HashJoinOperator>(
            engine, shared_raw, std::move(scan), spec, "p/semi");
      });
  EXPECT_EQ(got.rows_emitted, ref.rows_emitted);
  EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table));
}

/// Runs the probe side of `t` against `build` on `exec`'s workers.
RunResult ProbeShared(ParallelExecutor* exec, const JoinTables& t,
                      const SharedJoinBuild* build, const HashJoinSpec& spec) {
  return exec->RunPipeline(
      t.probe.get(), {"k", "pv"},
      [build, spec](Engine* engine, OperatorPtr scan) -> OperatorPtr {
        return std::make_unique<HashJoinOperator>(
            engine, build, std::move(scan), spec, "p/join");
      });
}

// A left outer join whose build side keeps no rows: the serial and the
// staged build both type their columns from the declared types and
// append the same default row, so every probe row emits once with a
// zero payload. Left outer never blooms, whatever the spec or hint.
TEST(ParallelJoinTest, LeftOuterOverEmptyBuildMatchesSerial) {
  const JoinTables t = MakeJoinTables(2000, 8 * 1024);
  HashJoinSpec spec = InnerSpec();
  spec.kind = HashJoinSpec::Kind::kLeftOuter;
  spec.use_bloom = true;
  spec.build_output_types = {PhysicalType::kI64};
  const auto keep_none = [](Engine* engine, OperatorPtr scan) -> OperatorPtr {
    return std::make_unique<SelectOperator>(engine, std::move(scan),
                                            Lt(Col("k"), Lit(0)), "bsel");
  };

  Engine engine{EngineConfig()};
  HashJoinOperator ref_join(
      &engine,
      keep_none(&engine,
                std::make_unique<ScanOperator>(&engine, t.build.get())),
      std::make_unique<ScanOperator>(&engine, t.probe.get()), spec,
      "s/outer");
  const RunResult ref = engine.Run(ref_join);
  ASSERT_TRUE(ref.status.ok()) << ref.status.message();
  EXPECT_EQ(ref_join.build_rows(), 0u);
  EXPECT_EQ(ref.rows_emitted, t.probe->row_count());

  StageHints bloom_on;
  bloom_on.bloom = 1;
  ParallelConfig pcfg;
  pcfg.morsel_size = 1024;
  for (const int threads : {1, 3}) {
    pcfg.num_threads = threads;
    ParallelExecutor exec{EngineConfig(), pcfg};
    auto shared = exec.BuildJoin(t.build.get(), {"k", "bv"}, keep_none,
                                 spec, bloom_on);
    ASSERT_NE(shared, nullptr) << exec.context()->status().message();
    EXPECT_EQ(shared->ht.num_rows(), 0u);
    EXPECT_EQ(shared->bloom, nullptr);
    const RunResult got = ProbeShared(&exec, t, shared.get(), spec);
    EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table))
        << threads << " threads";
  }

  // Without declared types the default row has no types: both paths
  // reject the join with a typed status.
  spec.build_output_types.clear();
  HashJoinOperator untyped(
      &engine,
      keep_none(&engine,
                std::make_unique<ScanOperator>(&engine, t.build.get())),
      std::make_unique<ScanOperator>(&engine, t.probe.get()), spec,
      "s/untyped");
  EXPECT_EQ(engine.Run(untyped).status.code(), StatusCode::kInvalidArgument);
  ParallelExecutor exec{EngineConfig(), pcfg};
  EXPECT_EQ(exec.BuildJoin(t.build.get(), {"k", "bv"}, keep_none, spec),
            nullptr);
  EXPECT_EQ(exec.context()->status().code(), StatusCode::kInvalidArgument);
}

// The bloom hint only decides whether the staged build fills a filter;
// the probe uses it exactly when it exists, and both arms give the
// serial operator's bytes.
TEST(ParallelJoinTest, BloomHintOnAndOffMatchSerial) {
  const JoinTables t = MakeJoinTables(3000, 16 * 1024);
  HashJoinSpec spec = InnerSpec();
  spec.use_bloom = true;

  Engine engine{EngineConfig()};
  HashJoinOperator ref_join(
      &engine, std::make_unique<ScanOperator>(&engine, t.build.get()),
      std::make_unique<ScanOperator>(&engine, t.probe.get()), spec,
      "s/join");
  const RunResult ref = engine.Run(ref_join);
  ASSERT_TRUE(ref.status.ok());

  ParallelConfig pcfg;
  pcfg.num_threads = 3;
  pcfg.morsel_size = 2048;
  for (const int bloom : {0, 1}) {
    ParallelExecutor exec{EngineConfig(), pcfg};
    StageHints hints;
    hints.bloom = bloom;
    auto shared = exec.BuildJoin(
        t.build.get(), {"k", "bv"},
        [](Engine*, OperatorPtr scan) { return scan; }, spec, hints);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->bloom != nullptr, bloom == 1);
    EXPECT_EQ(shared->ht.num_rows(), ref_join.build_rows());
    const RunResult got = ProbeShared(&exec, t, shared.get(), spec);
    EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table))
        << "bloom " << bloom;
    bool probed_bloom = false;
    for (const InstanceProfile& p : exec.MergedProfile()) {
      probed_bloom |= p.label == "p/join/bloom";
    }
    EXPECT_EQ(probed_bloom, bloom == 1);
  }
}

// ---------------------------------------------------------------------
// Parallel aggregation: thread-local pre-aggregation + merge.
// ---------------------------------------------------------------------

TEST(ParallelAggTest, GroupedAggregatesMatchReference) {
  Rng rng(7);
  constexpr size_t kRows = 30000;
  auto table = std::make_unique<Table>("t");
  Column* g = table->AddColumn("g", PhysicalType::kI64);
  Column* v = table->AddColumn("v", PhysicalType::kI64);
  Column* x = table->AddColumn("x", PhysicalType::kF64);
  struct Ref {
    i64 sum_v = 0;
    f64 sum_x = 0;
    i64 min_v = std::numeric_limits<i64>::max();
    i64 cnt = 0;
  };
  std::map<i64, Ref> ref;
  for (size_t i = 0; i < kRows; ++i) {
    const i64 gi = static_cast<i64>(rng.NextBounded(37));
    const i64 vi = static_cast<i64>(rng.NextRange(-100, 100));
    const f64 xi = static_cast<f64>(rng.NextRange(-1000, 1000)) / 7.0;
    g->Append<i64>(gi);
    v->Append<i64>(vi);
    x->Append<f64>(xi);
    Ref& r = ref[gi];
    r.sum_v += vi;
    r.sum_x += xi;
    r.min_v = std::min(r.min_v, vi);
    r.cnt += 1;
  }
  table->set_row_count(kRows);

  ParallelExecutor::AggPlan plan;
  plan.group_keys = {{"g", 8}};
  plan.group_outputs = {"g"};
  {
    HashAggOperator::AggSpec s;
    s.fn = "sum";
    s.arg = Col("v");
    s.out_name = "sum_v";
    s.type_hint = PhysicalType::kI64;
    plan.aggs.push_back(std::move(s));
  }
  {
    HashAggOperator::AggSpec s;
    s.fn = "sum";
    s.arg = Col("x");
    s.out_name = "sum_x";
    plan.aggs.push_back(std::move(s));
  }
  {
    HashAggOperator::AggSpec s;
    s.fn = "min";
    s.arg = Col("v");
    s.out_name = "min_v";
    s.type_hint = PhysicalType::kI64;
    plan.aggs.push_back(std::move(s));
  }
  {
    HashAggOperator::AggSpec s;
    s.fn = "count";
    s.arg = nullptr;
    s.out_name = "cnt";
    plan.aggs.push_back(std::move(s));
  }
  {
    HashAggOperator::AggSpec s;
    s.fn = "avg";
    s.arg = Col("x");
    s.out_name = "avg_x";
    plan.aggs.push_back(std::move(s));
  }

  ParallelConfig pcfg;
  pcfg.num_threads = 4;
  pcfg.morsel_size = 2048;
  ParallelExecutor exec{EngineConfig(), pcfg};
  const RunResult r = exec.RunAgg(
      table.get(), {"g", "v", "x"},
      [](Engine*, OperatorPtr scan) { return scan; }, plan);

  ASSERT_EQ(r.table->row_count(), ref.size());
  const Column* og = r.table->FindColumn("g");
  const Column* osum_v = r.table->FindColumn("sum_v");
  const Column* osum_x = r.table->FindColumn("sum_x");
  const Column* omin_v = r.table->FindColumn("min_v");
  const Column* ocnt = r.table->FindColumn("cnt");
  const Column* oavg_x = r.table->FindColumn("avg_x");
  ASSERT_NE(og, nullptr);
  i64 prev_key = std::numeric_limits<i64>::min();
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    const i64 key = og->Get<i64>(i);
    EXPECT_GT(key, prev_key) << "groups must come out key-sorted";
    prev_key = key;
    ASSERT_TRUE(ref.count(key));
    const Ref& e = ref[key];
    EXPECT_EQ(osum_v->Get<i64>(i), e.sum_v);
    EXPECT_EQ(omin_v->Get<i64>(i), e.min_v);
    EXPECT_EQ(ocnt->Get<i64>(i), e.cnt);
    // f64 merge order differs from the reference's sequential order.
    EXPECT_NEAR(osum_x->Get<f64>(i), e.sum_x,
                1e-6 * (1.0 + std::abs(e.sum_x)));
    EXPECT_NEAR(oavg_x->Get<f64>(i), e.sum_x / e.cnt,
                1e-6 * (1.0 + std::abs(e.sum_x / e.cnt)));
  }
}

TEST(ParallelAggTest, GlobalAggregateMatchesReference) {
  constexpr size_t kRows = 10000;
  auto table = std::make_unique<Table>("t");
  Column* v = table->AddColumn("v", PhysicalType::kI64);
  i64 expect = 0;
  for (size_t i = 0; i < kRows; ++i) {
    v->Append<i64>(static_cast<i64>(i % 91));
    expect += static_cast<i64>(i % 91);
  }
  table->set_row_count(kRows);

  ParallelExecutor::AggPlan plan;
  {
    HashAggOperator::AggSpec s;
    s.fn = "sum";
    s.arg = Col("v");
    s.out_name = "total";
    s.type_hint = PhysicalType::kI64;
    plan.aggs.push_back(std::move(s));
  }
  ParallelConfig pcfg;
  pcfg.num_threads = 3;
  pcfg.morsel_size = 1024;
  ParallelExecutor exec{EngineConfig(), pcfg};
  const RunResult r = exec.RunAgg(
      table.get(), {"v"}, [](Engine*, OperatorPtr scan) { return scan; },
      plan);
  ASSERT_EQ(r.table->row_count(), 1u);
  EXPECT_EQ(r.table->FindColumn("total")->Get<i64>(0), expect);
}

TEST(ParallelAggTest, WorkerThatDrainsNothingCannotPoisonMergedType) {
  // Worker 0's whole partition is filtered out before the aggregation,
  // so its HashAggOperator never binds an update kernel and falls back
  // to the AggSpec type_hint — deliberately left at the kF64 default
  // here while the data is i64. The merge must take the accumulator
  // type from the worker that actually saw rows, not from partial 0.
  constexpr size_t kRows = 2048;
  auto table = std::make_unique<Table>("t");
  Column* v = table->AddColumn("v", PhysicalType::kI64);
  i64 expect = 0;
  for (size_t i = 0; i < kRows; ++i) {
    const i64 val = i < kRows / 2 ? 10000 : static_cast<i64>(i % 7);
    v->Append<i64>(val);
    if (val < 5000) expect += val;
  }
  table->set_row_count(kRows);

  ParallelExecutor::AggPlan plan;
  {
    HashAggOperator::AggSpec s;
    s.fn = "sum";
    s.arg = Col("v");
    s.out_name = "total";  // type_hint stays at the kF64 default
    plan.aggs.push_back(std::move(s));
  }
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  pcfg.morsel_size = kRows / 2;  // one morsel per worker
  pcfg.work_stealing = false;
  ParallelExecutor exec{EngineConfig(), pcfg};
  const RunResult r = exec.RunAgg(
      table.get(), {"v"},
      [](Engine* engine, OperatorPtr scan) -> OperatorPtr {
        return std::make_unique<SelectOperator>(
            engine, std::move(scan), Lt(Col("v"), Lit(5000)), "p/sel");
      },
      plan);
  ASSERT_EQ(r.table->row_count(), 1u);
  const Column* total = r.table->FindColumn("total");
  ASSERT_EQ(total->type(), PhysicalType::kI64);
  EXPECT_EQ(total->Get<i64>(0), expect);
}

TEST(ParallelAggTest, ClusteredKeysWithStealingMatchSerialByteForByte) {
  // lineitem arrives in l_orderkey order, so every worker's group table
  // starts in run mode. With tiny morsels, stealing hands workers
  // morsels out of order (a thief takes from the back of a victim's
  // partition), and such a table falls back to hash mode mid-input;
  // merging into one that did not leaves run mode at the first smaller
  // key. Either way the merge must reproduce the serial result byte for
  // byte.
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  const auto data = tpch::Generate(cfg);
  const std::vector<std::string> columns{"l_orderkey", "l_suppkey",
                                         "l_extendedprice"};
  auto make_aggs = [] {
    std::vector<HashAggOperator::AggSpec> aggs;
    aggs.push_back({"count", nullptr, "cnt"});
    aggs.push_back({"sum", Col("l_extendedprice"), "revenue",
                    PhysicalType::kF64, /*exact_f64_sum=*/true});
    aggs.push_back({"min", Col("l_suppkey"), "min_supp",
                    PhysicalType::kI64});
    return aggs;
  };
  const std::vector<HashAggOperator::GroupKey> keys{{"l_orderkey", 36}};

  Engine engine{EngineConfig()};
  HashAggOperator serial(
      &engine,
      std::make_unique<ScanOperator>(&engine, data->lineitem, columns),
      keys, {"l_orderkey"}, make_aggs());
  const RunResult ref = engine.Run(serial);
  ASSERT_TRUE(ref.status.ok());
  ASSERT_GT(ref.table->row_count(), 10000u);

  ParallelConfig pcfg;
  pcfg.num_threads = 4;
  pcfg.morsel_size = 512;
  ParallelExecutor exec{EngineConfig(), pcfg};
  ParallelExecutor::AggPlan plan;
  plan.group_keys = keys;
  plan.group_outputs = {"l_orderkey"};
  plan.aggs = make_aggs();
  for (int round = 0; round < 3; ++round) {
    const RunResult got = exec.RunAgg(
        data->lineitem, columns,
        [](Engine*, OperatorPtr scan) { return scan; }, plan);
    ASSERT_TRUE(got.status.ok());
    EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table))
        << "round " << round;
  }
}

// ---------------------------------------------------------------------
// HashAggOperator::Merge: the one merge step of staged aggregation.
// ---------------------------------------------------------------------

/// Input rows for the merge tests: key `k` drawn from [lo, hi) (ascending
/// when `sorted`), a per-row string `tag` so first-seen group outputs
/// are observable, an i64 measure `v` and an f64 measure `x`.
struct AggRows {
  std::vector<i64> k, v;
  std::vector<std::string> tag;
  std::vector<f64> x;
};

AggRows DrawAggRows(Rng* rng, i64 lo, i64 hi, size_t n, bool sorted) {
  AggRows r;
  for (size_t i = 0; i < n; ++i) {
    r.k.push_back(lo + static_cast<i64>(rng->NextBounded(hi - lo)));
  }
  if (sorted) std::sort(r.k.begin(), r.k.end());
  for (size_t i = 0; i < n; ++i) {
    r.tag.push_back("r" + std::to_string(rng->NextBounded(1000)));
    r.v.push_back(rng->NextRange(-500, 500));
    r.x.push_back(static_cast<f64>(rng->NextRange(-10000, 10000)) / 7.0);
  }
  return r;
}

/// One table holding `parts`' rows in order.
std::unique_ptr<Table> AggTable(const std::vector<const AggRows*>& parts) {
  auto t = std::make_unique<Table>("t");
  Column* k = t->AddColumn("k", PhysicalType::kI64);
  Column* tag = t->AddColumn("tag", PhysicalType::kStr);
  Column* v = t->AddColumn("v", PhysicalType::kI64);
  Column* x = t->AddColumn("x", PhysicalType::kF64);
  size_t rows = 0;
  for (const AggRows* p : parts) {
    for (size_t i = 0; i < p->k.size(); ++i) {
      k->Append<i64>(p->k[i]);
      tag->AppendString(p->tag[i]);
      v->Append<i64>(p->v[i]);
      x->Append<f64>(p->x[i]);
    }
    rows += p->k.size();
  }
  t->set_row_count(rows);
  return t;
}

/// Every aggregate kind over the i64 and the f64 measure; f64 sums are
/// exact, as plan compilation makes them.
std::vector<HashAggOperator::AggSpec> EveryAggregate() {
  std::vector<HashAggOperator::AggSpec> aggs;
  aggs.push_back({"count", nullptr, "cnt"});
  for (const std::string fn : {"sum", "min", "max", "avg"}) {
    aggs.push_back({fn, Col("v"), fn + "_v", PhysicalType::kI64, true});
    aggs.push_back({fn, Col("x"), fn + "_x", PhysicalType::kF64, true});
  }
  return aggs;
}

/// Emits every group of a drained (and possibly merged) operator.
std::unique_ptr<Table> DrainAgg(HashAggOperator* op) {
  auto t = std::make_unique<Table>("result");
  Batch batch;
  while (op->Next(&batch)) {
    AppendBatchToTable(batch, t.get());
    batch.Clear();
  }
  return t;
}

TEST(HashAggMergeTest, MergedEqualsOneOperatorOverConcatenatedInput) {
  const std::vector<std::string> cols{"k", "tag", "v", "x"};
  struct Case {
    const char* name;
    bool grouped;
    bool other_sorted;  // other's keys arrive clustered
    i64 other_lo;       // other's keys are [other_lo, other_lo + 60)
    size_t groups;      // distinct keys of both inputs together
  };
  // The merge target always drains clustered keys [0, 60) and is still
  // in run mode. Shuffled overlapping keys make the merge leave run
  // mode; a clustered tail starting at the target's last run keeps it.
  for (const Case& c : {Case{"shuffled overlap", true, false, 30, 90},
                        Case{"clustered tail", true, true, 59, 119},
                        Case{"global", false, false, 30, 1}}) {
    Rng rng{7};
    const AggRows a = DrawAggRows(&rng, 0, 60, 3000, true);
    const AggRows b =
        DrawAggRows(&rng, c.other_lo, c.other_lo + 60, 3000, c.other_sorted);
    const auto ta = AggTable({&a});
    const auto tb = AggTable({&b});
    const auto tab = AggTable({&a, &b});
    Engine engine{EngineConfig()};
    auto make = [&](const Table* t) {
      std::vector<HashAggOperator::GroupKey> keys;
      std::vector<std::string> outputs;
      if (c.grouped) {
        keys = {{"k", 8}};
        outputs = {"tag"};
      }
      return std::make_unique<HashAggOperator>(
          &engine, std::make_unique<ScanOperator>(&engine, t, cols), keys,
          outputs, EveryAggregate());
    };
    auto ref = make(tab.get());
    auto into = make(ta.get());
    auto other = make(tb.get());
    ASSERT_TRUE(ref->Open().ok());
    ASSERT_TRUE(into->Open().ok());
    ASSERT_TRUE(other->Open().ok());
    EXPECT_EQ(into->in_run_mode(), c.grouped) << c.name;
    into->Merge(*other);
    EXPECT_EQ(into->in_run_mode(), c.grouped && c.other_sorted) << c.name;
    EXPECT_EQ(into->num_groups(), ref->num_groups()) << c.name;
    const auto want = DrainAgg(ref.get());
    const auto got = DrainAgg(into.get());
    EXPECT_EQ(got->row_count(), c.groups) << c.name;
    EXPECT_EQ(ExactFingerprint(*got), ExactFingerprint(*want)) << c.name;
  }
}

TEST(HashAggMergeTest, ZeroRowAggregationSameBytesSerialAndStaged) {
  // A filter no row passes: no worker sees a row, so the staged result
  // is worker 0's unmerged state. Grouped, that is no groups and no
  // batch, and the session restores the declared columns as it does
  // for the serial path; global, it is the one identity group.
  Rng rng{11};
  const AggRows rows = DrawAggRows(&rng, 0, 60, 5000, true);
  const auto table = AggTable({&rows});
  for (const bool grouped : {true, false}) {
    std::vector<HashAggOperator::GroupKey> keys;
    std::vector<std::string> outputs;
    if (grouped) {
      keys = {{"k", 8}};
      outputs = {"k", "tag"};
    }
    plan::PlanBuilder b =
        plan::PlanBuilder::Scan(table.get(), {"k", "tag", "v", "x"});
    b.Filter(Lt(Col("v"), Lit(static_cast<i64>(-1000))), "zero/sel");
    b.GroupBy(keys, outputs, EveryAggregate(), "zero/agg");
    const plan::LogicalPlan p = b.Build();
    ASSERT_TRUE(p.ok()) << p.status.message();

    plan::QuerySession serial{plan::SessionConfig{}};
    const RunResult ref = serial.Run(p, plan::ExecMode::kSerial);
    ASSERT_TRUE(ref.ok()) << ref.status.ToString();
    EXPECT_EQ(ref.table->row_count(), grouped ? 0u : 1u);
    EXPECT_EQ(ref.table->num_columns(), outputs.size() + 9);
    for (const int threads : {1, 2, 4}) {
      plan::SessionConfig sc;
      sc.parallel.num_threads = threads;
      sc.parallel.morsel_size = 1024;
      plan::QuerySession session{sc};
      const RunResult got = session.Run(p, plan::ExecMode::kParallel);
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      ASSERT_TRUE(session.last_run_parallel());
      EXPECT_EQ(ExactFingerprint(*got.table), ExactFingerprint(*ref.table))
          << (grouped ? "grouped" : "global") << " at " << threads
          << " threads";
    }
  }
}

// ---------------------------------------------------------------------
// Per-thread bandit independence.
// ---------------------------------------------------------------------

/// Synthetic selection flavors with data-dependent cost: both compute
/// the correct `a < bound` selection, but one burns extra cycles on
/// values >= 1000 and the other on values < 1000. With stealing off and
/// skewed halves, each worker's bandit must find its own winner.
template <bool SLOW_ON_BIG>
size_t SelLtDataDependent(const PrimCall& c) {
  const i64* a = static_cast<const i64*>(c.in1);
  const i64 bound = *static_cast<const i64*>(c.in2);
  sel_t* out = c.res_sel;
  size_t k = 0;
  u64 penalty = 0;
  auto one = [&](sel_t i) {
    penalty += ((a[i] >= 1000) == SLOW_ON_BIG) ? 60 : 0;
    out[k] = i;
    k += a[i] < bound ? 1 : 0;
  };
  if (c.sel != nullptr) {
    for (size_t j = 0; j < c.sel_n; ++j) one(c.sel[j]);
  } else {
    for (size_t i = 0; i < c.n; ++i) one(static_cast<sel_t>(i));
  }
  volatile u64 sink = 0;
  for (u64 s = 0; s < penalty; ++s) sink += s;
  return k;
}

TEST(ParallelBanditTest, ThreadsConvergeToDifferentFlavorsOnSkewedData) {
  PrimitiveDictionary dict;
  ASSERT_TRUE(dict.Register("sel_lt_i64_col_i64_val",
                            FlavorInfo{"fast_small", FlavorSetId::kDefault,
                                       &SelLtDataDependent<true>},
                            /*is_default=*/true)
                  .ok());
  ASSERT_TRUE(dict.Register("sel_lt_i64_col_i64_val",
                            FlavorInfo{"fast_big", FlavorSetId::kBranch,
                                       &SelLtDataDependent<false>})
                  .ok());

  // First half small values, second half big: with stealing disabled,
  // worker 0 only ever sees small values and worker 1 only big ones.
  constexpr size_t kRows = 512 * 1024;
  auto table = std::make_unique<Table>("skew");
  Column* a = table->AddColumn("a", PhysicalType::kI64);
  for (size_t i = 0; i < kRows; ++i) {
    a->Append<i64>(i < kRows / 2 ? 3 : 2000);
  }
  table->set_row_count(kRows);

  EngineConfig ecfg;
  ecfg.adaptive.mode = ExecMode::kAdaptive;
  ecfg.adaptive.params.explore_period = 64;
  ecfg.adaptive.params.exploit_period = 8;
  ecfg.adaptive.params.explore_length = 4;
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  pcfg.morsel_size = 64 * 1024;
  pcfg.work_stealing = false;
  ParallelExecutor exec{ecfg, pcfg, &dict};
  const RunResult r = exec.RunPipeline(
      table.get(), {"a"}, [](Engine* engine, OperatorPtr scan) {
        return std::make_unique<SelectOperator>(
            engine, std::move(scan), Lt(Col("a"), Lit(1000000)),
            "p/skew_select");
      });
  EXPECT_EQ(r.rows_emitted, kRows);  // predicate passes everything

  const auto profile = exec.MergedProfile();
  const InstanceProfile* select_prof = nullptr;
  for (const InstanceProfile& p : profile) {
    if (p.label == "p/skew_select/(a < 1000000)" ||
        p.signature == "sel_lt_i64_col_i64_val") {
      select_prof = &p;
      break;
    }
  }
  ASSERT_NE(select_prof, nullptr);
  ASSERT_EQ(select_prof->instances, 2);
  ASSERT_EQ(select_prof->winner_per_thread.size(), 2u);
  // The small-value worker must keep the flavor that is fast on small
  // values, and vice versa — thread-local bandits, independent optima.
  EXPECT_EQ(select_prof->winner_per_thread[0], "fast_small");
  EXPECT_EQ(select_prof->winner_per_thread[1], "fast_big");
}

// ---------------------------------------------------------------------
// Profile merging.
// ---------------------------------------------------------------------

TEST(ParallelProfileTest, MergedProfileAggregatesAcrossWorkers) {
  auto table = MakeNumbersTable(32 * 1024);
  ParallelConfig pcfg;
  pcfg.num_threads = 2;
  pcfg.morsel_size = 2048;  // 16 morsels of 2 batches each
  ParallelExecutor exec{EngineConfig(), pcfg};
  exec.RunPipeline(table.get(), {"a", "x"}, SelectProjectFactory());

  const auto profile = exec.MergedProfile();
  const InstanceProfile* sel = nullptr;
  for (const InstanceProfile& p : profile) {
    if (p.signature == "sel_lt_i64_col_i64_val") sel = &p;
  }
  ASSERT_NE(sel, nullptr);
  // Every scan batch passes through the select exactly once, no matter
  // how the morsels were distributed: 32K rows / 1024-row vectors.
  EXPECT_EQ(sel->calls, 32u * 1024 / kDefaultVectorSize);
  EXPECT_EQ(sel->tuples, 32u * 1024);
  EXPECT_GE(sel->instances, 1);
  EXPECT_LE(sel->instances, 2);
  u64 flavor_calls = 0;
  for (const FlavorUsageProfile& f : sel->flavors) {
    flavor_calls += f.calls;
  }
  EXPECT_EQ(flavor_calls, sel->calls);
  EXPECT_FALSE(sel->MostUsedFlavor().empty());
}

}  // namespace
}  // namespace ma
