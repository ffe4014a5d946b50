// Query lifecycle governance (exec/query_context.h): cancellation,
// deadlines, memory budgets and fault-injected error paths must
// terminate a run promptly with the right TerminationReason — never
// abort the process — and must leave the session clean: the very next
// query on the same session produces a byte-identical result to a
// fresh session, serially and staged at 1, 2 and 4 threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/op_merge_join.h"
#include "exec/op_scan.h"
#include "exec/parallel/thread_pool.h"
#include "exec/query_context.h"
#include "plan/compiler.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "table_fingerprint.h"

namespace ma::plan {
namespace {

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

/// Filter → group-by → sort: exercises pipeline, aggregation and a
/// serial sort stage (so staged runs visit several stage kinds).
LogicalPlan AggPlan(const Table* t) {
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("x");
    a.out_name = "sum_x";
    aggs.push_back(std::move(a));
  }
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "g", "x", "s"});
  b.Filter(Lt(Col("a"), Lit(900)))
      .GroupBy({{"g", 8}}, {"g", "s"}, std::move(aggs))
      .Sort({{"g", false}});
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

/// Filter → project over every row: a wide materialization, the plan
/// whose result charges enough bytes to trip small memory budgets.
LogicalPlan WidePlan(const Table* t) {
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"y", Mul(Col("x"), Lit(2.0))});
  outs.push_back({"a", Col("a")});
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "x"});
  b.Filter(Lt(Col("a"), Lit(990))).Project(std::move(outs));
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

SessionConfig Config(int threads) {
  SessionConfig cfg;
  cfg.parallel.num_threads = threads;
  cfg.parallel.morsel_size = 2048;
  return cfg;
}

u64 FreshFingerprint(const LogicalPlan& plan, int threads, ExecMode mode) {
  QuerySession session{Config(threads)};
  const RunResult r = session.Run(plan, mode);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.table, nullptr);
  return ExactFingerprint(*r.table);
}

/// The acceptance property: after `r` failed with `reason`, the same
/// session runs a clean query byte-identical to a fresh session.
void ExpectFailedThenClean(QuerySession& session, const RunResult& r,
                           TerminationReason reason,
                           const LogicalPlan& clean_plan, int threads,
                           ExecMode mode) {
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.reason, reason)
      << TerminationReasonName(r.reason) << ": " << r.status.ToString();
  EXPECT_EQ(r.table, nullptr);
  const RunResult clean = session.Run(clean_plan, mode);
  ASSERT_TRUE(clean.ok()) << clean.status.ToString();
  ASSERT_NE(clean.table, nullptr);
  EXPECT_EQ(ExactFingerprint(*clean.table),
            FreshFingerprint(clean_plan, threads, mode));
}

// ---------------------------------------------------------------------
// Cancellation and deadlines.
// ---------------------------------------------------------------------

TEST(RobustnessTest, CancelBeforeRunTerminatesEveryMode) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      ctx.Cancel();
      const RunResult r = session.Run(plan, mode, &ctx);
      ExpectFailedThenClean(session, r, TerminationReason::kCancelled,
                            plan, threads, mode);
    }
  }
}

TEST(RobustnessTest, ExpiredDeadlineTerminatesEveryMode) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      ctx.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
      const RunResult r = session.Run(plan, mode, &ctx);
      ExpectFailedThenClean(session, r,
                            TerminationReason::kDeadlineExceeded, plan,
                            threads, mode);
    }
  }
}

TEST(RobustnessTest, MidRunCancelFromAnotherThread) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const int threads : {1, 2, 4}) {
    QuerySession session{Config(threads)};
    QueryContext ctx;
    // A delay arm stalls the first morsel/batch long enough for the
    // canceller to land mid-run, deterministically.
    FaultInjector fi;
    fi.ArmDelay("parallel/morsel", 1, 100 * 1000);
    fi.ArmDelay("engine/batch", 1, 100 * 1000);
    ctx.set_fault_injector(&fi);
    std::thread canceller([&] {
      while (fi.total_hits() == 0) std::this_thread::yield();
      ctx.Cancel();
    });
    const RunResult r = session.Run(plan, ExecMode::kParallel, &ctx);
    canceller.join();
    ExpectFailedThenClean(session, r, TerminationReason::kCancelled, plan,
                          threads, ExecMode::kParallel);
  }
}

// ---------------------------------------------------------------------
// Memory budgets.
// ---------------------------------------------------------------------

TEST(RobustnessTest, MemoryBudgetExhaustionTerminatesEveryMode) {
  auto t = MakeNumbersTable(128 * 1024);
  const LogicalPlan plan = WidePlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      ctx.SetMemoryBudget(64 * 1024);  // result is ~2MB: must trip
      const RunResult r = session.Run(plan, mode, &ctx);
      ExpectFailedThenClean(session, r,
                            TerminationReason::kResourceExhausted, plan,
                            threads, mode);
      EXPECT_GT(ctx.memory_peak(), 0u);
    }
  }
}

TEST(RobustnessTest, GenerousBudgetDoesNotChangeResults) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  const u64 want = FreshFingerprint(plan, 2, ExecMode::kParallel);
  QuerySession session{Config(2)};
  QueryContext ctx;
  ctx.SetMemoryBudget(u64{1} << 32);
  const RunResult r = session.Run(plan, ExecMode::kParallel, &ctx);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(ExactFingerprint(*r.table), want);
  EXPECT_GT(ctx.memory_peak(), 0u);  // accounting actually ran
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

TEST(RobustnessTest, InjectedFaultsSurfaceAtEverySite) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  struct Case {
    const char* site;
    ExecMode mode;
    StatusCode code;
    TerminationReason reason;
  };
  const Case cases[] = {
      {"engine/batch", ExecMode::kSerial, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"parallel/morsel", ExecMode::kParallel, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"parallel/agg", ExecMode::kParallel, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"stage/", ExecMode::kParallel, StatusCode::kInternal,
       TerminationReason::kInternal},
      {"alloc/", ExecMode::kSerial, StatusCode::kResourceExhausted,
       TerminationReason::kResourceExhausted},
      {"alloc/", ExecMode::kParallel, StatusCode::kResourceExhausted,
       TerminationReason::kResourceExhausted},
  };
  for (const Case& c : cases) {
    for (const int threads : {1, 2, 4}) {
      QuerySession session{Config(threads)};
      QueryContext ctx;
      FaultInjector fi(/*seed=*/42);
      fi.ArmFailure(c.site, /*nth=*/1, c.code, "test fault");
      ctx.set_fault_injector(&fi);
      const RunResult r = session.Run(plan, c.mode, &ctx);
      EXPECT_GT(fi.total_hits(), 0u) << c.site;
      ExpectFailedThenClean(session, r, c.reason, plan, threads, c.mode);
    }
  }
}

TEST(RobustnessTest, SeededRandomFaultsAreDeterministic) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  auto outcome = [&](u64 seed) {
    QuerySession session{Config(1)};
    QueryContext ctx;
    FaultInjector fi(seed);
    fi.ArmRandomFailure("engine/batch", 0.25, StatusCode::kInternal,
                        "random fault");
    ctx.set_fault_injector(&fi);
    const RunResult r = session.Run(plan, ExecMode::kSerial, &ctx);
    return std::make_pair(r.status.code(), fi.total_hits());
  };
  EXPECT_EQ(outcome(7), outcome(7));  // same seed, same fate
}

// ---------------------------------------------------------------------
// Error-path parity: serial and staged report the same reason.
// ---------------------------------------------------------------------

TEST(RobustnessTest, TerminationReasonParitySerialVsStaged) {
  auto t = MakeNumbersTable(128 * 1024);
  const LogicalPlan plan = WidePlan(t.get());
  auto reason_of = [&](ExecMode mode, auto&& configure) {
    QuerySession session{Config(2)};
    QueryContext ctx;
    configure(ctx);
    return session.Run(plan, mode, &ctx).reason;
  };
  auto cancel = [](QueryContext& c) { c.Cancel(); };
  auto expire = [](QueryContext& c) {
    c.SetDeadline(std::chrono::steady_clock::now());
  };
  auto starve = [](QueryContext& c) { c.SetMemoryBudget(32 * 1024); };
  EXPECT_EQ(reason_of(ExecMode::kSerial, cancel),
            reason_of(ExecMode::kParallel, cancel));
  EXPECT_EQ(reason_of(ExecMode::kSerial, expire),
            reason_of(ExecMode::kParallel, expire));
  EXPECT_EQ(reason_of(ExecMode::kSerial, starve),
            reason_of(ExecMode::kParallel, starve));
}

// ---------------------------------------------------------------------
// Status-based user-error paths (formerly process aborts).
// ---------------------------------------------------------------------

TEST(RobustnessTest, InvalidPlanReturnsStatusNotAbort) {
  auto t = MakeNumbersTable(128);
  PlanBuilder b = PlanBuilder::Scan(t.get(), {"nope"});
  const LogicalPlan bad = b.Build();
  ASSERT_FALSE(bad.ok());
  QuerySession session{Config(2)};
  const RunResult r = session.Run(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  // The session survives an invalid plan.
  const RunResult good = session.Run(AggPlan(t.get()));
  EXPECT_TRUE(good.ok()) << good.status.ToString();
}

TEST(RobustnessTest, MergeJoinRejectsUnsortedInputViaStatus) {
  auto left = std::make_unique<Table>("left");
  Column* lk = left->AddColumn("k", PhysicalType::kI64);
  for (const i64 v : {1, 2, 3, 4}) lk->Append<i64>(v);
  left->set_row_count(4);
  auto right = std::make_unique<Table>("right");
  Column* rk = right->AddColumn("k", PhysicalType::kI64);
  for (const i64 v : {2, 1, 4, 3}) rk->Append<i64>(v);  // NOT sorted
  right->set_row_count(4);

  Engine engine;
  MergeJoinSpec spec;
  spec.left_key = "k";
  spec.right_key = "k";
  spec.left_outputs = {{"k", "lk"}};
  spec.right_outputs = {{"k", "rk"}};
  MergeJoinOperator op(&engine,
                       std::make_unique<ScanOperator>(&engine, left.get()),
                       std::make_unique<ScanOperator>(&engine, right.get()),
                       spec);
  const RunResult r = engine.Run(op);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.reason, TerminationReason::kInternal);
}

TEST(RobustnessTest, UnsortedMergeInputFailsAlikeSerialAndStaged) {
  // The merge join checks key order while it drains each input, and the
  // staged merge stage runs the same operator: an unsorted base table
  // and an unsorted filtered (materialized) input both fail with the
  // same typed error on either path, and the session then runs a sorted
  // plan byte-identical to serial.
  auto left = std::make_unique<Table>("left");
  Column* lk = left->AddColumn("lk", PhysicalType::kI64);
  Column* lv = left->AddColumn("lv", PhysicalType::kI64);
  for (i64 i = 0; i < 4000; ++i) {
    lk->Append<i64>(i);
    lv->Append<i64>(i * 7);
  }
  left->set_row_count(4000);
  // Ascending except for one key far past the first vector.
  auto right = std::make_unique<Table>("right");
  auto sorted = std::make_unique<Table>("sorted");
  Column* rk = right->AddColumn("rk", PhysicalType::kI64);
  Column* rv = right->AddColumn("rv", PhysicalType::kI64);
  Column* sk = sorted->AddColumn("rk", PhysicalType::kI64);
  Column* sv = sorted->AddColumn("rv", PhysicalType::kI64);
  for (i64 i = 0; i < 6000; ++i) {
    rk->Append<i64>(i == 4500 ? 3 : i / 2);
    rv->Append<i64>(i);
    sk->Append<i64>(i / 2);
    sv->Append<i64>(i);
  }
  right->set_row_count(6000);
  sorted->set_row_count(6000);

  MergeJoinSpec spec;
  spec.left_key = "lk";
  spec.right_key = "rk";
  spec.left_outputs = {{"lv", "lv"}};
  spec.right_outputs = {{"rv", "rv"}};
  auto merge_plan = [&](PlanBuilder right_side) {
    PlanBuilder b = PlanBuilder::Scan(left.get());
    b.MergeJoin(std::move(right_side), spec);
    LogicalPlan plan = b.Build();
    EXPECT_TRUE(plan.ok()) << plan.status.message();
    return plan;
  };
  PlanBuilder filtered = PlanBuilder::Scan(right.get());
  filtered.Filter(Lt(Col("rv"), Lit(5900)));
  const LogicalPlan unsorted_plans[] = {
      merge_plan(PlanBuilder::Scan(right.get())),
      merge_plan(std::move(filtered))};
  const LogicalPlan sorted_plan = merge_plan(PlanBuilder::Scan(sorted.get()));

  for (const int threads : {1, 4}) {
    QuerySession session{Config(threads)};
    for (const LogicalPlan& plan : unsorted_plans) {
      const RunResult serial = session.Run(plan, ExecMode::kSerial);
      const RunResult staged = session.Run(plan, ExecMode::kParallel);
      EXPECT_TRUE(session.last_run_parallel());
      for (const RunResult* r : {&serial, &staged}) {
        EXPECT_FALSE(r->ok());
        EXPECT_EQ(r->status.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(r->status.message(),
                  "merge join input key 'rk' is not sorted ascending");
        EXPECT_EQ(r->table, nullptr);
      }
    }
    const RunResult serial = session.Run(sorted_plan, ExecMode::kSerial);
    const RunResult staged = session.Run(sorted_plan, ExecMode::kParallel);
    ASSERT_TRUE(serial.ok()) << serial.status.ToString();
    ASSERT_TRUE(staged.ok()) << staged.status.ToString();
    EXPECT_TRUE(session.last_run_parallel());
    EXPECT_EQ(staged.rows_emitted, 6000u);
    EXPECT_EQ(ExactFingerprint(*staged.table),
              ExactFingerprint(*serial.table))
        << threads << " threads";
  }
}

TEST(RobustnessTest, ReadScalarValueReportsContractBreaches) {
  // The builder statically forces scalar subqueries into single-row
  // shapes, but ReadScalarValue is a public seam (staged scalar stages,
  // hand-driven compilation) and must report breaches, not abort.
  Table two("two");
  Column* m = two.AddColumn("m", PhysicalType::kF64);
  m->Append<f64>(1.0);
  m->Append<f64>(2.0);
  two.set_row_count(2);
  ScalarValue v;
  Status s = ReadScalarValue(two, "m", PhysicalType::kF64, &v);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  Table one("one");
  one.AddColumn("m", PhysicalType::kF64)->Append<f64>(3.5);
  one.set_row_count(1);
  s = ReadScalarValue(one, "nope", PhysicalType::kF64, &v);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);  // missing column
  s = ReadScalarValue(one, "m", PhysicalType::kI64, &v);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);  // mistyped
  s = ReadScalarValue(one, "m", PhysicalType::kF64, &v);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(v.f, 3.5);

  Table empty("empty");
  empty.AddColumn("m", PhysicalType::kF64);
  s = ReadScalarValue(empty, "m", PhysicalType::kF64, &v);
  ASSERT_TRUE(s.ok());  // empty result = the type's zero (threshold)
  EXPECT_EQ(v.f, 0.0);
}

// ---------------------------------------------------------------------
// ThreadPool containment.
// ---------------------------------------------------------------------

TEST(RobustnessTest, ThreadPoolContainsThrowingTasks) {
  ThreadPool pool(4);
  const Status s = pool.Run([](int w) {
    if (w == 1) throw std::runtime_error("boom");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
  // The pool survives for the next phase (and the destructor's join).
  std::atomic<int> hits{0};
  const Status again = pool.Run([&](int) { hits.fetch_add(1); });
  EXPECT_TRUE(again.ok());
  EXPECT_EQ(hits.load(), 4);
}

TEST(RobustnessTest, ThreadPoolReportsBadAllocAsResourceExhausted) {
  ThreadPool pool(2);
  const Status s = pool.Run([](int w) {
    if (w == 0) throw std::bad_alloc();
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Governance stays out of the way: a governed run with no limits set
// produces byte-identical results to an ungoverned one.
// ---------------------------------------------------------------------

TEST(RobustnessTest, UnlimitedGovernanceIsInvisible) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    for (const int threads : {1, 2, 4}) {
      const u64 want = FreshFingerprint(plan, threads, mode);
      QuerySession session{Config(threads)};
      QueryContext ctx;  // no deadline, no budget, no injector
      const RunResult r = session.Run(plan, mode, &ctx);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      EXPECT_EQ(ExactFingerprint(*r.table), want);
      EXPECT_EQ(ctx.memory_peak(), 0u);  // accounting never engaged
    }
  }
}

}  // namespace
}  // namespace ma::plan
