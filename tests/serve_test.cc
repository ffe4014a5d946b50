// Concurrent multi-query serving (serve/workload_server.h): admission
// control must shed with kRejected and nothing else, concurrent results
// must stay byte-identical to a serial single-tenant baseline, memory
// leases must balance to zero after every workload, retries must heal
// transient faults deterministically, and cancelling one query must
// never perturb another. Runs under TSan and ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/parallel/thread_pool.h"
#include "exec/query_context.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "serve/admission.h"
#include "serve/memory_broker.h"
#include "serve/retry_policy.h"
#include "serve/workload_server.h"
#include "storage/table_fingerprint.h"

namespace ma::serve {
namespace {

using plan::ExecMode;
using plan::LogicalPlan;
using plan::PlanBuilder;
using plan::QuerySession;

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

/// Filter → group-by → sort: pipeline + aggregation + serial sort
/// stage, so staged runs cross several stage kinds.
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

/// Filter → project over every row: a wide materialization.
LogicalPlan WidePlan(const Table* t) {
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"y", Mul(Col("x"), Lit(2.0))});
  outs.push_back({"a", Col("a")});
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "x"});
  b.Filter(Lt(Col("a"), Lit(990)))
      .Project(std::move(outs));
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

u64 SerialFingerprint(const LogicalPlan& plan) {
  QuerySession session;
  const RunResult r = session.Run(plan, ExecMode::kSerial);
  EXPECT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_NE(r.table, nullptr);
  return ExactFingerprint(*r.table);
}

ServerConfig SmallServer(int drivers = 2, int pool_threads = 2) {
  ServerConfig cfg;
  cfg.pool_threads = pool_threads;
  cfg.max_concurrent = drivers;
  cfg.max_parallel_queries = 1;
  cfg.admission.max_queue_depth = 64;
  cfg.admission.queue_deadline = std::chrono::milliseconds(0);
  cfg.session.parallel.morsel_size = 2048;
  cfg.session.min_parallel_rows = 4096;
  return cfg;
}

// ---------------------------------------------------------------------
// MemoryBroker: FIFO-fair leasing, exhaustion, balance.
// ---------------------------------------------------------------------

TEST(MemoryBrokerTest, GrantsAndBalances) {
  MemoryBroker broker(1000);
  EXPECT_TRUE(broker.Acquire(600).ok());
  EXPECT_TRUE(broker.Acquire(400).ok());
  EXPECT_EQ(broker.leased_bytes(), 1000u);
  broker.Release(600);
  broker.Release(400);
  EXPECT_EQ(broker.leased_bytes(), 0u);
  EXPECT_EQ(broker.grants(), 2u);
}

TEST(MemoryBrokerTest, OversizedRequestFailsImmediately) {
  MemoryBroker broker(1000);
  const Status s = broker.Acquire(1001);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(broker.leased_bytes(), 0u);
  EXPECT_EQ(broker.refusals(), 1u);
}

TEST(MemoryBrokerTest, SaturationTimesOut) {
  MemoryBroker broker(1000);
  ASSERT_TRUE(broker.Acquire(900).ok());
  const Status s = broker.Acquire(200, std::chrono::milliseconds(20));
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  broker.Release(900);
  // Recovery: the same request is grantable once the pool drains.
  EXPECT_TRUE(broker.Acquire(200).ok());
  broker.Release(200);
  EXPECT_EQ(broker.leased_bytes(), 0u);
}

TEST(MemoryBrokerTest, FifoFairnessBigQueryNotStarved) {
  MemoryBroker broker(1000);
  ASSERT_TRUE(broker.Acquire(800).ok());
  // Waits until `n` requests are queued on the broker.
  auto wait_for_queue = [&broker](u64 n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (broker.waiting() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return broker.waiting() == n;
  };
  // A big request queues first, then a small one that WOULD fit right
  // now (800 + 200 <= 1000). FIFO head-of-line: the small one must not
  // overtake. Once big holds its 900, small cannot fit beside it
  // (900 + 200 > 1000), so small is granted only after big released:
  // the grant order is deterministic.
  std::atomic<int> order{0};
  int big_got = -1, small_got = -1;
  std::thread big([&] {
    ASSERT_TRUE(broker.Acquire(900, std::chrono::seconds(5)).ok());
    big_got = order.fetch_add(1);
    broker.Release(900);
  });
  EXPECT_TRUE(wait_for_queue(1));
  std::thread small([&] {
    ASSERT_TRUE(broker.Acquire(200, std::chrono::seconds(5)).ok());
    small_got = order.fetch_add(1);
    broker.Release(200);
  });
  EXPECT_TRUE(wait_for_queue(2));
  broker.Release(800);  // frees the pool; big must be served first
  big.join();
  small.join();
  EXPECT_EQ(big_got, 0);
  EXPECT_EQ(small_got, 1);
  EXPECT_EQ(broker.waiting(), 0u);
  EXPECT_EQ(broker.leased_bytes(), 0u);
}

// ---------------------------------------------------------------------
// AdmissionController: both rejection gates.
// ---------------------------------------------------------------------

TEST(AdmissionTest, RejectsWhenQueueFull) {
  AdmissionConfig cfg;
  cfg.max_queue_depth = 2;
  AdmissionController adm(cfg);
  EXPECT_TRUE(adm.AdmitOrReject(0).ok());
  EXPECT_TRUE(adm.AdmitOrReject(1).ok());
  const Status s = adm.AdmitOrReject(2);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ReasonFromStatus(s), TerminationReason::kRejected);
  EXPECT_EQ(adm.admitted(), 2u);
  EXPECT_EQ(adm.rejected_queue_full(), 1u);
}

TEST(AdmissionTest, RejectsStaleQueueEntries) {
  AdmissionConfig cfg;
  cfg.queue_deadline = std::chrono::milliseconds(10);
  AdmissionController adm(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(adm.CheckQueueAge(t0, t0 + std::chrono::milliseconds(5)).ok());
  const Status s =
      adm.CheckQueueAge(t0, t0 + std::chrono::milliseconds(50));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(adm.rejected_queue_deadline(), 1u);
}

// ---------------------------------------------------------------------
// RetryPolicy: eligibility table and deterministic backoff.
// ---------------------------------------------------------------------

TEST(RetryPolicyTest, TransienceTable) {
  EXPECT_TRUE(RetryPolicy::IsTransient(Status::ResourceExhausted("x")));
  EXPECT_TRUE(RetryPolicy::IsTransient(Status::Internal("x")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::Cancelled("x")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::DeadlineExceeded("x")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::Unavailable("x")));
  EXPECT_FALSE(RetryPolicy::IsTransient(Status::InvalidArgument("x")));
}

TEST(RetryPolicyTest, BackoffIsDeterministicCappedAndJittered) {
  RetryConfig cfg;
  cfg.initial_backoff = std::chrono::microseconds(100);
  cfg.multiplier = 2.0;
  cfg.max_backoff = std::chrono::microseconds(1000);
  RetryPolicy a(cfg), b(cfg);
  for (u64 query : {1ull, 7ull, 12345ull}) {
    for (int attempt = 2; attempt <= 8; ++attempt) {
      const auto d1 = a.Backoff(query, attempt);
      const auto d2 = b.Backoff(query, attempt);
      EXPECT_EQ(d1.count(), d2.count());  // same seed => same schedule
      // Jitter stays within [base/2, base), base capped at max.
      const f64 base = std::min(
          100.0 * std::pow(2.0, attempt - 2), 1000.0);
      EXPECT_GE(d1.count(), static_cast<i64>(base / 2));
      EXPECT_LE(d1.count(), static_cast<i64>(base) + 1);
    }
  }
  // A different seed moves the schedule.
  RetryConfig other = cfg;
  other.seed = 42;
  RetryPolicy c(other);
  bool any_diff = false;
  for (int attempt = 2; attempt <= 8; ++attempt) {
    any_diff |= c.Backoff(7, attempt) != a.Backoff(7, attempt);
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------------------
// ThreadPool multi-tenancy: concurrent phases stay isolated.
// ---------------------------------------------------------------------

TEST(SharedPoolTest, ConcurrentPhasesIsolateErrorsByTag) {
  ThreadPool pool(2);
  Status bad, good;
  std::thread t1([&] {
    bad = pool.Run(
        [](int id) {
          if (id == 0) throw std::runtime_error("boom");
        },
        "tenant-a");
  });
  std::thread t2([&] {
    good = pool.Run([](int) { /* healthy tenant */ }, "tenant-b");
  });
  t1.join();
  t2.join();
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("tenant-a"), std::string::npos);
  EXPECT_TRUE(good.ok()) << good.ToString();
}

// ---------------------------------------------------------------------
// WorkloadServer: the serving contract.
// ---------------------------------------------------------------------

TEST(WorkloadServerTest, ConcurrentResultsAreByteIdenticalToSerial) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan agg = AggPlan(t.get());
  const LogicalPlan wide = WidePlan(t.get());
  const u64 agg_fp = SerialFingerprint(agg);
  const u64 wide_fp = SerialFingerprint(wide);

  WorkloadServer server(SmallServer(/*drivers=*/3, /*pool_threads=*/2));
  std::vector<std::pair<const LogicalPlan*, u64>> want;
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 12; ++i) {
    const bool use_agg = (i % 2) == 0;
    want.emplace_back(use_agg ? &agg : &wide,
                      use_agg ? agg_fp : wide_fp);
    handles.push_back(server.Submit(want.back().first,
                                    "q" + std::to_string(i)));
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryResult& qr = handles[i].Wait();
    ASSERT_TRUE(qr.run.status.ok()) << qr.run.status.ToString();
    ASSERT_NE(qr.run.table, nullptr);
    EXPECT_EQ(ExactFingerprint(*qr.run.table), want[i].second);
    EXPECT_GE(qr.attempts, 1);
  }
  server.Shutdown();
  EXPECT_EQ(server.broker()->leased_bytes(), 0u);
  EXPECT_EQ(server.stats().completed_ok, 12u);
  EXPECT_EQ(server.stats().rejected, 0u);
}

TEST(WorkloadServerTest, OverloadShedsWithRejectedOnly) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = AggPlan(t.get());

  ServerConfig cfg = SmallServer(/*drivers=*/1, /*pool_threads=*/1);
  cfg.admission.max_queue_depth = 1;
  WorkloadServer server(cfg);

  // Wedge the only driver: the first query sleeps 300ms at its first
  // batch, so the queue (depth 1) holds the second and everything after
  // that is shed at the door.
  FaultInjector slow;
  slow.ArmDelay("engine/batch", 1, 300 * 1000);
  SubmitOptions slow_opts;
  slow_opts.injector = &slow;
  slow_opts.mode = ExecMode::kSerial;  // engine/batch fires immediately
  QueryHandle wedge = server.Submit(&plan, "wedge", slow_opts);
  // Let the driver pick up the wedge query so the queue is empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  QueryHandle queued = server.Submit(&plan, "queued");

  int rejected = 0;
  FaultInjector tattler;  // proves rejected queries never execute
  for (int i = 0; i < 8; ++i) {
    SubmitOptions opts;
    opts.injector = &tattler;
    QueryHandle h = server.Submit(&plan, "extra" + std::to_string(i), opts);
    const QueryResult& qr = h.Wait();
    if (qr.run.status.ok()) continue;  // a queue slot freed under us
    ++rejected;
    // Shedding is kRejected-only: kUnavailable status, no table, zero
    // attempts — the query never ran.
    EXPECT_EQ(qr.run.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(qr.run.reason, TerminationReason::kRejected);
    EXPECT_EQ(qr.run.table, nullptr);
    EXPECT_EQ(qr.attempts, 0);
  }
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(tattler.total_hits(), 0u);  // never reached execution

  EXPECT_TRUE(wedge.Wait().run.status.ok());
  EXPECT_TRUE(queued.Wait().run.status.ok());
  server.Shutdown();
  EXPECT_EQ(server.broker()->leased_bytes(), 0u);
  EXPECT_EQ(server.stats().rejected, static_cast<u64>(rejected));
}

TEST(WorkloadServerTest, LeaseExhaustionFailsThenPoolRecovers) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  const u64 fp = SerialFingerprint(plan);

  ServerConfig cfg = SmallServer(/*drivers=*/2, /*pool_threads=*/1);
  cfg.memory_pool_bytes = 1 << 20;
  cfg.default_query_budget = 512 << 10;
  cfg.retry.max_attempts = 2;
  cfg.lease_max_wait = std::chrono::milliseconds(20);
  WorkloadServer server(cfg);

  // A budget larger than the whole pool can never be leased: every
  // attempt fails kResourceExhausted (transient, so the retry loop
  // spins through its cap first).
  SubmitOptions huge;
  huge.budget_bytes = 2 << 20;
  QueryHandle huge_handle = server.Submit(&plan, "huge", huge);
  const QueryResult& refused = huge_handle.Wait();
  EXPECT_FALSE(refused.run.status.ok());
  EXPECT_EQ(refused.run.reason, TerminationReason::kResourceExhausted);
  EXPECT_EQ(refused.run.table, nullptr);
  EXPECT_EQ(refused.attempts, cfg.retry.max_attempts);

  // Recovery: the failed lease left no residue — a full-pool budget
  // grants and the query completes byte-identically.
  SubmitOptions full;
  full.budget_bytes = 1 << 20;
  QueryHandle full_handle = server.Submit(&plan, "full", full);
  const QueryResult& healed = full_handle.Wait();
  ASSERT_TRUE(healed.run.status.ok()) << healed.run.status.ToString();
  EXPECT_EQ(ExactFingerprint(*healed.run.table), fp);
  server.Shutdown();
  EXPECT_EQ(server.broker()->leased_bytes(), 0u);
  EXPECT_GE(server.broker()->refusals(), 2u);
}

TEST(WorkloadServerTest, RetryHealsInjectedFaultDeterministically) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  const u64 fp = SerialFingerprint(plan);

  // Same seed, same fault, run twice: identical attempt counts and
  // identical bytes — the retry schedule replays exactly.
  int attempts[2] = {0, 0};
  u64 fps[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ServerConfig cfg = SmallServer(/*drivers=*/1, /*pool_threads=*/1);
    cfg.retry.max_attempts = 3;
    cfg.retry.seed = 2024;
    WorkloadServer server(cfg);
    FaultInjector fi;  // first batch of the first attempt fails
    fi.ArmFailure("engine/batch", 1, StatusCode::kInternal,
                  "injected transient fault");
    SubmitOptions opts;
    opts.injector = &fi;
    QueryHandle handle = server.Submit(&plan, "heal", opts);
    const QueryResult& qr = handle.Wait();
    ASSERT_TRUE(qr.run.status.ok()) << qr.run.status.ToString();
    ASSERT_NE(qr.run.table, nullptr);
    attempts[run] = qr.attempts;
    fps[run] = ExactFingerprint(*qr.run.table);
    server.Shutdown();
    EXPECT_EQ(server.broker()->leased_bytes(), 0u);
    EXPECT_EQ(server.stats().retries, 1u);
  }
  EXPECT_EQ(attempts[0], 2);  // fault on attempt 1, healed on attempt 2
  EXPECT_EQ(attempts[0], attempts[1]);
  EXPECT_EQ(fps[0], fp);
  EXPECT_EQ(fps[0], fps[1]);
}

TEST(WorkloadServerTest, NonTransientFailureIsNotRetried) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  ServerConfig cfg = SmallServer(/*drivers=*/1, /*pool_threads=*/1);
  cfg.retry.max_attempts = 5;
  WorkloadServer server(cfg);
  SubmitOptions opts;
  opts.timeout = std::chrono::milliseconds(0);  // none
  FaultInjector fi;
  fi.ArmFailure("engine/batch", 1, StatusCode::kCancelled, "cancel-like");
  opts.injector = &fi;
  QueryHandle handle = server.Submit(&plan, "fatal", opts);
  const QueryResult& qr = handle.Wait();
  EXPECT_FALSE(qr.run.status.ok());
  EXPECT_EQ(qr.attempts, 1);  // terminal on the first attempt
  server.Shutdown();
  EXPECT_EQ(server.stats().retries, 0u);
  EXPECT_EQ(server.broker()->leased_bytes(), 0u);
}

TEST(WorkloadServerTest, MidFlightCancelLeavesOtherQueriesIntact) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan slow_plan = AggPlan(t.get());
  const LogicalPlan other_plan = WidePlan(t.get());
  const u64 other_fp = SerialFingerprint(other_plan);

  WorkloadServer server(SmallServer(/*drivers=*/2, /*pool_threads=*/2));
  FaultInjector slow;
  slow.ArmDelay("engine/batch", 1, 150 * 1000);
  SubmitOptions slow_opts;
  slow_opts.injector = &slow;
  slow_opts.mode = ExecMode::kSerial;  // delay fires at the first batch
  QueryHandle victim = server.Submit(&slow_plan, "victim", slow_opts);
  QueryHandle bystander = server.Submit(&other_plan, "bystander");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  victim.Cancel();

  const QueryResult& cancelled = victim.Wait();
  EXPECT_FALSE(cancelled.run.status.ok());
  EXPECT_EQ(cancelled.run.reason, TerminationReason::kCancelled);
  EXPECT_EQ(cancelled.run.table, nullptr);

  const QueryResult& clean = bystander.Wait();
  ASSERT_TRUE(clean.run.status.ok()) << clean.run.status.ToString();
  EXPECT_EQ(ExactFingerprint(*clean.run.table), other_fp);

  // The server stays fully serviceable after the cancel.
  QueryHandle after_handle = server.Submit(&other_plan, "after");
  const QueryResult& after = after_handle.Wait();
  ASSERT_TRUE(after.run.status.ok());
  EXPECT_EQ(ExactFingerprint(*after.run.table), other_fp);
  server.Shutdown();
  EXPECT_EQ(server.broker()->leased_bytes(), 0u);
}

TEST(WorkloadServerTest, SaturationDegradesToSerialWithIdenticalBytes) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan plan = AggPlan(t.get());
  const u64 fp = SerialFingerprint(plan);

  ServerConfig cfg = SmallServer(/*drivers=*/3, /*pool_threads=*/2);
  cfg.max_parallel_queries = 1;  // slots saturate with 3 drivers busy
  WorkloadServer server(cfg);
  std::vector<QueryHandle> handles;
  for (int i = 0; i < 9; ++i) {
    SubmitOptions opts;
    opts.mode = ExecMode::kParallel;  // ask for parallel; let it degrade
    handles.push_back(
        server.Submit(&plan, "sat" + std::to_string(i), opts));
  }
  for (QueryHandle& h : handles) {
    const QueryResult& qr = h.Wait();
    ASSERT_TRUE(qr.run.status.ok()) << qr.run.status.ToString();
    EXPECT_EQ(ExactFingerprint(*qr.run.table), fp);  // mode-invariant
  }
  server.Shutdown();
  EXPECT_EQ(server.broker()->leased_bytes(), 0u);
}

TEST(WorkloadServerTest, ShutdownDrainsQueuedQueries) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan plan = WidePlan(t.get());
  const u64 fp = SerialFingerprint(plan);
  std::vector<QueryHandle> handles;
  {
    WorkloadServer server(SmallServer(/*drivers=*/1, /*pool_threads=*/1));
    for (int i = 0; i < 6; ++i) {
      handles.push_back(server.Submit(&plan, "drain" + std::to_string(i)));
    }
    // Destructor == Shutdown(): every queued query still completes.
  }
  for (QueryHandle& h : handles) {
    const QueryResult& qr = h.Wait();
    ASSERT_TRUE(qr.run.status.ok()) << qr.run.status.ToString();
    EXPECT_EQ(ExactFingerprint(*qr.run.table), fp);
  }
}

}  // namespace
}  // namespace ma::serve
