// Cross-query knowledge store (knowledge/profile_store.h, plan_cache.h):
// the store must round-trip bit-exactly through its binary format and
// across disk, degrade to a cold start on ANY corrupt/truncated file
// without failing queries, stay race-free under concurrent merge vs
// snapshot (TSan), and — the core contract — warm-started runs must be
// byte-identical to cold runs, because priors are reward state only.
// The plan cache must hit on canonically equal plans and miss on any
// literal, table-identity, or schema change. Runs under TSan and
// ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/bandit.h"
#include "common/rng.h"
#include "exec/engine.h"
#include "knowledge/plan_cache.h"
#include "knowledge/profile_store.h"
#include "plan/plan_builder.h"
#include "plan/plan_fingerprint.h"
#include "plan/query_session.h"
#include "serve/workload_server.h"
#include "storage/table_fingerprint.h"

namespace ma::knowledge {
namespace {

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

/// Filter → group-by → sort with a literal hook (`cutoff`) so tests can
/// make canonically distinct variants of the same shape.
LogicalPlan AggPlan(const Table* t, i64 cutoff = 900) {
  std::vector<HashAggOperator::AggSpec> aggs;
  {
    HashAggOperator::AggSpec a;
    a.fn = "sum";
    a.arg = Col("x");
    a.out_name = "sum_x";
    aggs.push_back(std::move(a));
  }
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "g", "x"}, "kt/scan");
  b.Filter(Lt(Col("a"), Lit(cutoff)), "kt/select")
      .GroupBy({{"g", 8}}, {"g"}, std::move(aggs), "kt/agg")
      .Sort({{"g", false}});
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

/// Filter → project: a second shape so workloads exercise >1 site set.
LogicalPlan WidePlan(const Table* t) {
  std::vector<ProjectOperator::Output> outs;
  outs.push_back({"y", Mul(Col("x"), Lit(2.0))});
  outs.push_back({"a", Col("a")});
  PlanBuilder b = PlanBuilder::Scan(t, {"a", "x"}, "kt/wide_scan");
  b.Filter(Lt(Col("a"), Lit(990)), "kt/wide_select")
      .Project(std::move(outs), "kt/wide_project");
  LogicalPlan p = b.Build();
  EXPECT_TRUE(p.ok()) << p.status.ToString();
  return p;
}

u64 SerialFingerprint(const LogicalPlan& plan) {
  QuerySession session;
  const RunResult r = session.Run(plan, plan::ExecMode::kSerial);
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

/// A store populated with the real profile of one query run.
void PopulateFromOneQuery(ProfileStore* store, const Table* t) {
  QuerySession session;
  const RunResult r = session.Run(AggPlan(t), plan::ExecMode::kSerial);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  store->Merge(session.Profile());
  ASSERT_GT(store->size(), 0u);
}

std::string TempPath(const char* name) {
  return std::string("./knowledge_test_") + name + ".bin";
}

// ---------------------------------------------------------------------
// ProfileStore: merge, snapshot, round-trip, corruption fallback.
// ---------------------------------------------------------------------

TEST(ProfileStoreTest, MergeAccumulatesAndSnapshotSeeds) {
  auto t = MakeNumbersTable(32 * 1024);
  ProfileStore store;
  PopulateFromOneQuery(&store, t.get());
  EXPECT_EQ(store.profiles_merged(), 1u);

  auto snap = store.Snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_FALSE(snap->empty());
  // Snapshot is cached until the next mutation.
  EXPECT_EQ(snap.get(), store.Snapshot().get());

  // Every prior is a positive finite cost for a flavor with timed
  // observations.
  for (const StoredProfile& sp : store.Dump()) {
    const std::vector<FlavorPrior>* priors =
        snap->Find(sp.site, sp.signature);
    if (priors == nullptr) continue;
    for (const FlavorPrior& p : *priors) EXPECT_GT(p.cost_per_tuple, 0.0);
  }

  // A second merge invalidates the cached snapshot.
  QuerySession session;
  ASSERT_TRUE(session.Run(AggPlan(t.get()), plan::ExecMode::kSerial).ok());
  store.Merge(session.Profile());
  EXPECT_EQ(store.profiles_merged(), 2u);
  EXPECT_NE(snap.get(), store.Snapshot().get());
}

TEST(ProfileStoreTest, SerializeRoundTripIsByteExact) {
  auto t = MakeNumbersTable(32 * 1024);
  ProfileStore store;
  PopulateFromOneQuery(&store, t.get());

  const std::string bytes = store.Serialize();
  ProfileStore copy;
  ASSERT_TRUE(copy.Deserialize(bytes).ok());
  EXPECT_EQ(copy.size(), store.size());
  EXPECT_EQ(copy.Serialize(), bytes);  // bit-exact round trip
}

TEST(ProfileStoreTest, SaveLoadDiskRoundTrip) {
  auto t = MakeNumbersTable(32 * 1024);
  ProfileStore store;
  PopulateFromOneQuery(&store, t.get());

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(store.Save(path).ok());
  ProfileStore loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.Serialize(), store.Serialize());
  std::remove(path.c_str());

  // Missing file: clean cold start, no crash.
  ProfileStore empty;
  EXPECT_FALSE(empty.Load(TempPath("never_written")).ok());
  EXPECT_EQ(empty.size(), 0u);
}

TEST(ProfileStoreTest, CorruptOrTruncatedFileFallsBackToColdStart) {
  auto t = MakeNumbersTable(32 * 1024);
  ProfileStore store;
  PopulateFromOneQuery(&store, t.get());
  const std::string good = store.Serialize();
  ASSERT_GT(good.size(), 32u);

  const std::string path = TempPath("corrupt");
  auto expect_cold = [&](const std::string& bytes, const char* what) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    ProfileStore s;
    EXPECT_FALSE(s.Load(path).ok()) << what;
    EXPECT_EQ(s.size(), 0u) << what;  // never partially applied
  };

  // Byte flips across the file: magic, version, payload size, checksum,
  // payload body, last byte.
  for (const size_t offset :
       {size_t{0}, size_t{4}, size_t{8}, size_t{16}, size_t{24},
        good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x5a);
    expect_cold(bad, ("flip@" + std::to_string(offset)).c_str());
  }
  // Truncations: inside the header, inside the payload, empty file.
  for (const size_t keep :
       {size_t{0}, size_t{3}, size_t{12}, size_t{23}, good.size() / 2,
        good.size() - 1}) {
    expect_cold(good.substr(0, keep),
                ("trunc@" + std::to_string(keep)).c_str());
  }
  // Trailing garbage is rejected too (size/checksum mismatch).
  expect_cold(good + "xx", "trailing");
  // Other format versions are refused rather than misparsed — both a
  // future one and the strategy-less v1 (old files cold-start cleanly).
  {
    std::string future = good;
    future[4] = 3;  // version u32 at offset 4 (little-endian)
    expect_cold(future, "future-version");
    std::string v1 = good;
    v1[4] = 1;
    expect_cold(v1, "old-version");
  }
  std::remove(path.c_str());
}

TEST(ProfileStoreTest, ConcurrentMergeVsSnapshot) {
  auto t = MakeNumbersTable(32 * 1024);
  QuerySession session;
  ASSERT_TRUE(session.Run(AggPlan(t.get()), plan::ExecMode::kSerial).ok());
  const std::vector<InstanceProfile> profile = session.Profile();
  ASSERT_FALSE(profile.empty());

  ProfileStore store;
  constexpr int kMergers = 3;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int m = 0; m < kMergers; ++m) {
    threads.emplace_back([&store, &profile] {
      for (int i = 0; i < kRounds; ++i) store.Merge(profile);
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < kMergers * kRounds; ++i) {
      auto snap = store.Snapshot();
      if (snap != nullptr && !snap->empty()) {
        // Reading a snapshot while merges continue is safe: snapshots
        // are immutable copies, never views.
        EXPECT_GT(snap->size(), 0u);
      }
      store.Serialize();
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(store.profiles_merged(),
            static_cast<u64>(kMergers) * kRounds);
}

// ---------------------------------------------------------------------
// Warm-start seeding: priors steer flavor choice, never results.
// ---------------------------------------------------------------------

TEST(WarmStartTest, SeedPriorsJumpsToBestKnownFlavor) {
  const char* kSig = "sel_lt_i64_col_i64_val";  // branching/nobranching
  auto snap = std::make_shared<WarmStartSnapshot>();
  snap->Add("kt/seeded", kSig,
            {{"branching", 10.0}, {"nobranching", 1.0}});

  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kAdaptive;
  cfg.warm_start = snap;
  Engine engine(cfg);
  PrimitiveInstance* inst = engine.NewInstance(kSig, "kt/seeded");
  ASSERT_GE(inst->num_flavors(), 2);
  const int nobranch = inst->FindFlavor("nobranching");
  ASSERT_GE(nobranch, 0);

  auto* vw = dynamic_cast<VwGreedyPolicy*>(inst->policy());
  ASSERT_NE(vw, nullptr);
  // Seeded: the initial sweep is skipped, the best prior is exploited
  // immediately.
  EXPECT_FALSE(vw->in_exploration());
  EXPECT_EQ(vw->Choose(), nobranch);
  EXPECT_DOUBLE_EQ(vw->flavor_costs()[nobranch], 1.0);

  // A site the snapshot does not know stays cold (initial sweep).
  PrimitiveInstance* cold = engine.NewInstance(kSig, "kt/unknown-site");
  auto* cold_vw = dynamic_cast<VwGreedyPolicy*>(cold->policy());
  ASSERT_NE(cold_vw, nullptr);
  EXPECT_TRUE(cold_vw->in_exploration());

  // Priors naming unknown flavors are skipped entirely.
  auto junk = std::make_shared<WarmStartSnapshot>();
  junk->Add("kt/junk", kSig, {{"no-such-flavor", 0.5}});
  engine.set_warm_start(junk);
  PrimitiveInstance* junked = engine.NewInstance(kSig, "kt/junk");
  auto* junk_vw = dynamic_cast<VwGreedyPolicy*>(junked->policy());
  ASSERT_NE(junk_vw, nullptr);
  EXPECT_TRUE(junk_vw->in_exploration());  // seeding was a no-op
}

TEST(WarmStartTest, WarmSessionByteIdenticalToColdAndSerial) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan p = AggPlan(t.get());
  const u64 serial_fp = SerialFingerprint(p);

  // Cold parallel run, learned into a store.
  ProfileStore store;
  plan::SessionConfig sc;
  sc.parallel.num_threads = 2;
  sc.parallel.morsel_size = 2048;
  sc.min_parallel_rows = 4096;
  QuerySession cold(sc);
  const RunResult cold_r = cold.Run(p, plan::ExecMode::kParallel);
  ASSERT_TRUE(cold_r.ok());
  ASSERT_TRUE(cold.last_run_parallel());
  EXPECT_EQ(ExactFingerprint(*cold_r.table), serial_fp);
  store.Merge(cold.Profile());

  // Warm run in a fresh session: bandits start from the priors; the
  // result bytes cannot move.
  QuerySession warm(sc);
  warm.set_warm_start(store.Snapshot());
  const RunResult warm_r = warm.Run(p, plan::ExecMode::kParallel);
  ASSERT_TRUE(warm_r.ok());
  ASSERT_TRUE(warm.last_run_parallel());
  EXPECT_EQ(ExactFingerprint(*warm_r.table), serial_fp);

  // Warm serial run too.
  QuerySession warm_serial;
  warm_serial.set_warm_start(store.Snapshot());
  const RunResult ws_r = warm_serial.Run(p, plan::ExecMode::kSerial);
  ASSERT_TRUE(ws_r.ok());
  EXPECT_EQ(ExactFingerprint(*ws_r.table), serial_fp);
}

// ---------------------------------------------------------------------
// PlanCache: canonical keying, hit/miss accounting.
// ---------------------------------------------------------------------

TEST(PlanCacheTest, EqualPlansHitLiteralAndTableChangesMiss) {
  auto t1 = MakeNumbersTable(8 * 1024, 1);
  auto t2 = MakeNumbersTable(8 * 1024, 2);  // distinct object, same shape
  PlanCache cache;

  const LogicalPlan a1 = AggPlan(t1.get());
  const LogicalPlan a2 = AggPlan(t1.get());  // canonically equal
  auto e1 = cache.GetOrCompile(a1);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  auto e2 = cache.GetOrCompile(a2);
  EXPECT_EQ(e2.get(), e1.get());  // shared entry, not a re-compile
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Changing one literal changes the canon.
  auto e3 = cache.GetOrCompile(AggPlan(t1.get(), /*cutoff=*/500));
  ASSERT_NE(e3, nullptr);
  EXPECT_NE(e3.get(), e1.get());
  EXPECT_EQ(cache.misses(), 2u);

  // Same plan shape over a DIFFERENT table object: identity keys the
  // fingerprint, so it misses instead of returning t1's stages.
  auto e4 = cache.GetOrCompile(AggPlan(t2.get()));
  ASSERT_NE(e4, nullptr);
  EXPECT_NE(e4.get(), e1.get());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);

  // The cached entry owns its plan: executing it after the submitted
  // plans died must match the serial baseline.
  const u64 serial_fp = SerialFingerprint(AggPlan(t1.get()));
  QuerySession session;
  const RunResult r = session.Run(e1->plan, plan::ExecMode::kParallel,
                                  nullptr, &e1->stages);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ExactFingerprint(*r.table), serial_fp);
}

TEST(PlanCacheTest, DagPlansKeyOnSharedSubplanIdentity) {
  auto t = MakeNumbersTable(8 * 1024);
  PlanCache cache;

  // The same subtree consumed twice, two ways: bound once and
  // referenced twice (a true DAG), or simply built twice inline.
  // Executors unify both onto one materialization, but the PLANS are
  // different — BindShared pins one evaluation; inline duplicates stay
  // two subtrees a future compiler could diverge — so the canonical
  // encodings (and cache entries) must differ.
  auto filtered = [&t]() {
    PlanBuilder b = PlanBuilder::Scan(t.get(), {"a", "g", "x"});
    b.Filter(Lt(Col("a"), Lit(static_cast<i64>(500))));
    return b;
  };
  auto count_per_g = [](PlanBuilder b) {
    std::vector<HashAggOperator::AggSpec> aggs;
    HashAggOperator::AggSpec cnt;
    cnt.fn = "count";
    cnt.out_name = "cnt";
    aggs.push_back(std::move(cnt));
    b.GroupBy({{"g", 8}}, {"g"}, std::move(aggs));
    return b;
  };
  auto join_back = [](PlanBuilder probe, PlanBuilder build) {
    HashJoinSpec j;
    j.build_key = "g";
    j.probe_key = "g";
    j.build_outputs = {{"cnt", "cnt"}};
    j.probe_outputs = {"a", "g", "x"};
    probe.HashJoin(std::move(build), j);
    probe.Sort({{"a", false}, {"g", false}, {"cnt", false}});
    return probe.Build();
  };

  auto dag_plan = [&]() {
    const plan::SharedSubplan shared =
        PlanBuilder::BindShared("kt_shared", filtered());
    return join_back(PlanBuilder::SharedRef(shared),
                     count_per_g(PlanBuilder::SharedRef(shared)));
  };
  const LogicalPlan dag = dag_plan();
  const LogicalPlan inline_dup = join_back(filtered(),
                                           count_per_g(filtered()));
  ASSERT_TRUE(dag.ok()) << dag.status.ToString();
  ASSERT_TRUE(inline_dup.ok()) << inline_dup.status.ToString();

  auto e_dag = cache.GetOrCompile(dag);
  ASSERT_NE(e_dag, nullptr);
  auto e_dup = cache.GetOrCompile(inline_dup);
  ASSERT_NE(e_dup, nullptr);
  EXPECT_NE(e_dag.get(), e_dup.get());
  EXPECT_NE(plan::FingerprintPlan(dag).canon,
            plan::FingerprintPlan(inline_dup).canon);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);

  // Rebuilding the DAG plan — a FRESH SharedSpec object, same name and
  // structure — hits the first entry: sharing is keyed canonically,
  // not on spec pointer identity.
  auto e_again = cache.GetOrCompile(dag_plan());
  EXPECT_EQ(e_again.get(), e_dag.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Both cached compilations execute to the same bytes as their serial
  // baselines (the results themselves agree — only the keys differ).
  const u64 serial_fp = SerialFingerprint(dag);
  QuerySession session;
  const RunResult r1 = session.Run(e_dag->plan, plan::ExecMode::kParallel,
                                   nullptr, &e_dag->stages);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(ExactFingerprint(*r1.table), serial_fp);
  const RunResult r2 = session.Run(e_dup->plan, plan::ExecMode::kParallel,
                                   nullptr, &e_dup->stages);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(ExactFingerprint(*r2.table), serial_fp);
}

TEST(PlanCacheTest, SchemaChangeChangesFingerprint) {
  auto t = MakeNumbersTable(1024);
  const LogicalPlan p = AggPlan(t.get());
  const plan::PlanFingerprint before = plan::FingerprintPlan(p);
  // Catalog evolution: a new column bumps the scan's schema encoding,
  // retiring every cached plan over this table to a miss.
  t->AddColumn("extra", PhysicalType::kI64);
  const plan::PlanFingerprint after = plan::FingerprintPlan(p);
  EXPECT_NE(before, after);
  EXPECT_NE(before.canon, after.canon);
}

// ---------------------------------------------------------------------
// Server integration: learn → persist → warm start, byte-identity.
// ---------------------------------------------------------------------

TEST(KnowledgeServerTest, WarmVsColdServerByteIdentical) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan agg = AggPlan(t.get());
  const LogicalPlan wide = WidePlan(t.get());
  const u64 agg_fp = SerialFingerprint(agg);
  const u64 wide_fp = SerialFingerprint(wide);

  auto store = std::make_shared<ProfileStore>();

  // Cold pass: a fresh server learns into the shared store.
  {
    ServerConfig cfg = SmallServer();
    cfg.knowledge.store = store;
    WorkloadServer server(cfg);
    EXPECT_FALSE(server.warm_started());
    for (int round = 0; round < 2; ++round) {
      QueryHandle ha = server.Submit(&agg, "agg");
      QueryHandle hw = server.Submit(&wide, "wide");
      const auto& ra = ha.Wait();
      const auto& rw = hw.Wait();
      ASSERT_TRUE(ra.run.ok()) << ra.run.status.ToString();
      ASSERT_TRUE(rw.run.ok()) << rw.run.status.ToString();
      EXPECT_EQ(ExactFingerprint(*ra.run.table), agg_fp);
      EXPECT_EQ(ExactFingerprint(*rw.run.table), wide_fp);
    }
    server.Shutdown();
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed_ok, 4u);
    EXPECT_GT(stats.profiles_merged, 0u);
    EXPECT_GT(stats.store_profiles, 0u);
  }

  // Warm pass: a second server seeds every query from the store. Bytes
  // must not move.
  {
    ServerConfig cfg = SmallServer();
    cfg.knowledge.store = store;
    WorkloadServer server(cfg);
    QueryHandle ha = server.Submit(&agg, "agg-warm");
    QueryHandle hw = server.Submit(&wide, "wide-warm");
    EXPECT_EQ(ExactFingerprint(*ha.Wait().run.table), agg_fp);
    EXPECT_EQ(ExactFingerprint(*hw.Wait().run.table), wide_fp);
  }
}

TEST(KnowledgeServerTest, PersistsAcrossServerLifetimes) {
  auto t = MakeNumbersTable(64 * 1024);
  const LogicalPlan agg = AggPlan(t.get());
  const u64 agg_fp = SerialFingerprint(agg);
  const std::string path = TempPath("persist");
  std::remove(path.c_str());

  {
    ServerConfig cfg = SmallServer();
    cfg.knowledge.store_path = path;
    WorkloadServer server(cfg);
    EXPECT_FALSE(server.warm_started());  // no file yet: cold start
    QueryHandle h = server.Submit(&agg, "agg");
    ASSERT_TRUE(h.Wait().run.ok());
    server.Shutdown();  // saves the store
  }
  {
    ServerConfig cfg = SmallServer();
    cfg.knowledge.store_path = path;
    WorkloadServer server(cfg);
    EXPECT_TRUE(server.warm_started());
    EXPECT_GT(server.knowledge_store()->size(), 0u);
    QueryHandle h = server.Submit(&agg, "agg-warm");
    const auto& r = h.Wait();
    ASSERT_TRUE(r.run.ok());
    EXPECT_EQ(ExactFingerprint(*r.run.table), agg_fp);
  }
  std::remove(path.c_str());
}

TEST(KnowledgeServerTest, CorruptStoreFileDegradesToColdStartAndServes) {
  auto t = MakeNumbersTable(32 * 1024);
  const LogicalPlan agg = AggPlan(t.get());
  const u64 agg_fp = SerialFingerprint(agg);
  const std::string path = TempPath("corrupt_server");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "this is not a knowledge store";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  {
    ServerConfig cfg = SmallServer();
    cfg.knowledge.store_path = path;
    WorkloadServer server(cfg);
    EXPECT_FALSE(server.warm_started());  // corrupt = cold, not fatal
    QueryHandle h = server.Submit(&agg, "agg");
    const auto& r = h.Wait();
    ASSERT_TRUE(r.run.ok()) << r.run.status.ToString();
    EXPECT_EQ(ExactFingerprint(*r.run.table), agg_fp);
    server.Shutdown();
  }
  // Shutdown replaced the garbage with a valid store.
  ProfileStore reloaded;
  EXPECT_TRUE(reloaded.Load(path).ok());
  EXPECT_GT(reloaded.size(), 0u);
  std::remove(path.c_str());
}

TEST(KnowledgeServerTest, StatsCountPlanCacheAndMerges) {
  auto t = MakeNumbersTable(16 * 1024);
  const LogicalPlan agg = AggPlan(t.get());

  ServerConfig cfg = SmallServer(/*drivers=*/1);
  WorkloadServer server(cfg);
  for (int i = 0; i < 3; ++i) {
    QueryHandle h = server.Submit(&agg, "agg");
    ASSERT_TRUE(h.Wait().run.ok());
  }
  server.Shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed_ok, 3u);
  // Same fingerprint every time: one compile, then hits.
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 2u);
  EXPECT_EQ(stats.profiles_merged, 3u);
  EXPECT_GT(stats.store_profiles, 0u);
}

}  // namespace
}  // namespace ma::knowledge
