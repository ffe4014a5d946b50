#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "adapt/bandit.h"
#include "adapt/primitive_instance.h"
#include "registry/primitive_dictionary.h"

namespace ma {
namespace {

PolicyParams SmallParams() {
  PolicyParams p;
  p.explore_period = 64;
  p.exploit_period = 8;
  p.explore_length = 4;
  p.warmup_calls = 2;
  return p;
}

/// Feeds the policy a stationary cost profile and returns pull counts.
std::vector<int> RunStationary(BanditPolicy* policy,
                               const std::vector<f64>& cost_per_tuple,
                               int calls) {
  std::vector<int> pulls(cost_per_tuple.size(), 0);
  for (int t = 0; t < calls; ++t) {
    const int f = policy->Choose();
    ++pulls[f];
    policy->Update(1000, static_cast<u64>(cost_per_tuple[f] * 1000));
  }
  return pulls;
}

TEST(FixedPolicyTest, AlwaysSameFlavor) {
  FixedPolicy p(3, 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p.Choose(), 1);
}

TEST(RoundRobinPolicyTest, CyclesThroughAll) {
  RoundRobinPolicy p(3);
  EXPECT_EQ(p.Choose(), 0);
  EXPECT_EQ(p.Choose(), 1);
  EXPECT_EQ(p.Choose(), 2);
  EXPECT_EQ(p.Choose(), 0);
}

TEST(VwGreedyTest, ConvergesToBestStationaryFlavor) {
  VwGreedyPolicy p(3, SmallParams());
  const auto pulls = RunStationary(&p, {10.0, 4.0, 8.0}, 10000);
  // Flavor 1 is best; should take the overwhelming majority of calls.
  EXPECT_GT(pulls[1], 8500);
}

TEST(VwGreedyTest, InitialSweepTestsEveryFlavor) {
  PolicyParams params = SmallParams();
  params.initial_sweep = true;
  VwGreedyPolicy p(4, params);
  const auto pulls = RunStationary(&p, {1.0, 1.0, 1.0, 1.0}, 64);
  for (int f = 0; f < 4; ++f) EXPECT_GT(pulls[f], 0) << "flavor " << f;
}

TEST(VwGreedyTest, AdaptsToMidQueryCrossover) {
  // Flavor 0 best first, flavor 1 best later (the Figure 2 scenario).
  VwGreedyPolicy p(2, SmallParams());
  int late_pulls_best = 0;
  for (int t = 0; t < 20000; ++t) {
    const int f = p.Choose();
    f64 cost;
    if (t < 10000) {
      cost = (f == 0) ? 4.0 : 5.0;
    } else {
      cost = (f == 0) ? 16.0 : 5.0;
      if (t >= 11000) late_pulls_best += (f == 1);
    }
    p.Update(1000, static_cast<u64>(cost * 1000));
  }
  // After the change (allowing 1000 calls to react), flavor 1 dominates.
  EXPECT_GT(late_pulls_best, 8200);
}

TEST(VwGreedyTest, ExploresPeriodically) {
  VwGreedyPolicy p(3, SmallParams());
  // Even with a clear winner, exploration must keep sampling losers.
  const auto pulls = RunStationary(&p, {2.0, 50.0, 50.0}, 10000);
  EXPECT_GT(pulls[1], 50);
  EXPECT_GT(pulls[2], 50);
  EXPECT_GT(pulls[0], 9000);
}

TEST(VwGreedyTest, WindowedCostsTrackRecentPerformance) {
  VwGreedyPolicy p(2, SmallParams());
  RunStationary(&p, {10.0, 3.0}, 2000);
  const auto& costs = p.flavor_costs();
  EXPECT_NEAR(costs[1], 3.0, 0.5);
  EXPECT_NEAR(costs[0], 10.0, 2.0);
}

TEST(VwGreedyTest, SingleFlavorDegenerate) {
  VwGreedyPolicy p(1, SmallParams());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.Choose(), 0);
    p.Update(10, 10);
  }
}

TEST(VwGreedyTest, ResetRestoresInitialState) {
  VwGreedyPolicy p(2, SmallParams());
  RunStationary(&p, {1.0, 9.0}, 500);
  p.Reset();
  EXPECT_TRUE(std::isinf(p.flavor_costs()[0]));
  EXPECT_TRUE(std::isinf(p.flavor_costs()[1]));
}

TEST(VwGreedyTest, NameEncodesParameters) {
  VwGreedyPolicy p(2, SmallParams());
  EXPECT_EQ(p.name(), "vw-greedy(64,8,4)");
}

TEST(EpsGreedyTest, ConvergesAndKeepsExploring) {
  PolicyParams params;
  params.eps = 0.1;
  EpsPolicy p(EpsPolicy::Variant::kGreedy, 2, params);
  const auto pulls = RunStationary(&p, {8.0, 2.0}, 10000);
  EXPECT_GT(pulls[1], 8500);
  // ~10% exploration, half of it on flavor 0.
  EXPECT_GT(pulls[0], 200);
}

TEST(EpsFirstTest, CommitsAfterExploration) {
  PolicyParams params;
  params.eps = 0.05;
  params.horizon = 2000;  // explore first 100 calls
  EpsPolicy p(EpsPolicy::Variant::kFirst, 2, params);
  std::vector<int> pulls(2, 0);
  for (int t = 0; t < 2000; ++t) {
    const int f = p.Choose();
    ++pulls[f];
    p.Update(1000, (f == 0) ? 9000 : 3000);
  }
  EXPECT_GT(pulls[1], 1850);
  // After call 100 it must never pick flavor 0 again.
  FixedPolicy sanity(1);  // (silence unused warnings pattern)
  (void)sanity;
}

TEST(EpsFirstTest, AdaptsMuchSlowerThanVwGreedyAfterCrossover) {
  // The weakness the paper notes: eps-first stops exploring, so it only
  // notices a cross-over through the drifting lifetime mean of the arm
  // it is stuck on — orders of magnitude slower than vw-greedy's
  // windowed per-phase averages.
  auto run = [](BanditPolicy* p) {
    int late_wrong = 0;
    for (int t = 0; t < 20000; ++t) {
      const int f = p->Choose();
      f64 cost = (f == 0) ? 4.0 : 6.0;  // 0 best early
      if (t >= 10000) {
        cost = (f == 0) ? 20.0 : 6.0;  // 1 best late
        late_wrong += (f == 0);
      }
      p->Update(1000, static_cast<u64>(cost * 1000));
    }
    return late_wrong;
  };
  PolicyParams params;
  params.eps = 0.05;
  params.horizon = 2000;
  EpsPolicy eps_first(EpsPolicy::Variant::kFirst, 2, params);
  // Production parameters (1024,8,2): little exploration overhead.
  VwGreedyPolicy vw(2, PolicyParams{});
  const int ef_wrong = run(&eps_first);
  const int vw_wrong = run(&vw);
  EXPECT_GT(ef_wrong, 10 * vw_wrong);
  EXPECT_GT(ef_wrong, 800);  // eps-first wastes hundreds of calls
  EXPECT_LT(vw_wrong, 120);  // vw-greedy: one exploit phase + the ~2
                             // exploration calls per 1024-call period
}

TEST(EpsDecreasingTest, ExplorationDiesDown) {
  PolicyParams params;
  params.eps = 5.0;  // eps_t = min(1, 5/t)
  EpsPolicy p(EpsPolicy::Variant::kDecreasing, 2, params);
  const auto pulls = RunStationary(&p, {9.0, 3.0}, 10000);
  EXPECT_GT(pulls[1], 9000);
}

TEST(MakePolicyTest, CreatesEveryKind) {
  PolicyParams params;
  for (const PolicyKind kind :
       {PolicyKind::kFixed, PolicyKind::kVwGreedy, PolicyKind::kEpsGreedy,
        PolicyKind::kEpsFirst, PolicyKind::kEpsDecreasing,
        PolicyKind::kRoundRobin}) {
    auto p = MakePolicy(kind, 3, params);
    ASSERT_NE(p, nullptr) << PolicyKindName(kind);
    EXPECT_EQ(p->num_flavors(), 3);
    const int f = p->Choose();
    EXPECT_GE(f, 0);
    EXPECT_LT(f, 3);
    p->Update(10, 10);
  }
}

// ---------------------------------------------------------------------
// PrimitiveInstance integration.
// ---------------------------------------------------------------------

TEST(PrimitiveInstanceTest, AdaptiveCallsProduceCorrectResultsAndStats) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("sel_lt_i32_col_i32_val");
  ASSERT_NE(entry, nullptr);
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.enabled_sets = FlavorSetBit(FlavorSetId::kBranch);
  PrimitiveInstance inst(entry, cfg, "test_sel");
  EXPECT_EQ(inst.num_flavors(), 2);  // branching + nobranching

  std::vector<i32> col(1000);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<i32>(i);
  const i32 bound = 500;
  std::vector<sel_t> out(1000);
  for (int call = 0; call < 300; ++call) {
    PrimCall c;
    c.n = col.size();
    c.res_sel = out.data();
    c.in1 = col.data();
    c.in2 = &bound;
    const size_t produced = inst.Call(c);
    ASSERT_EQ(produced, 500u);
  }
  EXPECT_EQ(inst.calls(), 300u);
  EXPECT_EQ(inst.tuples(), 300000u);
  EXPECT_GT(inst.cycles(), 0u);
  EXPECT_EQ(inst.aph().total_calls(), 300u);
  u64 usage_calls = 0;
  for (const auto& u : inst.usage()) usage_calls += u.calls;
  EXPECT_EQ(usage_calls, 300u);
  EXPECT_DOUBLE_EQ(inst.last_output_selectivity(), 0.5);
}

TEST(PrimitiveInstanceTest, EnabledSetsFilterFlavors) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("sel_lt_i32_col_i32_val");
  AdaptiveConfig cfg;
  cfg.enabled_sets = 0;  // only the default flavor
  PrimitiveInstance inst(entry, cfg, "only_default");
  EXPECT_EQ(inst.num_flavors(), 1);
  EXPECT_EQ(inst.flavors()[0]->name, "branching");

  cfg.enabled_sets = kAllFlavorSets;
  PrimitiveInstance all(entry, cfg, "all");
  // Every registered flavor is eligible: branching+nobranching+3
  // compilers, plus whatever SIMD tier CPUID enabled on this machine.
  EXPECT_EQ(all.num_flavors(), static_cast<int>(entry->flavors.size()));
  EXPECT_GE(all.num_flavors(), 5);
}

TEST(PrimitiveInstanceTest, ForcedFlavorMode) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("sel_lt_i32_col_i32_val");
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kForcedFlavor;
  cfg.forced_flavor = "nobranching";
  PrimitiveInstance inst(entry, cfg, "forced");
  std::vector<i32> col{1, 2, 3};
  const i32 bound = 3;
  std::vector<sel_t> out(3);
  PrimCall c;
  c.n = 3;
  c.res_sel = out.data();
  c.in1 = col.data();
  c.in2 = &bound;
  inst.Call(c);
  EXPECT_EQ(inst.flavors()[inst.last_flavor()]->name, "nobranching");
  EXPECT_EQ(inst.usage()[inst.last_flavor()].calls, 1u);
}

TEST(PrimitiveInstanceTest, ForcedFlavorFallsBackToDefault) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("aggr_sum_i64_col");
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kForcedFlavor;
  cfg.forced_flavor = "nobranching";  // aggr has no such flavor
  PrimitiveInstance inst(entry, cfg, "fallback");
  EXPECT_EQ(inst.flavors()[0]->set, FlavorSetId::kDefault);
}

TEST(PrimitiveInstanceTest, AffectedByReflectsRegisteredSets) {
  const auto& dict = PrimitiveDictionary::Global();
  AdaptiveConfig cfg;
  PrimitiveInstance sel(dict.Find("sel_lt_i32_col_i32_val"), cfg, "s");
  EXPECT_TRUE(sel.AffectedBy(FlavorSetId::kBranch));
  EXPECT_FALSE(sel.AffectedBy(FlavorSetId::kFission));
  PrimitiveInstance bloom(dict.Find("sel_bloomfilter_i64_col"), cfg, "b");
  EXPECT_TRUE(bloom.AffectedBy(FlavorSetId::kFission));
  EXPECT_FALSE(bloom.AffectedBy(FlavorSetId::kBranch));
}

// ---------------------------------------------------------------------
// Chunked dispatch. Synthetic flavors with a massive real cost gap make
// the timing-based convergence deterministic enough for CI.
// ---------------------------------------------------------------------

size_t SyntheticFastPrim(const PrimCall& c) { return c.n; }

size_t SyntheticSlowPrim(const PrimCall& c) {
  volatile u64 sink = 0;
  for (int i = 0; i < 20000; ++i) sink += static_cast<u64>(i);
  return c.n;
}

FlavorEntry SyntheticEntry() {
  FlavorEntry e;
  e.signature = "synthetic_sel";
  // Slow flavor is the default: convergence must actively move away.
  e.flavors.push_back(
      FlavorInfo{"slow", FlavorSetId::kDefault, &SyntheticSlowPrim});
  e.flavors.push_back(
      FlavorInfo{"fast", FlavorSetId::kBranch, &SyntheticFastPrim});
  e.default_index = 0;
  return e;
}

TEST(PrimitiveInstanceTest, ChunkedDispatchStillConvergesToBestFlavor) {
  const FlavorEntry entry = SyntheticEntry();
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.chunk_max = 64;
  cfg.params.explore_period = 64;
  cfg.params.exploit_period = 8;
  cfg.params.explore_length = 4;
  PrimitiveInstance inst(&entry, cfg, "chunked");
  const int fast = inst.FindFlavor("fast");
  ASSERT_GE(fast, 0);

  constexpr int kCalls = 4096;
  PrimCall c;
  c.n = 1000;
  for (int i = 0; i < kCalls; ++i) inst.Call(c);

  EXPECT_EQ(inst.calls(), static_cast<u64>(kCalls));
  EXPECT_EQ(inst.tuples(), static_cast<u64>(kCalls) * 1000);
  // The overwhelming majority of calls must land on the fast flavor.
  EXPECT_GT(inst.usage()[fast].calls, static_cast<u64>(kCalls) * 8 / 10);
  // Chunked mode times only decision calls: far fewer APH samples than
  // calls, but more than zero.
  EXPECT_GT(inst.aph().total_calls(), 0u);
  EXPECT_LT(inst.aph().total_calls(), static_cast<u64>(kCalls) / 4);
}

TEST(PrimitiveInstanceTest, ChunkSizeOneMatchesClassicBehavior) {
  const FlavorEntry entry = SyntheticEntry();
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.chunk_max = 1;
  PrimitiveInstance inst(&entry, cfg, "classic");
  PrimCall c;
  c.n = 100;
  for (int i = 0; i < 50; ++i) inst.Call(c);
  // Every call is a timed decision call.
  EXPECT_EQ(inst.aph().total_calls(), 50u);
}

TEST(PrimitiveInstanceTest, ChunkedDispatchKeepsExploringAfterConvergence) {
  const FlavorEntry entry = SyntheticEntry();
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.chunk_max = 16;
  cfg.params.explore_period = 64;
  cfg.params.exploit_period = 8;
  cfg.params.explore_length = 2;
  PrimitiveInstance inst(&entry, cfg, "explore");
  const int slow = inst.FindFlavor("slow");
  PrimCall c;
  c.n = 1000;
  for (int i = 0; i < 4096; ++i) inst.Call(c);
  // vw-greedy's periodic exploration must still sample the loser.
  EXPECT_GT(inst.usage()[slow].calls, 10u);
}

TEST(PrimitiveInstanceTest, AdaptiveChunkGrowsWhileWinnerIsStable) {
  // A fixed policy is permanently stable on one flavor, so K must double
  // every decision call (2, 4, 8, 16) and then saturate at chunk_max.
  const FlavorEntry entry = SyntheticEntry();
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.policy = PolicyKind::kFixed;
  cfg.chunk_max = 16;
  PrimitiveInstance inst(&entry, cfg, "grow");
  PrimCall c;
  c.n = 100;
  u64 max_k = 0;
  for (int i = 0; i < 200; ++i) {
    inst.Call(c);
    max_k = std::max(max_k, inst.current_chunk_k());
  }
  EXPECT_EQ(max_k, 16u);
  // Decision calls: 4 doubling steps (after calls 1, 3, 7, 15), then one
  // per 16 calls. Far fewer timed samples than the 200 calls made.
  EXPECT_EQ(inst.calls(), 200u);
  const u64 timed = inst.aph().total_calls();
  EXPECT_GE(timed, 10u);
  EXPECT_LE(timed, 20u);
}

TEST(PrimitiveInstanceTest, AdaptiveChunkShrinksOnRegimeChange) {
  // vw-greedy periodically re-explores; exploration decisions are not
  // stable, so K must collapse back to 1 and then regrow — both states
  // must be observable over a few exploration periods.
  const FlavorEntry entry = SyntheticEntry();
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.chunk_max = 16;
  // Short periods: the policy clock only advances on decision calls, and
  // chunked replays make those ~chunk_max times rarer than Call()s.
  cfg.params.explore_period = 16;
  cfg.params.exploit_period = 8;
  cfg.params.explore_length = 2;
  PrimitiveInstance inst(&entry, cfg, "shrink");
  PrimCall c;
  c.n = 1000;
  bool grew = false;
  bool shrank_after_growth = false;
  for (int i = 0; i < 2048; ++i) {
    inst.Call(c);
    const u64 k = inst.current_chunk_k();
    if (k >= 4) grew = true;
    if (grew && k == 1) shrank_after_growth = true;
  }
  EXPECT_TRUE(grew);
  EXPECT_TRUE(shrank_after_growth);
}

TEST(PrimitiveInstanceTest, HeuristicModeUsesHook) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("sel_lt_i32_col_i32_val");
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kHeuristic;
  cfg.enabled_sets = FlavorSetBit(FlavorSetId::kBranch);
  PrimitiveInstance inst(entry, cfg, "h");
  const int nb = inst.FindFlavor("nobranching");
  ASSERT_GE(nb, 0);
  inst.heuristic_params().flavor = nb;
  inst.set_heuristic(
      [](const void* ctx, const PrimitiveInstance&, const PrimCall&) {
        return static_cast<const PrimitiveInstance::HeuristicParams*>(ctx)
            ->flavor;
      },
      &inst.heuristic_params());
  std::vector<i32> col{5};
  const i32 bound = 10;
  std::vector<sel_t> out(1);
  PrimCall c;
  c.n = 1;
  c.res_sel = out.data();
  c.in1 = col.data();
  c.in2 = &bound;
  inst.Call(c);
  EXPECT_EQ(inst.last_flavor(), nb);
}

}  // namespace
}  // namespace ma
