#include <gtest/gtest.h>

#include "adapt/aph.h"
#include "adapt/primitive_instance.h"
#include "registry/primitive_dictionary.h"

namespace ma {
namespace {

TEST(AphTest, OneBucketPerCallInitially) {
  Aph aph(8);
  aph.Add(100, 500);
  aph.Add(100, 700);
  EXPECT_EQ(aph.buckets().size(), 2u);
  EXPECT_EQ(aph.calls_per_bucket(), 1u);
  EXPECT_DOUBLE_EQ(aph.buckets()[0].CostPerTuple(), 5.0);
  EXPECT_DOUBLE_EQ(aph.buckets()[1].CostPerTuple(), 7.0);
}

TEST(AphTest, MergesWhenFull) {
  Aph aph(8);
  for (int i = 0; i < 9; ++i) aph.Add(10, 10 * i);
  // 9th add triggers merge 8 -> 4, then appends.
  EXPECT_EQ(aph.buckets().size(), 5u);
  EXPECT_EQ(aph.calls_per_bucket(), 2u);
  EXPECT_EQ(aph.buckets()[0].calls, 2u);
  EXPECT_EQ(aph.buckets()[0].cycles, 0u + 10u);
  EXPECT_EQ(aph.buckets()[4].calls, 1u);  // the fresh call
}

TEST(AphTest, RepeatedMergesKeepBucketCountBounded) {
  Aph aph(8);
  for (int i = 0; i < 10000; ++i) aph.Add(10, 100);
  EXPECT_LE(aph.buckets().size(), 8u);
  EXPECT_EQ(aph.total_calls(), 10000u);
  EXPECT_EQ(aph.total_tuples(), 100000u);
  EXPECT_EQ(aph.total_cycles(), 1000000u);
  EXPECT_DOUBLE_EQ(aph.MeanCostPerTuple(), 10.0);
}

TEST(AphTest, CallsPerBucketIsPowerOfTwo) {
  Aph aph(4);
  for (int i = 0; i < 1000; ++i) {
    aph.Add(1, 1);
    const u64 c = aph.calls_per_bucket();
    EXPECT_EQ(c & (c - 1), 0u);
  }
  // Capacity doubles at call 2^(k+1)+1; at call 1000 full buckets cover
  // 256 calls each (4 buckets x 256 = 1024 >= 1000).
  EXPECT_EQ(aph.calls_per_bucket(), 256u);
}

TEST(AphTest, TotalsPreservedAcrossMerges) {
  Aph aph(16);
  u64 tuples = 0, cycles = 0;
  for (int i = 1; i <= 5000; ++i) {
    aph.Add(i % 97, i % 13);
    tuples += i % 97;
    cycles += i % 13;
  }
  u64 bt = 0, bc = 0, bcalls = 0;
  for (const auto& b : aph.buckets()) {
    bt += b.tuples;
    bc += b.cycles;
    bcalls += b.calls;
  }
  EXPECT_EQ(bt, tuples);
  EXPECT_EQ(bc, cycles);
  EXPECT_EQ(bcalls, 5000u);
}

TEST(AphTest, DefaultSizeIs512) {
  Aph aph;
  EXPECT_EQ(aph.max_buckets(), 512u);
  for (int i = 0; i < 100000; ++i) aph.Add(1000, 4000);
  EXPECT_LE(aph.buckets().size(), 512u);
  EXPECT_GT(aph.buckets().size(), 256u);
}

TEST(AphTest, Reset) {
  Aph aph(8);
  aph.Add(10, 10);
  aph.Reset();
  EXPECT_EQ(aph.total_calls(), 0u);
  EXPECT_TRUE(aph.buckets().empty());
  EXPECT_EQ(aph.calls_per_bucket(), 1u);
}

TEST(AphTest, OptCyclesTakesPointwiseMin) {
  Aph a(8), b(8);
  // a cheap first half, b cheap second half.
  for (int i = 0; i < 4; ++i) {
    a.Add(10, 10);
    b.Add(10, 50);
  }
  for (int i = 0; i < 4; ++i) {
    a.Add(10, 50);
    b.Add(10, 10);
  }
  EXPECT_EQ(Aph::OptCycles({&a, &b}), 80u);
  EXPECT_EQ(a.total_cycles(), 240u);
}

TEST(AphTest, OptCyclesSingleFlavorIsItsTotal) {
  Aph a(8);
  for (int i = 0; i < 20; ++i) a.Add(5, 7);
  EXPECT_EQ(Aph::OptCycles({&a}), a.total_cycles());
}

TEST(AphTest, ZeroTupleCallsDoNotPoisonCost) {
  Aph aph(8);
  aph.Add(0, 100);
  EXPECT_DOUBLE_EQ(aph.buckets()[0].CostPerTuple(), 0.0);
  EXPECT_DOUBLE_EQ(aph.MeanCostPerTuple(), 0.0);
}

TEST(AphTest, ChunkedDispatchSamplesOneCallPerChunk) {
  // With a fixed policy (exploitation is always stable) and chunk size
  // K, exactly every K-th call is a timed decision call, so the APH —
  // which only receives timed observations — holds calls/K samples.
  // Stats that need a census (calls, tuples) still count every call.
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("sel_lt_i32_col_i32_val");
  ASSERT_NE(entry, nullptr);
  AdaptiveConfig cfg;
  cfg.mode = ExecMode::kAdaptive;
  cfg.policy = PolicyKind::kFixed;
  cfg.chunk_max = 8;
  cfg.chunk_adaptive = false;  // pin K so the sampling cadence is exact
  PrimitiveInstance inst(entry, cfg, "aph_chunk");

  std::vector<i32> col(100, 1);
  const i32 bound = 50;
  std::vector<sel_t> out(100);
  for (int i = 0; i < 200; ++i) {
    PrimCall c;
    c.n = col.size();
    c.res_sel = out.data();
    c.in1 = col.data();
    c.in2 = &bound;
    inst.Call(c);
  }
  EXPECT_EQ(inst.calls(), 200u);
  EXPECT_EQ(inst.tuples(), 200u * 100);
  EXPECT_EQ(inst.aph().total_calls(), 200u / 8);
}

}  // namespace
}  // namespace ma
