#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/cycleclock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_heap.h"
#include "common/types.h"

namespace ma {
namespace {

TEST(CycleClockTest, Monotonic) {
  const u64 a = CycleClock::Now();
  const u64 b = CycleClock::Now();
  EXPECT_LE(a, b);
}

TEST(CycleClockTest, AdvancesOverTime) {
  const u64 a = CycleClock::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const u64 b = CycleClock::Now();
  EXPECT_GT(b, a);
}

TEST(CycleClockTest, FrequencyPlausible) {
  const double hz = CycleClock::FrequencyHz();
  // Any real machine: between 100MHz and 10GHz.
  EXPECT_GT(hz, 1e8);
  EXPECT_LT(hz, 1e10);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllValues) {
  Rng r(7);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const i64 v = r.NextRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const f64 v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoolProbabilityRoughlyHolds) {
  Rng r(13);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += r.NextBool(0.3);
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.02);
}

TEST(RngTest, BoolExtremes) {
  Rng r(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.NextBool(0.0));
    EXPECT_TRUE(r.NextBool(1.0));
  }
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad vector size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad vector size"), std::string::npos);
  EXPECT_NE(s.ToString().find("InvalidArgument"), std::string::npos);
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = static_cast<int>(StatusCode::kOk);
       c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    const Status s(static_cast<StatusCode>(c), "msg");
    EXPECT_EQ(s.ToString().find("Unknown"), std::string::npos)
        << "code " << c << ": " << s.ToString();
  }
  EXPECT_EQ(Status::Unavailable("shed").ToString(), "Unavailable: shed");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    MA_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(StringHeapTest, RoundTrips) {
  StringHeap heap;
  const StrRef a = heap.Add("hello");
  const StrRef b = heap.Add("world");
  EXPECT_EQ(a.view(), "hello");
  EXPECT_EQ(b.view(), "world");
  EXPECT_EQ(heap.bytes_used(), 10u);
}

TEST(StringHeapTest, ReferencesStableAcrossGrowth) {
  StringHeap heap;
  const StrRef first = heap.Add("anchor");
  std::vector<StrRef> refs;
  for (int i = 0; i < 10000; ++i) {
    refs.push_back(heap.Add("string_" + std::to_string(i)));
  }
  EXPECT_EQ(first.view(), "anchor");
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(refs[i].view(), "string_" + std::to_string(i));
  }
}

TEST(StringHeapTest, OversizedString) {
  StringHeap heap;
  const StrRef small = heap.Add("s");
  const std::string big(1 << 17, 'x');
  const StrRef r = heap.Add(big);
  EXPECT_EQ(r.view(), big);
  EXPECT_EQ(small.view(), "s");
  const StrRef after = heap.Add("after");
  EXPECT_EQ(after.view(), "after");
}

TEST(StrRefTest, ComparesByContent) {
  StringHeap heap;
  const StrRef a = heap.Add("abc");
  const StrRef b = heap.Add("abc");
  const StrRef c = heap.Add("abd");
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(c < a);
}

TEST(TypesTest, WidthsAndNames) {
  EXPECT_EQ(TypeWidth(PhysicalType::kI8), 1u);
  EXPECT_EQ(TypeWidth(PhysicalType::kI16), 2u);
  EXPECT_EQ(TypeWidth(PhysicalType::kI32), 4u);
  EXPECT_EQ(TypeWidth(PhysicalType::kI64), 8u);
  EXPECT_EQ(TypeWidth(PhysicalType::kF64), 8u);
  EXPECT_EQ(TypeWidth(PhysicalType::kStr), sizeof(StrRef));
  EXPECT_STREQ(TypeName(PhysicalType::kI32), "i32");
  EXPECT_STREQ(TypeName(PhysicalType::kStr), "str");
}

}  // namespace
}  // namespace ma
