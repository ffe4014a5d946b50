#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "prim/hash_kernels.h"
#include "prim/hash_table.h"
#include "registry/primitive_dictionary.h"

namespace ma {
namespace {

TEST(HashKeyTest, DeterministicAndSpread) {
  EXPECT_EQ(HashKey(42), HashKey(42));
  EXPECT_NE(HashKey(42), HashKey(43));
  // Low bits should differ for consecutive keys (bucket spread).
  int same_low = 0;
  for (i64 k = 0; k < 1000; ++k) {
    same_low += ((HashKey(k) & 0xff) == (HashKey(k + 1) & 0xff));
  }
  EXPECT_LT(same_low, 50);
}

TEST(GroupTableTest, FindOrInsertAssignsDenseIds) {
  GroupTable t;
  EXPECT_EQ(t.FindOrInsert(100), 0u);
  EXPECT_EQ(t.FindOrInsert(200), 1u);
  EXPECT_EQ(t.FindOrInsert(100), 0u);
  EXPECT_EQ(t.num_groups(), 2u);
  EXPECT_EQ(t.KeyOfGroup(0), 100);
  EXPECT_EQ(t.KeyOfGroup(1), 200);
}

TEST(GroupTableTest, FindWithoutInsert) {
  GroupTable t;
  EXPECT_EQ(t.Find(5), -1);
  t.FindOrInsert(5);
  EXPECT_EQ(t.Find(5), 0);
}

TEST(GroupTableTest, SurvivesGrowth) {
  GroupTable t(16);
  std::unordered_map<i64, u32> expected;
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    const i64 key = static_cast<i64>(rng.NextBounded(20000));
    const u32 gid = t.FindOrInsert(key);
    auto [it, inserted] = expected.try_emplace(key, gid);
    ASSERT_EQ(it->second, gid) << "key " << key;
  }
  EXPECT_EQ(t.num_groups(), expected.size());
}

TEST(GroupTableTest, ClearResets) {
  GroupTable t;
  t.FindOrInsert(1);
  t.FindOrInsert(2);
  t.Clear();
  EXPECT_EQ(t.num_groups(), 0u);
  EXPECT_EQ(t.Find(1), -1);
  EXPECT_EQ(t.FindOrInsert(2), 0u);
}

TEST(InsertCheckKernelTest, MatchesScalarPath) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("ht_insertcheck_i64_col");
  ASSERT_NE(entry, nullptr);
  Rng rng(5);
  constexpr size_t kN = 1024;
  std::vector<i64> keys(kN);
  for (auto& k : keys) k = static_cast<i64>(rng.NextBounded(64));

  for (const FlavorInfo& flavor : entry->flavors) {
    GroupTable table;
    GroupTable reference;
    table.EnsureRoom(kN);
    std::vector<u32> out(kN);
    PrimCall c;
    c.n = kN;
    c.res = out.data();
    c.in1 = keys.data();
    c.state = &table;
    flavor.fn(c);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], reference.FindOrInsert(keys[i]))
          << "flavor " << flavor.name << " at " << i;
    }
  }
}

TEST(InsertCheckKernelTest, HonorsSelectionVector) {
  GroupTable table;
  table.EnsureRoom(4);
  std::vector<i64> keys{7, 8, 7, 9};
  std::vector<sel_t> sel{0, 2};
  std::vector<u32> out(4, 999);
  PrimCall c;
  c.n = 4;
  c.res = out.data();
  c.in1 = keys.data();
  c.sel = sel.data();
  c.sel_n = 2;
  c.state = &table;
  hash_detail::InsertCheck(c);
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[2], 0u);
  EXPECT_EQ(out[1], 999u);  // untouched
  EXPECT_EQ(table.num_groups(), 1u);
}

// --- GroupTable run mode -------------------------------------------------

/// Keys of `runs` ascending runs: run r has leading part 3r (`key >>
/// shift`) and 1..max_groups distinct groups, each repeated, in random
/// order inside the run.
std::vector<i64> AscendingRuns(size_t runs, u64 max_groups, int shift,
                               u64 seed) {
  Rng rng(seed);
  std::vector<i64> keys;
  for (size_t r = 0; r < runs; ++r) {
    const u64 groups = 1 + rng.NextBounded(max_groups);
    for (u64 row = 0; row < 3 * groups; ++row) {
      keys.push_back(static_cast<i64>(3 * r) << shift |
                     static_cast<i64>(rng.NextBounded(groups)));
    }
  }
  return keys;
}

/// Feeds `keys` to the insert-check kernel one 1024-key vector at a time,
/// as HashAggOperator does (EnsureRoom, then one call). With `with_sel`
/// every position p with p % 3 == 1 is filtered out, so positions 0, 512
/// and 1023 stay live. Returns the gid of every live key, in order.
std::vector<u32> InsertAll(GroupTable* t, const std::vector<i64>& keys,
                           bool with_sel) {
  constexpr size_t kVec = 1024;
  std::vector<u32> gids;
  std::vector<u32> out(kVec);
  std::vector<sel_t> sel;
  for (size_t base = 0; base < keys.size(); base += kVec) {
    const size_t n = std::min(kVec, keys.size() - base);
    PrimCall c;
    c.n = n;
    c.res = out.data();
    c.in1 = keys.data() + base;
    c.state = t;
    sel.clear();
    for (size_t i = 0; i < n; ++i) {
      if (!with_sel || i % 3 != 1) sel.push_back(static_cast<sel_t>(i));
    }
    if (with_sel) {
      c.sel = sel.data();
      c.sel_n = sel.size();
    }
    t->EnsureRoom(sel.size());
    EXPECT_EQ(hash_detail::InsertCheck(c), sel.size());
    for (const sel_t i : sel) gids.push_back(out[i]);
  }
  return gids;
}

constexpr int kShift = 8;

TEST(GroupTableRunModeTest, AscendingRunsMatchHashMode) {
  for (const u64 max_groups : {u64{1}, u64{40}}) {
    for (const bool with_sel : {false, true}) {
      const std::vector<i64> keys =
          AscendingRuns(3000, max_groups, kShift, max_groups);
      GroupTable runs;
      runs.ArmRunMode(kShift);
      GroupTable hash;
      EXPECT_EQ(InsertAll(&runs, keys, with_sel),
                InsertAll(&hash, keys, with_sel))
          << "max_groups " << max_groups << " sel " << with_sel;
      EXPECT_TRUE(runs.in_run_mode());
      EXPECT_EQ(runs.keys_by_gid(), hash.keys_by_gid());
    }
  }
}

TEST(GroupTableRunModeTest, RunLargerThanInitialBucketsRehashesInsideRun) {
  // One 5000-group run (the default 2048 buckets hold 1228 at 60% load),
  // spread over several vectors, then a small run after it.
  constexpr int kWide = 16;
  std::vector<i64> keys;
  Rng rng(11);
  std::vector<i64> subs(5000);
  for (size_t g = 0; g < subs.size(); ++g) subs[g] = static_cast<i64>(g);
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t g = subs.size(); g > 1; --g) {
      std::swap(subs[g - 1], subs[rng.NextBounded(g)]);
    }
    for (const i64 sub : subs) keys.push_back(i64{1} << kWide | sub);
  }
  for (i64 sub = 0; sub < 10; ++sub) keys.push_back(i64{2} << kWide | sub);
  GroupTable runs;
  runs.ArmRunMode(kWide);
  GroupTable hash;
  EXPECT_EQ(InsertAll(&runs, keys, false), InsertAll(&hash, keys, false));
  EXPECT_TRUE(runs.in_run_mode());
  EXPECT_EQ(runs.num_groups(), 5010u);
  EXPECT_EQ(runs.keys_by_gid(), hash.keys_by_gid());
}

TEST(GroupTableRunModeTest, OutOfOrderKeyLeavesRunModeMidVector) {
  // The late key (leading part 0, behind every later run) lands at the
  // first, a middle and the last position of the third vector.
  for (const size_t pos : {size_t{0}, size_t{512}, size_t{1023}}) {
    for (const bool with_sel : {false, true}) {
      std::vector<i64> keys = AscendingRuns(2000, 20, kShift, 3);
      ASSERT_GT(keys.size(), 4 * 1024u);
      keys[2 * 1024 + pos] = 250;  // a new group of the first run
      GroupTable runs;
      runs.ArmRunMode(kShift);
      GroupTable hash;
      EXPECT_EQ(InsertAll(&runs, keys, with_sel),
                InsertAll(&hash, keys, with_sel))
          << "pos " << pos << " sel " << with_sel;
      EXPECT_FALSE(runs.in_run_mode());
      ASSERT_EQ(runs.keys_by_gid(), hash.keys_by_gid());
      for (u32 g = 0; g < runs.num_groups(); ++g) {
        ASSERT_EQ(runs.Find(runs.KeyOfGroup(g)), g) << "pos " << pos;
      }
    }
  }
}

TEST(GroupTableRunModeTest, FindAfterRunModeDrain) {
  const std::vector<i64> keys = AscendingRuns(500, 30, kShift, 5);
  GroupTable runs;
  runs.ArmRunMode(kShift);
  InsertAll(&runs, keys, false);
  ASSERT_TRUE(runs.in_run_mode());
  runs.LeaveRunMode(0);
  EXPECT_FALSE(runs.in_run_mode());
  for (u32 g = 0; g < runs.num_groups(); ++g) {
    ASSERT_EQ(runs.Find(runs.KeyOfGroup(g)), g);
  }
  EXPECT_EQ(runs.Find(255), -1);  // run 0 has fewer than 255 groups
  EXPECT_EQ(runs.Find(i64{1} << kShift), -1);  // leading parts are 3r
}

TEST(GroupTableRunModeTest, ScalarFindOrInsertHonorsRunMode) {
  std::vector<i64> keys = AscendingRuns(300, 10, kShift, 9);
  keys.push_back(3);  // late: leaves run mode
  keys.push_back(keys[keys.size() / 2]);
  GroupTable runs;
  runs.ArmRunMode(kShift);
  GroupTable hash;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(runs.FindOrInsert(keys[i]), hash.FindOrInsert(keys[i]))
        << "at " << i;
    ASSERT_EQ(runs.in_run_mode(), i + 2 < keys.size()) << "at " << i;
  }
}

// A build row's id is its position in append order, across appends.
TEST(JoinHashTableTest, UniqueKeyLookup) {
  JoinHashTable t;
  std::vector<i64> keys{10, 20, 30};
  std::vector<i64> more{40};
  t.Append(keys.data(), keys.size(), nullptr, 0);
  t.Append(more.data(), more.size(), nullptr, 0);
  t.Finalize();
  EXPECT_EQ(t.Lookup(20), (std::vector<u64>{1}));
  EXPECT_EQ(t.Lookup(40), (std::vector<u64>{3}));
  EXPECT_TRUE(t.Lookup(99).empty());
}

TEST(JoinHashTableTest, DuplicateKeys) {
  JoinHashTable t;
  std::vector<i64> keys{5, 5, 6, 5};
  t.Append(keys.data(), keys.size(), nullptr, 0);
  t.Finalize();
  auto rows = t.Lookup(5);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<u64>{0, 1, 3}));
}

TEST(JoinHashTableTest, AppendWithSelection) {
  JoinHashTable t;
  std::vector<i64> keys{1, 2, 3, 4};
  std::vector<sel_t> sel{1, 3};
  t.Append(keys.data(), keys.size(), sel.data(), sel.size());
  t.Finalize();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Lookup(2), (std::vector<u64>{0}));
  EXPECT_EQ(t.Lookup(4), (std::vector<u64>{1}));
  EXPECT_TRUE(t.Lookup(1).empty());
}

TEST(ProbeKernelTest, EmitsAllMatches) {
  JoinHashTable t;
  std::vector<i64> build{1, 2, 2, 3};
  t.Append(build.data(), build.size(), nullptr, 0);
  t.Finalize();

  std::vector<i64> probe{2, 9, 3};
  std::vector<sel_t> out_pos(16);
  std::vector<u64> out_row(16);
  ProbeState st;
  st.table = &t;
  st.cursor = ProbeCursor{0, JoinHashTable::kNil, false};
  st.out_probe_pos = out_pos.data();
  st.out_build_row = out_row.data();
  st.out_capacity = 16;
  PrimCall c;
  c.n = probe.size();
  c.in1 = probe.data();
  c.state = &st;
  const size_t m = hash_detail::Probe(c);
  EXPECT_EQ(m, 3u);
  EXPECT_TRUE(st.cursor.done);
  // Probe position 0 (key 2) matches build rows {1,2}; position 2 -> 3.
  std::vector<std::pair<sel_t, u64>> pairs;
  for (size_t i = 0; i < m; ++i) pairs.push_back({out_pos[i], out_row[i]});
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs[0], (std::pair<sel_t, u64>{0, 1}));
  EXPECT_EQ(pairs[1], (std::pair<sel_t, u64>{0, 2}));
  EXPECT_EQ(pairs[2], (std::pair<sel_t, u64>{2, 3}));
}

TEST(ProbeKernelTest, ResumesWhenOutputFull) {
  JoinHashTable t;
  std::vector<i64> build(10, 42);  // 10 duplicates of one key
  t.Append(build.data(), build.size(), nullptr, 0);
  t.Finalize();

  std::vector<i64> probe{42, 42};
  std::vector<sel_t> out_pos(4);
  std::vector<u64> out_row(4);
  ProbeState st;
  st.table = &t;
  st.cursor = ProbeCursor{0, JoinHashTable::kNil, false};
  st.out_probe_pos = out_pos.data();
  st.out_build_row = out_row.data();
  st.out_capacity = 4;
  PrimCall c;
  c.n = probe.size();
  c.in1 = probe.data();
  c.state = &st;

  size_t total = 0;
  int rounds = 0;
  for (;;) {
    const size_t m = hash_detail::Probe(c);
    total += m;
    ++rounds;
    if (st.cursor.done) break;
    ASSERT_LT(rounds, 100);
  }
  EXPECT_EQ(total, 20u);  // 2 probes x 10 matches
  EXPECT_GE(rounds, 5);
}

TEST(ProbeKernelTest, SelectionVectorRestrictsProbes) {
  JoinHashTable t;
  std::vector<i64> build{1, 2, 3};
  t.Append(build.data(), build.size(), nullptr, 0);
  t.Finalize();
  std::vector<i64> probe{1, 2, 3};
  std::vector<sel_t> sel{1};  // only probe position 1
  std::vector<sel_t> out_pos(8);
  std::vector<u64> out_row(8);
  ProbeState st;
  st.table = &t;
  st.cursor = ProbeCursor{0, JoinHashTable::kNil, false};
  st.out_probe_pos = out_pos.data();
  st.out_build_row = out_row.data();
  st.out_capacity = 8;
  PrimCall c;
  c.n = probe.size();
  c.in1 = probe.data();
  c.sel = sel.data();
  c.sel_n = 1;
  c.state = &st;
  const size_t m = hash_detail::Probe(c);
  EXPECT_EQ(m, 1u);
  EXPECT_EQ(out_pos[0], 1u);
  EXPECT_EQ(out_row[0], 1u);
}

TEST(MapHashKernelTest, SimdParityAcrossLengthsAndSelections) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("map_hash_i64_col");
  ASSERT_NE(entry, nullptr);
  const int avx2 = entry->FindFlavor("avx2");
  if (avx2 < 0) GTEST_SKIP() << "no AVX2 on this machine";
  Rng rng(31);
  for (const size_t n : {1u, 3u, 4u, 5u, 7u, 8u, 9u, 100u, 1000u, 1023u}) {
    std::vector<i64> keys(n);
    for (auto& k : keys) k = static_cast<i64>(rng.Next());
    std::vector<sel_t> sel;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.4)) sel.push_back(static_cast<sel_t>(i));
    }
    std::vector<u64> ref(n, 0), got(n, 0);
    for (const bool with_sel : {false, true}) {
      PrimCall c;
      c.n = n;
      c.in1 = keys.data();
      if (with_sel) {
        c.sel = sel.data();
        c.sel_n = sel.size();
      }
      c.res = ref.data();
      entry->flavors[0].fn(c);
      c.res = got.data();
      entry->flavors[avx2].fn(c);
      if (with_sel) {
        for (const sel_t i : sel) {
          ASSERT_EQ(got[i], ref[i]) << "n=" << n << " i=" << i;
        }
      } else {
        ASSERT_EQ(got, ref) << "n=" << n;
      }
    }
  }
}

TEST(SemiAntiJoinKernelTest, SimdParity) {
  for (const char* sig : {"ht_semijoin_i64_col", "ht_antijoin_i64_col"}) {
    const FlavorEntry* entry = PrimitiveDictionary::Global().Find(sig);
    ASSERT_NE(entry, nullptr) << sig;
    const int avx2 = entry->FindFlavor("avx2");
    if (avx2 < 0) GTEST_SKIP() << "no AVX2 on this machine";
    const int branching = entry->FindFlavor("branching");
    ASSERT_GE(branching, 0);

    JoinHashTable ht;
    Rng rng(47);
    std::vector<i64> build;
    for (int i = 0; i < 500; ++i) {
      build.push_back(static_cast<i64>(rng.NextBounded(2000)));
    }
    ht.Append(build.data(), build.size(), nullptr, 0);
    ht.Finalize();

    for (const size_t n : {1u, 3u, 4u, 5u, 9u, 100u, 1000u}) {
      std::vector<i64> probe(n);
      for (auto& k : probe) k = static_cast<i64>(rng.NextBounded(4000));
      std::vector<sel_t> sel;
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextBool(0.6)) sel.push_back(static_cast<sel_t>(i));
      }
      for (const bool with_sel : {false, true}) {
        std::vector<sel_t> ref(n), got(n);
        PrimCall c;
        c.n = n;
        c.in1 = probe.data();
        c.state = &ht;
        if (with_sel) {
          c.sel = sel.data();
          c.sel_n = sel.size();
        }
        c.res_sel = ref.data();
        ref.resize(entry->flavors[branching].fn(c));
        c.res_sel = got.data();
        got.resize(entry->flavors[avx2].fn(c));
        ASSERT_EQ(got, ref) << sig << " n=" << n
                            << " sel=" << with_sel;
        ref.resize(n);
        got.resize(n);
      }
    }
  }
}

// The AVX2 inner-join probe must be indistinguishable from the scalar
// flavor: same match pairs in the same order, same resume cursor when
// the output fills (exercised with a tiny out_capacity so vectors need
// several resumed calls), with and without a selection vector.
TEST(ProbeKernelTest, SimdParityIncludingResume) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("ht_probe_i64_col");
  ASSERT_NE(entry, nullptr);
  const int avx2 = entry->FindFlavor("avx2");
  if (avx2 < 0) GTEST_SKIP() << "no AVX2 on this machine";

  JoinHashTable ht;
  Rng rng(59);
  std::vector<i64> build;
  for (int i = 0; i < 600; ++i) {
    // Narrow key domain: plenty of duplicate build keys -> long chains.
    build.push_back(static_cast<i64>(rng.NextBounded(150)));
  }
  ht.Append(build.data(), build.size(), nullptr, 0);
  ht.Finalize();

  auto drain = [&](PrimFn fn, const std::vector<i64>& probe,
                   const std::vector<sel_t>* sel, size_t capacity) {
    std::vector<std::pair<sel_t, u64>> matches;
    std::vector<sel_t> out_pos(capacity);
    std::vector<u64> out_row(capacity);
    ProbeState st;
    st.table = &ht;
    st.cursor = ProbeCursor{0, JoinHashTable::kNil, false};
    st.out_probe_pos = out_pos.data();
    st.out_build_row = out_row.data();
    st.out_capacity = capacity;
    PrimCall c;
    c.n = probe.size();
    c.in1 = probe.data();
    c.state = &st;
    if (sel != nullptr) {
      c.sel = sel->data();
      c.sel_n = sel->size();
    }
    for (int guard = 0; guard < 10000; ++guard) {
      const size_t m = fn(c);
      for (size_t i = 0; i < m; ++i) {
        matches.emplace_back(out_pos[i], out_row[i]);
      }
      if (st.cursor.done) break;
    }
    EXPECT_TRUE(st.cursor.done);
    return matches;
  };

  for (const size_t n : {1u, 3u, 4u, 6u, 9u, 64u, 257u, 1000u}) {
    std::vector<i64> probe(n);
    for (auto& k : probe) k = static_cast<i64>(rng.NextBounded(300));
    std::vector<sel_t> sel;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.5)) sel.push_back(static_cast<sel_t>(i));
    }
    for (const bool with_sel : {false, true}) {
      const std::vector<sel_t>* s = with_sel ? &sel : nullptr;
      // capacity 3 forces mid-chain resumes; 4096 covers one-shot.
      for (const size_t cap : {3u, 4096u}) {
        const auto ref = drain(entry->flavors[0].fn, probe, s, cap);
        const auto got = drain(entry->flavors[avx2].fn, probe, s, cap);
        ASSERT_EQ(got, ref)
            << "n=" << n << " sel=" << with_sel << " cap=" << cap;
      }
    }
  }
}

TEST(MapHashKernelTest, FlavorsAgree) {
  const FlavorEntry* entry =
      PrimitiveDictionary::Global().Find("map_hash_i64_col");
  ASSERT_NE(entry, nullptr);
  ASSERT_GE(entry->flavors.size(), 2u);
  std::vector<i64> keys{1, -5, 1000000007, 0};
  std::vector<std::vector<u64>> results;
  for (const FlavorInfo& flavor : entry->flavors) {
    std::vector<u64> out(keys.size());
    PrimCall c;
    c.n = keys.size();
    c.res = out.data();
    c.in1 = keys.data();
    flavor.fn(c);
    results.push_back(std::move(out));
  }
  for (size_t f = 1; f < results.size(); ++f) {
    EXPECT_EQ(results[f], results[0]);
  }
  EXPECT_EQ(results[0][0], HashKey(1));
}

}  // namespace
}  // namespace ma
