// Randomized differential testing of the two executors: a seeded
// generator builds a few hundred small logical plans — filter / project
// / hash-join (inner, semi, anti, left outer) / global, one- and
// two-key group-by (sum, count, and avg / min / max over i64 and f64, or
// no aggregate at all: a DISTINCT; key outputs in or out of key order,
// and a captured output that depends on a key) / sort / limit
// pipelines over
// the dbgen tables, including HAVING-style filters and projections above
// an aggregation and top-N sorts large enough for the parallel TopN
// path, a quarter of them DAG-shaped (duplicated subtrees for the compiler's automatic CSE,
// or explicit BindShared/SharedRef fan-out) — and every plan must
// produce byte-identical results serially and through the staged
// parallel executor at 1, 2 and 4 worker threads.
//
// The TPC-H suites pin 22 hand-written shapes; this one walks the
// random neighborhood around them, so an executor bug that happens to
// dodge all 22 still has a few hundred chances to surface. The seed is
// fixed: a failure reproduces exactly, and the plan index in the
// failure message identifies the offending plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exec/expr.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "table_fingerprint.h"
#include "tpch/dbgen.h"

namespace ma::tpch {
namespace {

using plan::PlanBuilder;
using plan::SharedSubplan;

// Bisect lever: false disables bloom filters on generated joins WITHOUT
// disturbing the RNG draw sequence, so a failing plan index stays the
// same plan while you rule blooms in or out.
constexpr bool kEnableBloom = true;

// --- deterministic generator RNG (splitmix64) ---

struct Rng {
  u64 state;

  u64 Next() {
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  u64 Below(u64 n) { return Next() % n; }
  bool Chance(u64 pct) { return Below(100) < pct; }
};

// Compact plan dump for failure messages: a diverging plan index alone
// reproduces the failure, but the shape tells you where to look.
void DumpNode(const plan::PlanNode& n, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(plan::NodeKindName(n.kind));
  out->append(" [").append(n.label).append("]");
  if (n.kind == plan::NodeKind::kHashJoin) {
    switch (n.hash_spec.kind) {
      case HashJoinSpec::Kind::kInner: out->append(" inner"); break;
      case HashJoinSpec::Kind::kSemi: out->append(" semi"); break;
      case HashJoinSpec::Kind::kAnti: out->append(" anti"); break;
      case HashJoinSpec::Kind::kLeftOuter: out->append(" leftouter"); break;
    }
    if (n.hash_spec.use_bloom) out->append(" bloom");
    out->append(" ").append(n.hash_spec.build_key);
    out->append("=").append(n.hash_spec.probe_key);
  }
  if (n.kind == plan::NodeKind::kSort || n.kind == plan::NodeKind::kLimit) {
    for (const auto& k : n.sort_keys) {
      out->append(" ").append(k.column).append(k.desc ? ":desc" : ":asc");
    }
    if (n.limit != 0) {
      out->append(" limit=").append(std::to_string(n.limit));
    }
  }
  out->append("\n");
  for (const auto& c : n.children) DumpNode(*c, depth + 1, out);
}

std::string DumpPlan(const plan::LogicalPlan& p) {
  std::string out;
  for (const auto& s : p.shared) {
    out.append("shared ").append(s->name).append(":\n");
    DumpNode(*s->root, 1, &out);
  }
  DumpNode(*p.root, 0, &out);
  return out;
}

class PlanDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchConfig cfg;
    cfg.scale_factor = 0.01;
    data_ = Generate(cfg).release();
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static TpchData* data_;
};

TpchData* PlanDifferentialTest::data_ = nullptr;

// Samples a comparison threshold from the column's actual values, so
// random filters land at useful selectivities instead of keeping or
// dropping everything.
i64 SampleI64(const Table* t, const char* col, Rng* rng) {
  return t->FindColumn(col)->Data<i64>()[rng->Below(t->row_count())];
}
f64 SampleF64(const Table* t, const char* col, Rng* rng) {
  return t->FindColumn(col)->Data<f64>()[rng->Below(t->row_count())];
}

ExprPtr Cmp(u64 pick, ExprPtr lhs, ExprPtr rhs) {
  switch (pick % 4) {
    case 0: return Lt(std::move(lhs), std::move(rhs));
    case 1: return Le(std::move(lhs), std::move(rhs));
    case 2: return Gt(std::move(lhs), std::move(rhs));
    default: return Ge(std::move(lhs), std::move(rhs));
  }
}

/// The lineitem spine every generated plan starts from: a scan of the
/// join keys and measures, with 0-2 random comparisons sampled from the
/// data. Consumes `rng` deterministically — forking the Rng by value
/// and calling this twice builds two structurally identical subtrees.
PlanBuilder LineitemSpine(const TpchData& d, Rng rng) {
  PlanBuilder b = PlanBuilder::Scan(
      d.lineitem, {"l_orderkey", "l_suppkey", "l_quantity", "l_shipdate",
                   "l_extendedprice", "l_discount"});
  const int filters = static_cast<int>(rng.Below(3));
  for (int i = 0; i < filters; ++i) {
    switch (rng.Below(4)) {
      case 0:
        b.Filter(Cmp(rng.Next(), Col("l_shipdate"),
                     Lit(SampleI64(d.lineitem, "l_shipdate", &rng))));
        break;
      case 1:
        b.Filter(Cmp(rng.Next(), Col("l_quantity"),
                     Lit(SampleI64(d.lineitem, "l_quantity", &rng))));
        break;
      case 2:
        b.Filter(Cmp(rng.Next(), Col("l_discount"),
                     Lit(SampleF64(d.lineitem, "l_discount", &rng))));
        break;
      default:
        b.Filter(Cmp(rng.Next(), Col("l_suppkey"),
                     Lit(SampleI64(d.lineitem, "l_suppkey", &rng))));
        break;
    }
  }
  return b;
}

/// Input rows at which the staged executor runs a Sort+Limit as a
/// parallel TopN (kParallelTopNMinRows in plan/query_session.cc).
constexpr size_t kParallelTopNMinRows = 4096;

/// What GrowRandomPlan must include on top of its random choices.
enum class Shape {
  kAny,
  kJoins,  // both joins, inner
  // Inner joins with unfiltered builds, no aggregation, and a
  // Sort+Limit on top: every lineitem row of an unfiltered spine
  // reaches the sort, so it runs as a parallel TopN.
  kTopN,
};

/// Grows a random plan on top of the spine: optional value projection,
/// optional orders / supplier joins (inner, semi, anti or left outer,
/// whose build side sometimes keeps no rows), optional
/// aggregation with an optional HAVING-style filter and projection
/// above it, optional (top-N) sort, optional key-less limit. Tracks
/// which f64 measure is still in scope so every step references a live
/// column.
plan::LogicalPlan GrowRandomPlan(const TpchData& d, PlanBuilder b,
                                 Rng* rng, Shape shape) {
  const bool force_joins = shape != Shape::kAny;
  const bool topn = shape == Shape::kTopN;
  std::string measure = "l_extendedprice";
  if (rng->Chance(30)) {
    std::vector<ProjectOperator::Output> outs;
    outs.push_back({"l_orderkey", Col("l_orderkey")});
    outs.push_back({"l_suppkey", Col("l_suppkey")});
    ExprPtr val =
        rng->Chance(50)
            ? Mul(Col("l_extendedprice"), Col("l_discount"))
            : Sub(Col("l_extendedprice"), Col("l_discount"));
    outs.push_back({"val", std::move(val)});
    b.Project(std::move(outs), "diff/project");
    measure = "val";
  }

  auto current_names = [&b]() {
    std::vector<std::string> names;
    for (const auto& c : b.schema()) names.push_back(c.name);
    return names;
  };

  if (force_joins || rng->Chance(50)) {
    PlanBuilder orders =
        PlanBuilder::Scan(d.orders, {"o_orderkey", "o_totalprice"});
    if (!topn && rng->Chance(40)) {
      orders.Filter(Cmp(rng->Next(), Col("o_totalprice"),
                        Lit(SampleF64(d.orders, "o_totalprice", rng))));
    }
    HashJoinSpec spec;
    spec.build_key = "o_orderkey";
    spec.probe_key = "l_orderkey";
    const u64 kind = rng->Below(force_joins ? 1 : 4);
    if (kind == 0 || kind == 3) {
      spec.kind = kind == 0 ? HashJoinSpec::Kind::kInner
                            : HashJoinSpec::Kind::kLeftOuter;
      spec.build_outputs = {{"o_totalprice", "o_totalprice"}};
      spec.probe_outputs = current_names();
    } else {
      spec.kind = kind == 1 ? HashJoinSpec::Kind::kSemi
                            : HashJoinSpec::Kind::kAnti;
    }
    if (kind == 3 && rng->Chance(30)) {
      // A build side that keeps no rows: every probe row takes the
      // default row, typed from the declared build output types.
      orders.Filter(Lt(Col("o_totalprice"), Lit(-1e18)));
    }
    spec.use_bloom = rng->Chance(50) && kEnableBloom;
    b.HashJoin(std::move(orders), std::move(spec), "diff/orders");
  }

  if (force_joins || rng->Chance(40)) {
    PlanBuilder supp =
        PlanBuilder::Scan(d.supplier, {"s_suppkey", "s_acctbal"});
    if (!topn && rng->Chance(40)) {
      supp.Filter(Gt(Col("s_acctbal"),
                     Lit(SampleF64(d.supplier, "s_acctbal", rng))));
    }
    HashJoinSpec spec;
    spec.build_key = "s_suppkey";
    spec.probe_key = "l_suppkey";
    const u64 kind = rng->Below(force_joins ? 1 : 4);
    if (kind == 0 || kind == 3) {
      spec.kind = kind == 0 ? HashJoinSpec::Kind::kInner
                            : HashJoinSpec::Kind::kLeftOuter;
      spec.build_outputs = {{"s_acctbal", "s_acctbal"}};
      spec.probe_outputs = current_names();
    } else {
      spec.kind = kind == 1 ? HashJoinSpec::Kind::kSemi
                            : HashJoinSpec::Kind::kAnti;
    }
    if (kind == 3 && rng->Chance(30)) {
      // A build side that keeps no rows: every probe row takes the
      // default row, typed from the declared build output types.
      supp.Filter(Lt(Col("s_acctbal"), Lit(-1e18)));
    }
    spec.use_bloom = rng->Chance(50) && kEnableBloom;
    b.HashJoin(std::move(supp), std::move(spec), "diff/supplier");
  }

  bool grouped = false;
  bool distinct = false;
  if (!topn && rng->Chance(60)) {
    // One key, two, or none: (l_orderkey, l_suppkey) keeps lineitem's
    // order on the leading key, so the group table runs with several
    // groups per run; (l_suppkey, l_orderkey) leads with an unordered
    // key and falls back to hashing; no key is a global aggregate. One
    // draw either way, so later draws keep their place in the sequence.
    const HashAggOperator::GroupKey okey{"l_orderkey", 36};
    const HashAggOperator::GroupKey skey{"l_suppkey", 24};
    std::vector<HashAggOperator::GroupKey> keys;
    switch (rng->Below(5)) {
      case 0:
        keys = {okey};
        break;
      case 1:
        keys = {skey};
        break;
      case 2:
        keys = {okey, skey};
        break;
      case 3:
        keys = {skey, okey};
        break;
      default:
        break;
    }
    // Group outputs: the keys in key order, reversed, or only the last
    // one — each decoded from the packed key — plus, when a join brought
    // it in, the joined table's value of a key column, which depends on
    // the key alone and is captured from the group's first row.
    std::vector<std::string> outputs;
    for (const auto& k : keys) outputs.push_back(k.column);
    switch (rng->Below(3)) {
      case 0:
        break;
      case 1:
        std::reverse(outputs.begin(), outputs.end());
        break;
      default:
        if (outputs.size() > 1) outputs.erase(outputs.begin());
        break;
    }
    auto in_scope = [&b](const char* name) {
      for (const auto& c : b.schema()) {
        if (c.name == name) return true;
      }
      return false;
    };
    for (const auto& k : keys) {
      const char* dependent = k.column == "l_orderkey" ? "o_totalprice"
                                                       : "s_acctbal";
      if (in_scope(dependent) && rng->Chance(50)) {
        outputs.push_back(dependent);
      }
    }
    // A keyed GroupBy without aggregates is a DISTINCT.
    distinct = !keys.empty() && rng->Chance(20);
    std::vector<HashAggOperator::AggSpec> aggs;
    if (!distinct) {
      HashAggOperator::AggSpec sum;
      sum.fn = "sum";
      sum.arg = Col(measure);
      sum.out_name = "sum_v";
      aggs.push_back(std::move(sum));
      HashAggOperator::AggSpec cnt;
      cnt.fn = "count";
      cnt.out_name = "cnt";
      aggs.push_back(std::move(cnt));
      // Each of avg, min and max half the time, over the f64 measure or
      // the i64 l_suppkey: staged execution folds and emits them through
      // the same merge as sum and count.
      for (const std::string fn : {"avg", "min", "max"}) {
        if (!rng->Chance(50)) continue;
        const bool on_f64 = rng->Chance(50);
        HashAggOperator::AggSpec extra;
        extra.fn = fn;
        extra.arg = Col(on_f64 ? measure : "l_suppkey");
        extra.out_name = fn + (on_f64 ? "_f" : "_i");
        aggs.push_back(std::move(extra));
      }
    }
    b.GroupBy(keys, outputs, std::move(aggs), "diff/agg");
    grouped = !distinct;
    if (grouped && rng->Chance(30)) {
      b.Filter(Ge(Col("cnt"), Lit(static_cast<i64>(1 + rng->Below(3)))),
               "diff/having");
    }
    if (rng->Chance(30)) {
      // Same names, new values: the sort keys below stay valid.
      std::vector<ProjectOperator::Output> outs;
      for (const std::string& name : outputs) {
        outs.push_back({name, Col(name)});
      }
      if (grouped) {
        outs.push_back({"sum_v", Mul(Col("sum_v"), Lit(0.5))});
        outs.push_back(
            {"cnt", Add(Col("cnt"), Lit(static_cast<i64>(1)))});
      }
      b.Project(std::move(outs), "diff/agg_project");
    }
  }

  bool sorted = false;
  if (topn || rng->Chance(70)) {
    std::vector<SortKey> keys;
    if (grouped) {
      keys.push_back({rng->Chance(50) ? "sum_v" : "cnt", rng->Chance(50)});
      keys.push_back({b.schema().empty() ? "cnt" : b.schema()[0].name,
                      false});
    } else if (distinct) {
      keys.push_back({b.schema()[0].name, true});
      if (b.schema().size() > 1) {
        keys.push_back({b.schema()[1].name, rng->Chance(50)});
      }
    } else {
      keys.push_back({"l_orderkey", rng->Chance(30)});
      keys.push_back({"l_suppkey", false});
    }
    const size_t limit =
        topn || rng->Chance(50) ? 1 + rng->Below(100) : 0;
    b.Sort(std::move(keys), limit, "diff/sort");
    sorted = true;
  }
  if (!sorted && rng->Chance(30)) {
    b.Limit(1 + rng->Below(200), "diff/limit");
  }
  return b.Build();
}

/// A DAG-shaped plan: the same spine consumed twice. `explicit_shared`
/// binds it once with BindShared and fans out two SharedRefs; otherwise
/// the spine is built twice from a forked Rng (structurally identical
/// subtrees) and the compiler's automatic CSE must merge them.
plan::LogicalPlan GrowSharedPlan(const TpchData& d, Rng* rng,
                                 bool explicit_shared) {
  const Rng fork = *rng;  // both copies replay the same decisions
  rng->state ^= 0xabcdef12345678ull;

  SharedSubplan shared;
  if (explicit_shared) {
    shared = PlanBuilder::BindShared("diff_spine", LineitemSpine(d, fork));
  }
  PlanBuilder probe = explicit_shared
                          ? PlanBuilder::SharedRef(shared, "diff/ref_probe")
                          : LineitemSpine(d, fork);
  PlanBuilder build = explicit_shared
                          ? PlanBuilder::SharedRef(shared, "diff/ref_build")
                          : LineitemSpine(d, fork);

  // Reduce the build side to per-order counts, then semi- or anti-join
  // the other consumer against it: fan-out that feeds back into itself.
  std::vector<HashAggOperator::AggSpec> aggs;
  HashAggOperator::AggSpec cnt;
  cnt.fn = "count";
  cnt.out_name = "n";
  aggs.push_back(std::move(cnt));
  build.GroupBy({{"l_orderkey", 36}}, {"l_orderkey"}, std::move(aggs),
                "diff/shared_agg");
  if (rng->Chance(50)) {
    build.Filter(Ge(Col("n"), Lit(static_cast<i64>(2))));
  }

  HashJoinSpec spec;
  spec.build_key = "l_orderkey";
  spec.probe_key = "l_orderkey";
  spec.kind = rng->Chance(70) ? HashJoinSpec::Kind::kSemi
                              : HashJoinSpec::Kind::kAnti;
  spec.use_bloom = rng->Chance(50) && kEnableBloom;
  probe.HashJoin(std::move(build), std::move(spec), "diff/shared_join");

  return GrowRandomPlan(d, std::move(probe), rng, Shape::kAny);
}

/// GroupBy shapes a plan contains, counted so the test can show that
/// the generator really draws each one.
struct GroupByShapes {
  int distinct = 0;        // keys, no aggregates
  int keys_reordered = 0;  // key outputs not all keys in key order
  int captured = 0;        // an output that is not a key
};

void CountGroupBys(const plan::PlanNode& n, GroupByShapes* shapes) {
  if (n.kind == plan::NodeKind::kGroupBy && !n.group_keys.empty()) {
    shapes->distinct += n.aggs.empty();
    std::vector<std::string> key_outputs;
    bool captured = false;
    for (const std::string& out : n.group_outputs) {
      bool is_key = false;
      for (const auto& k : n.group_keys) is_key |= k.column == out;
      if (is_key) {
        key_outputs.push_back(out);
      } else {
        captured = true;
      }
    }
    std::vector<std::string> key_order;
    for (const auto& k : n.group_keys) key_order.push_back(k.column);
    shapes->keys_reordered += key_outputs != key_order;
    shapes->captured += captured;
  }
  for (const auto& c : n.children) CountGroupBys(*c, shapes);
}

TEST_F(PlanDifferentialTest, TwoHundredRandomPlansByteIdentical) {
  constexpr int kNumPlans = 200;
  Rng rng{0x5eed5eed5eed5eedull};

  ASSERT_GE(data_->lineitem->row_count(), kParallelTopNMinRows);
  plan::QuerySession serial_session{plan::SessionConfig{}};
  GroupByShapes shapes;
  for (int i = 0; i < kNumPlans; ++i) {
    // Every 4th plan is DAG-shaped; explicit BindShared and implicit
    // duplicate-subtree CSE alternate. Every 8th is a top-N sort over
    // the unfiltered lineitem table.
    plan::LogicalPlan plan;
    switch (i % 8) {
      case 3:
      case 7:
        plan = GrowSharedPlan(*data_, &rng, /*explicit_shared=*/i % 8 == 3);
        break;
      case 6:
        plan = GrowRandomPlan(
            *data_, PlanBuilder::Scan(data_->lineitem, {"l_orderkey",
                                                        "l_suppkey",
                                                        "l_extendedprice",
                                                        "l_discount"}),
            &rng, Shape::kTopN);
        break;
      case 2:
        plan = GrowRandomPlan(*data_, LineitemSpine(*data_, rng), &rng,
                              Shape::kJoins);
        rng.Next();
        break;
      default:
        plan = GrowRandomPlan(*data_, LineitemSpine(*data_, rng), &rng,
                              Shape::kAny);
        rng.Next();
        break;
    }
    ASSERT_TRUE(plan.ok())
        << "plan " << i << " failed to build: " << plan.status.message();
    CountGroupBys(*plan.root, &shapes);

    const RunResult ref = serial_session.Run(plan, plan::ExecMode::kSerial);
    ASSERT_TRUE(ref.status.ok())
        << "plan " << i << " serial: " << ref.status.message();
    ASSERT_NE(ref.table, nullptr) << "plan " << i;
    const u64 ref_fp = ExactFingerprint(*ref.table);

    for (const int threads : {1, 2, 4}) {
      plan::SessionConfig cfg;
      cfg.parallel.num_threads = threads;
      cfg.parallel.morsel_size = 1024;
      plan::QuerySession session{cfg};
      const RunResult got = session.Run(plan, plan::ExecMode::kParallel);
      ASSERT_TRUE(got.status.ok())
          << "plan " << i << " staged at " << threads << " threads: "
          << got.status.message();
      ASSERT_TRUE(session.last_run_parallel())
          << "plan " << i << " fell back to serial at " << threads
          << " threads";
      ASSERT_EQ(got.rows_emitted, ref.rows_emitted)
          << "plan " << i << " row count diverged at " << threads
          << " threads\n" << DumpPlan(plan);
      ASSERT_EQ(ExactFingerprint(*got.table), ref_fp)
          << "plan " << i << " diverged at " << threads << " threads\n"
          << DumpPlan(plan);
    }
  }
  EXPECT_GE(shapes.distinct, 5);
  EXPECT_GE(shapes.keys_reordered, 5);
  EXPECT_GE(shapes.captured, 5);
  std::printf("group-bys drawn: %d distinct, %d with reordered keys, "
              "%d with a captured output\n",
              shapes.distinct, shapes.keys_reordered, shapes.captured);
}

}  // namespace
}  // namespace ma::tpch
