// End-to-end TPC-H query tests: every query runs under every execution
// mode and produces identical results (Micro Adaptivity must not change
// semantics), per-query sanity checks against independently computed
// references on the generated data, and — for the queries expressed as
// logical plans — byte-identity between serial and staged parallel
// execution at 1/2/4 threads (the stage-DAG determinism contract).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "knowledge/plan_cache.h"
#include "knowledge/profile_store.h"
#include "plan/query_session.h"
#include "storage/table_fingerprint.h"
#include "tpch_golden_fingerprints.h"
#include "tpch/plans.h"
#include "tpch/queries.h"
#include "tpch/text_pool.h"
#include "tpch/workload.h"

namespace ma::tpch {
namespace {

/// Query `q` through a serial QuerySession with engine config `cfg`.
RunResult RunSerial(const TpchData& data, int q, const EngineConfig& cfg) {
  plan::SessionConfig sc;
  sc.engine = cfg;
  plan::QuerySession session{sc};
  return session.Run(PlanForQuery(data, q), plan::ExecMode::kSerial);
}

class QueriesTest : public ::testing::Test {
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

  static RunResult Run(int q, const EngineConfig& cfg) {
    return RunSerial(*data_, q, cfg);
  }

  static TpchData* data_;
};

TpchData* QueriesTest::data_ = nullptr;

// --- semantic spot checks ---

TEST_F(QueriesTest, Q1MatchesReference) {
  const RunResult r = Run(1, DefaultConfig());
  // Reference: group by (flag, status) over the date filter.
  const Table* l = data_->lineitem;
  const i64* ship = l->FindColumn("l_shipdate")->Data<i64>();
  const i64* qty = l->FindColumn("l_quantity")->Data<i64>();
  const StrRef* flag = l->FindColumn("l_returnflag")->Data<StrRef>();
  const StrRef* status = l->FindColumn("l_linestatus")->Data<StrRef>();
  const i64 cutoff = Date(1998, 12, 1) - 90;
  std::map<std::pair<std::string, std::string>, std::pair<i64, i64>> ref;
  for (size_t i = 0; i < l->row_count(); ++i) {
    if (ship[i] > cutoff) continue;
    auto& [sum, cnt] = ref[{std::string(flag[i].view()),
                            std::string(status[i].view())}];
    sum += qty[i];
    cnt += 1;
  }
  ASSERT_EQ(r.table->row_count(), ref.size());
  const Column* rf = r.table->FindColumn("l_returnflag");
  const Column* ls = r.table->FindColumn("l_linestatus");
  const Column* sq = r.table->FindColumn("sum_qty");
  const Column* co = r.table->FindColumn("count_order");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    const auto key = std::make_pair(std::string(rf->Data<StrRef>()[i].view()),
                                    std::string(ls->Data<StrRef>()[i].view()));
    ASSERT_TRUE(ref.count(key));
    EXPECT_EQ(sq->Data<i64>()[i], ref[key].first);
    EXPECT_EQ(co->Data<i64>()[i], ref[key].second);
  }
  // Sorted by flag, status.
  for (size_t i = 1; i < r.table->row_count(); ++i) {
    EXPECT_LE(rf->Data<StrRef>()[i - 1].view(),
              rf->Data<StrRef>()[i].view());
  }
}

TEST_F(QueriesTest, Q6MatchesReference) {
  const RunResult r = Run(6, DefaultConfig());
  const Table* l = data_->lineitem;
  const i64* ship = l->FindColumn("l_shipdate")->Data<i64>();
  const f64* disc = l->FindColumn("l_discount")->Data<f64>();
  const i64* qty = l->FindColumn("l_quantity")->Data<i64>();
  const f64* ep = l->FindColumn("l_extendedprice")->Data<f64>();
  f64 revenue = 0;
  for (size_t i = 0; i < l->row_count(); ++i) {
    if (ship[i] >= Date(1994, 1, 1) && ship[i] < Date(1995, 1, 1) &&
        disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24) {
      revenue += ep[i] * disc[i];
    }
  }
  ASSERT_EQ(r.table->row_count(), 1u);
  EXPECT_NEAR(r.table->FindColumn("revenue")->Data<f64>()[0], revenue,
              std::abs(revenue) * 1e-9);
}

TEST_F(QueriesTest, Q4CountsOrdersWithLateLines) {
  const RunResult r = Run(4, DefaultConfig());
  // 5 priorities at most; counts positive; total <= orders in range.
  ASSERT_LE(r.table->row_count(), 5u);
  ASSERT_GE(r.table->row_count(), 1u);
  const Column* cnt = r.table->FindColumn("order_count");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    EXPECT_GT(cnt->Data<i64>()[i], 0);
  }
}

TEST_F(QueriesTest, Q12MatchesReference) {
  const RunResult r = Run(12, DefaultConfig());
  // Reference: orders joined on key (always exists), count by shipmode.
  const Table* l = data_->lineitem;
  const Table* o = data_->orders;
  std::vector<i64> order_prio(o->row_count() + 1);
  const i64* ok = o->FindColumn("o_orderkey")->Data<i64>();
  const i64* opc = o->FindColumn("o_orderpriority_code")->Data<i64>();
  for (size_t i = 0; i < o->row_count(); ++i) order_prio[ok[i]] = opc[i];
  const i64* lok = l->FindColumn("l_orderkey")->Data<i64>();
  const i64* smc = l->FindColumn("l_shipmode_code")->Data<i64>();
  const i64* sd = l->FindColumn("l_shipdate")->Data<i64>();
  const i64* cd = l->FindColumn("l_commitdate")->Data<i64>();
  const i64* rd = l->FindColumn("l_receiptdate")->Data<i64>();
  const i64 mail = CodeOf(ShipModes(), "MAIL");
  const i64 shipm = CodeOf(ShipModes(), "SHIP");
  std::map<i64, std::pair<i64, i64>> ref;  // code -> (high, low)
  for (size_t i = 0; i < l->row_count(); ++i) {
    if ((smc[i] != mail && smc[i] != shipm) || cd[i] >= rd[i] ||
        sd[i] >= cd[i] || rd[i] < Date(1994, 1, 1) ||
        rd[i] >= Date(1995, 1, 1)) {
      continue;
    }
    auto& [high, low] = ref[smc[i]];
    (order_prio[lok[i]] <= 1 ? high : low) += 1;
  }
  ASSERT_EQ(r.table->row_count(), ref.size());
  const Column* sm = r.table->FindColumn("l_shipmode");
  const Column* high = r.table->FindColumn("high_line_count");
  const Column* low = r.table->FindColumn("low_line_count");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    const i64 code = CodeOf(ShipModes(),
                            std::string(sm->Data<StrRef>()[i].view()));
    ASSERT_TRUE(ref.count(code));
    EXPECT_EQ(high->Data<i64>()[i], ref[code].first);
    EXPECT_EQ(low->Data<i64>()[i], ref[code].second);
  }
}

TEST_F(QueriesTest, Q15TopSupplierIsArgmax) {
  const RunResult r = Run(15, DefaultConfig());
  ASSERT_GE(r.table->row_count(), 1u);
  // All rows share the same (maximal) revenue.
  const Column* rev = r.table->FindColumn("total_revenue");
  for (size_t i = 1; i < r.table->row_count(); ++i) {
    EXPECT_DOUBLE_EQ(rev->Data<f64>()[i], rev->Data<f64>()[0]);
  }
}

TEST_F(QueriesTest, Q18AllRowsExceedQuantityThreshold) {
  const RunResult r = Run(18, DefaultConfig());
  const Column* sq = r.table->FindColumn("sum_qty");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    EXPECT_GT(sq->Data<i64>()[i], 300);
  }
}

TEST_F(QueriesTest, Q22NoSelectedCustomerHasOrders) {
  const RunResult r = Run(22, DefaultConfig());
  // Counts are positive and country codes are from the filter list.
  const Column* cc = r.table->FindColumn("c_cntrycode");
  const Column* nc = r.table->FindColumn("numcust");
  for (size_t i = 0; i < r.table->row_count(); ++i) {
    EXPECT_GT(nc->Data<i64>()[i], 0);
    const std::string code(cc->Data<StrRef>()[i].view());
    EXPECT_TRUE(code == "13" || code == "31" || code == "23" ||
                code == "29" || code == "30" || code == "18" ||
                code == "17")
        << code;
  }
}

// --- plan-compiled queries: staged parallel == serial, byte for byte ---
// (ExactFingerprint comes from storage/table_fingerprint.h.)

class StagedQueriesTest : public QueriesTest {};

/// Runs `plan` serially and through the staged executor at 1/2/4
/// worker threads; every staged table must equal the serial one byte
/// for byte.
void ExpectStagedParity(const plan::LogicalPlan& plan, const char* what) {
  ASSERT_TRUE(plan.ok()) << what << ": " << plan.status.message();
  plan::QuerySession serial_session{plan::SessionConfig{}};
  const RunResult ref =
      serial_session.Run(plan, plan::ExecMode::kSerial);
  ASSERT_NE(ref.table, nullptr) << what;
  const u64 ref_fp = ExactFingerprint(*ref.table);

  for (const int threads : {1, 2, 4}) {
    plan::SessionConfig cfg;
    cfg.parallel.num_threads = threads;
    cfg.parallel.morsel_size = 4096;
    plan::QuerySession session{cfg};
    const RunResult got = session.Run(plan, plan::ExecMode::kParallel);
    ASSERT_TRUE(session.last_run_parallel())
        << what << " at " << threads << " threads";
    EXPECT_EQ(got.rows_emitted, ref.rows_emitted)
        << what << " at " << threads << " threads";
    EXPECT_EQ(ExactFingerprint(*got.table), ref_fp)
        << what << " diverged at " << threads << " threads";
  }
}

TEST_F(StagedQueriesTest, Q1ByteIdenticalStaged) {
  ExpectStagedParity(Q1Plan(*data_), "Q1");
}

TEST_F(StagedQueriesTest, Q2ByteIdenticalStaged) {
  ExpectStagedParity(Q2Plan(*data_), "Q2");
}

TEST_F(StagedQueriesTest, Q6ByteIdenticalStaged) {
  ExpectStagedParity(Q6Plan(*data_), "Q6");
}

TEST_F(StagedQueriesTest, Q8ByteIdenticalStaged) {
  ExpectStagedParity(Q8Plan(*data_), "Q8");
}

TEST_F(StagedQueriesTest, Q9ByteIdenticalStaged) {
  ExpectStagedParity(Q9Plan(*data_), "Q9");
}

TEST_F(StagedQueriesTest, Q16ByteIdenticalStaged) {
  ExpectStagedParity(Q16Plan(*data_), "Q16");
}

TEST_F(StagedQueriesTest, Q18ByteIdenticalStaged) {
  ExpectStagedParity(Q18Plan(*data_), "Q18");
}

TEST_F(StagedQueriesTest, Q19ByteIdenticalStaged) {
  ExpectStagedParity(Q19Plan(*data_), "Q19");
}

TEST_F(StagedQueriesTest, Q20ByteIdenticalStaged) {
  ExpectStagedParity(Q20Plan(*data_), "Q20");
}

TEST_F(StagedQueriesTest, Q21ByteIdenticalStaged) {
  ExpectStagedParity(Q21Plan(*data_), "Q21");
}

TEST_F(StagedQueriesTest, Q3ByteIdenticalStaged) {
  ExpectStagedParity(Q3Plan(*data_), "Q3");
}

TEST_F(StagedQueriesTest, Q4ByteIdenticalStaged) {
  ExpectStagedParity(Q4Plan(*data_), "Q4");
}

TEST_F(StagedQueriesTest, Q5ByteIdenticalStaged) {
  ExpectStagedParity(Q5Plan(*data_), "Q5");
}

TEST_F(StagedQueriesTest, Q7ByteIdenticalStaged) {
  ExpectStagedParity(Q7Plan(*data_), "Q7");
}

TEST_F(StagedQueriesTest, Q10ByteIdenticalStaged) {
  ExpectStagedParity(Q10Plan(*data_), "Q10");
}

TEST_F(StagedQueriesTest, Q11ByteIdenticalStaged) {
  ExpectStagedParity(Q11Plan(*data_), "Q11");
}

TEST_F(StagedQueriesTest, Q12ByteIdenticalStaged) {
  ExpectStagedParity(Q12Plan(*data_), "Q12");
}

TEST_F(StagedQueriesTest, Q13ByteIdenticalStaged) {
  ExpectStagedParity(Q13Plan(*data_), "Q13");
}

TEST_F(StagedQueriesTest, Q14ByteIdenticalStaged) {
  ExpectStagedParity(Q14Plan(*data_), "Q14");
}

/// Copies the lineitem columns Q14 reads, keeping the rows `keep`
/// accepts.
template <typename Keep>
std::unique_ptr<Table> FilteredLineitem(const Table& l, Keep keep) {
  auto t = std::make_unique<Table>("lineitem");
  size_t rows = 0;
  for (size_t i = 0; i < l.row_count(); ++i) rows += keep(i) ? 1 : 0;
  for (const char* name :
       {"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"}) {
    const Column* src = l.FindColumn(name);
    Column* dst = t->AddColumn(name, src->type());
    for (size_t i = 0; i < l.row_count(); ++i) {
      if (!keep(i)) continue;
      if (src->type() == PhysicalType::kF64) {
        dst->Append<f64>(src->Data<f64>()[i]);
      } else {
        dst->Append<i64>(src->Data<i64>()[i]);
      }
    }
  }
  t->set_row_count(rows);
  return t;
}

TEST_F(StagedQueriesTest, Q14DegenerateWindowsAgreeOnEveryPath) {
  TpchConfig cfg;
  cfg.scale_factor = 0.005;
  const std::unique_ptr<TpchData> full = Generate(cfg);
  const Table& l = *full->lineitem;
  const i64* ship = l.FindColumn("l_shipdate")->Data<i64>();
  const i64* partkey = l.FindColumn("l_partkey")->Data<i64>();
  const i64 lo = Date(1995, 9, 1);
  const i64 hi = Date(1995, 10, 1);
  const auto in_window = [&](size_t i) { return ship[i] >= lo && ship[i] < hi; };

  // Part key -> PROMO type (PROMO occupies type codes [promo_lo,
  // promo_lo + 25)).
  const Table& part = *full->part;
  const i64 promo_lo = CodeOf(TypeSyllable1(), "PROMO") * 25;
  std::map<i64, bool> promo;
  for (size_t i = 0; i < part.row_count(); ++i) {
    const i64 code = part.FindColumn("p_type_code")->Data<i64>()[i];
    promo[part.FindColumn("p_partkey")->Data<i64>()[i]] =
        code >= promo_lo && code < promo_lo + 25;
  }

  struct Case {
    const char* name;
    std::unique_ptr<Table> lineitem;
    size_t rows;
  };
  Case cases[] = {
      {"no PROMO rows in the window",
       FilteredLineitem(l, [&](size_t i) {
         return !(in_window(i) && promo[partkey[i]]);
       }),
       1},
      {"empty window",
       FilteredLineitem(l, [&](size_t i) { return !in_window(i); }), 0},
  };
  for (Case& c : cases) {
    TpchData d;
    d.part = full->part;
    d.lineitem = c.lineitem.get();
    const plan::LogicalPlan plan = Q14Plan(d);
    ASSERT_TRUE(plan.ok()) << c.name << ": " << plan.status.message();

    plan::QuerySession serial_session{plan::SessionConfig{}};
    const RunResult ref = serial_session.Run(plan, plan::ExecMode::kSerial);
    ASSERT_TRUE(ref.ok()) << c.name << ": " << ref.status.ToString();
    ASSERT_EQ(ref.table->row_count(), c.rows) << c.name;
    if (c.rows == 1) {
      EXPECT_EQ(ref.table->FindColumn("promo_revenue")->Data<f64>()[0], 0.0)
          << c.name;
    }
    const u64 ref_fp = ExactFingerprint(*ref.table);

    for (const int threads : {1, 2, 4}) {
      plan::SessionConfig sc;
      sc.parallel.num_threads = threads;
      sc.parallel.morsel_size = 1024;
      plan::QuerySession session{sc};
      const RunResult got = session.Run(plan, plan::ExecMode::kParallel);
      ASSERT_TRUE(got.ok()) << c.name << ": " << got.status.ToString();
      ASSERT_TRUE(session.last_run_parallel()) << c.name;
      EXPECT_EQ(ExactFingerprint(*got.table), ref_fp)
          << c.name << " diverged at " << threads << " threads";
    }
  }
}

TEST_F(StagedQueriesTest, Q15ByteIdenticalStaged) {
  ExpectStagedParity(Q15Plan(*data_), "Q15");
}

TEST_F(StagedQueriesTest, Q17ByteIdenticalStaged) {
  ExpectStagedParity(Q17Plan(*data_), "Q17");
}

TEST_F(StagedQueriesTest, Q22ByteIdenticalStaged) {
  ExpectStagedParity(Q22Plan(*data_), "Q22");
}

// --- staged profile coverage: every stage of the query, every engine ---

/// The plan nodes lowered into `stage`'s per-worker fragment: the chain
/// from its root down to its leaf, following the probe side of hash
/// joins (build sides are stages of their own), plus its GroupBy.
/// Subtrees that CSE folded into another stage's output appear in no
/// fragment.
std::vector<const plan::PlanNode*> FragmentNodes(const plan::Stage& stage) {
  std::vector<const plan::PlanNode*> nodes;
  if (stage.agg != nullptr) nodes.push_back(stage.agg);
  for (const plan::PlanNode* n = stage.root; n != nullptr && n != stage.stop;
       n = n->kind == plan::NodeKind::kHashJoin ? n->children[1].get()
           : n->children.empty()                ? nullptr
                                                : n->children[0].get()) {
    nodes.push_back(n);
  }
  return nodes;
}

/// The plan sites a staged run must profile: the insert-check of every
/// keyed GroupBy and the probe, semi or anti primitive of every hash
/// join that some stage runs.
std::set<std::string> RequiredSites(const plan::StagePlan& sp) {
  std::set<std::string> sites;
  for (const plan::Stage& stage : sp.stages) {
    for (const plan::PlanNode* n : FragmentNodes(stage)) {
      if (n->kind == plan::NodeKind::kGroupBy && !n->group_keys.empty()) {
        sites.insert(n->label + "/insertcheck");
      } else if (n->kind == plan::NodeKind::kHashJoin) {
        switch (n->hash_spec.kind) {
          case HashJoinSpec::Kind::kSemi:
            sites.insert(n->label + "/semi");
            break;
          case HashJoinSpec::Kind::kAnti:
            sites.insert(n->label + "/anti");
            break;
          default:
            sites.insert(n->label + "/probe");
        }
      }
    }
  }
  return sites;
}

std::set<std::string> ProfileLabels(const plan::QuerySession& session) {
  std::set<std::string> labels;
  for (const ma::InstanceProfile& p : session.Profile()) labels.insert(p.label);
  return labels;
}

plan::SessionConfig StagedConfig(int threads) {
  plan::SessionConfig cfg;
  cfg.parallel.num_threads = threads;
  cfg.parallel.morsel_size = 4096;
  return cfg;
}

TEST_F(StagedQueriesTest, StagedProfileCoversEveryStage) {
  size_t required_sites = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    const plan::LogicalPlan plan = PlanForQuery(*data_, q);
    plan::QuerySession serial;
    ASSERT_TRUE(serial.Run(plan, plan::ExecMode::kSerial).ok());
    const std::set<std::string> serial_labels = ProfileLabels(serial);
    plan::StagePlan sp;
    ASSERT_TRUE(plan::Compiler::BuildStagePlan(plan, &sp).ok());
    const std::set<std::string> required = RequiredSites(sp);
    required_sites += required.size();
    for (const int threads : {1, 2, 4}) {
      plan::QuerySession session{StagedConfig(threads)};
      const RunResult r = session.Run(plan, plan::ExecMode::kParallel);
      ASSERT_TRUE(r.ok()) << "Q" << q << ": " << r.status.ToString();
      ASSERT_TRUE(session.last_run_parallel());
      // Staged sites are the serial plan's sites: the same labels,
      // merged across workers.
      const std::set<std::string> labels = ProfileLabels(session);
      for (const std::string& label : labels) {
        EXPECT_TRUE(serial_labels.count(label))
            << "Q" << q << " at " << threads << " threads: staged-only site "
            << label;
      }
      for (const std::string& site : required) {
        EXPECT_TRUE(labels.count(site))
            << "Q" << q << " at " << threads << " threads: no profile for "
            << site;
      }
      // The profile holds exactly the primitive cycles the stages
      // report, so no stage's instances are missing from it.
      u64 profiled = 0;
      for (const ma::InstanceProfile& p : session.Profile()) {
        profiled += p.cycles;
      }
      EXPECT_EQ(profiled, r.stages.primitives)
          << "Q" << q << " at " << threads << " threads";
    }
  }
  EXPECT_GT(required_sites, 50u);
}

/// True when `label` is a primitive site of a node in `stage`'s fragment.
bool InStageFragment(const plan::Stage& stage, const std::string& label) {
  for (const plan::PlanNode* n : FragmentNodes(stage)) {
    if (label.starts_with(n->label + "/")) return true;
  }
  return false;
}

TEST_F(StagedQueriesTest, StagedProfileWarmStartsTheFirstStage) {
  // A staged run's profile, merged into a store, seeds the instances of
  // the plan's first stage in a fresh warm-started session — the stage
  // a profile of only the last parallel stage would leave cold.
  int queries_with_first_stage_sites = 0;
  for (int q = 1; q <= kNumQueries; ++q) {
    const plan::LogicalPlan plan = PlanForQuery(*data_, q);
    plan::StagePlan sp;
    ASSERT_TRUE(plan::Compiler::BuildStagePlan(plan, &sp).ok());
    const plan::Stage& first = sp.stages.front();

    knowledge::ProfileStore store;
    plan::QuerySession cold{StagedConfig(2)};
    ASSERT_TRUE(cold.Run(plan, plan::ExecMode::kParallel).ok());
    store.Merge(cold.Profile());
    const std::shared_ptr<const WarmStartSnapshot> snap = store.Snapshot();

    plan::QuerySession warm{StagedConfig(2)};
    warm.set_warm_start(snap);
    ASSERT_TRUE(warm.Run(plan, plan::ExecMode::kParallel).ok());
    ASSERT_TRUE(warm.last_run_parallel());
    bool has_sites = false;
    bool seeded = false;
    for (const auto& engine : warm.parallel_executor()->engines()) {
      for (const auto& inst : engine->instances()) {
        if (!InStageFragment(first, inst->label())) continue;
        has_sites = true;
        seeded |= snap->Find(inst->label(), inst->entry()->signature) !=
                  nullptr;
      }
    }
    if (!has_sites) continue;
    ++queries_with_first_stage_sites;
    EXPECT_TRUE(seeded) << "Q" << q << ": no first-stage instance ("
                        << first.label << ") was warm-started";
  }
  EXPECT_GT(queries_with_first_stage_sites, 10);
}

// --- golden fingerprints: results pinned against a checked-in table ---
//
// StagedQueriesTest proves serial and staged agree with *each other*;
// these tests pin both against kGoldenFingerprints
// (tpch_golden_fingerprints.h), so a change that breaks serial and
// staged identically — an expression rewrite, a dbgen tweak, a plan
// reshape — still fails until the goldens are regenerated on purpose.

class GoldenFingerprints : public QueriesTest {};

/// Fingerprint of query `q` under one execution leg. threads == 0 means
/// serial; otherwise staged-parallel, optionally with a precompiled
/// StagePlan (the plan-cache-warm leg).
u64 GoldenFingerprint(const TpchData& d, int q, int threads,
                      const plan::StagePlan* staged = nullptr) {
  const plan::LogicalPlan plan = PlanForQuery(d, q);
  EXPECT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status.message();
  plan::SessionConfig cfg;
  if (threads > 0) {
    cfg.parallel.num_threads = threads;
    cfg.parallel.morsel_size = 4096;
  }
  plan::QuerySession session{cfg};
  const RunResult r = session.Run(
      plan, threads > 0 ? plan::ExecMode::kParallel : plan::ExecMode::kSerial,
      nullptr, staged);
  EXPECT_TRUE(r.status.ok()) << "Q" << q << ": " << r.status.message();
  if (r.table == nullptr) return 0;
  return ExactFingerprint(*r.table);
}

TEST_F(GoldenFingerprints, SerialMatchesGolden) {
  if (std::getenv("MA_REGEN_GOLDEN") != nullptr) {
    // Regeneration mode: print the table to paste into
    // tpch_golden_fingerprints.h instead of asserting.
    for (int q = 1; q <= kNumQueries; ++q) {
      std::printf(
          "    0x%016llxull,  // Q%d\n",
          static_cast<unsigned long long>(GoldenFingerprint(*data_, q, 0)),
          q);
    }
    return;
  }
  for (int q = 1; q <= kNumQueries; ++q) {
    EXPECT_EQ(GoldenFingerprint(*data_, q, 0), kGoldenFingerprints[q])
        << "Q" << q << " serial result drifted from golden";
  }
}

TEST_F(GoldenFingerprints, StagedMatchesGolden) {
  for (const int threads : {1, 2, 4}) {
    for (int q = 1; q <= kNumQueries; ++q) {
      EXPECT_EQ(GoldenFingerprint(*data_, q, threads), kGoldenFingerprints[q])
          << "Q" << q << " staged result drifted from golden at "
          << threads << " threads";
    }
  }
}

TEST_F(GoldenFingerprints, PlanCacheWarmMatchesGolden) {
  // A warm plan-cache hit hands the session a StagePlan compiled from
  // the *cached* plan clone; executing it must still reproduce the
  // goldens bit for bit.
  knowledge::PlanCache cache;
  for (int q = 1; q <= kNumQueries; ++q) {
    auto cold = cache.GetOrCompile(PlanForQuery(*data_, q));
    ASSERT_NE(cold, nullptr) << "Q" << q << " did not cache";
    auto warm = cache.GetOrCompile(PlanForQuery(*data_, q));
    ASSERT_EQ(warm.get(), cold.get()) << "Q" << q << " missed on rerun";
    EXPECT_EQ(GoldenFingerprint(*data_, q, 2, &warm->stages),
              kGoldenFingerprints[q])
        << "Q" << q << " plan-cache-warm result drifted from golden";
  }
  EXPECT_EQ(cache.hits(), static_cast<u64>(kNumQueries));
  EXPECT_EQ(cache.misses(), static_cast<u64>(kNumQueries));
}

// --- every query, every mode, identical results ---

class AllQueriesAllModesTest
    : public ::testing::TestWithParam<int> {};

TEST_P(AllQueriesAllModesTest, ResultsIdenticalAcrossModes) {
  TpchConfig cfg;
  cfg.scale_factor = 0.005;
  static const TpchData* data = Generate(cfg).release();
  const int q = GetParam();

  // Every flavor is a faithful implementation of its primitive, so the
  // mode changes speed and never a byte (ExactFingerprint: order, names,
  // types and f64 bit patterns all count).
  u64 reference = 0;
  for (const auto& [name, ecfg] :
       std::vector<std::pair<std::string, EngineConfig>>{
           {"default", DefaultConfig()},
           {"nobranching", ForcedConfig("nobranching")},
           {"fission", ForcedConfig("fission")},
           {"avx2", ForcedConfig("avx2")},
           {"icc", ForcedConfig("icc")},
           {"full", ForcedConfig("full")},
           {"nounroll", ForcedConfig("nounroll")},
           {"heuristic", HeuristicConfig()},
           {"adaptive", AdaptiveConfig()}}) {
    const RunResult r = RunSerial(*data, q, ecfg);
    ASSERT_NE(r.table, nullptr) << name;
    const u64 fp = ExactFingerprint(*r.table);
    if (name == "default") {
      reference = fp;
    } else {
      EXPECT_EQ(fp, reference) << "mode " << name << " diverged on Q" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, AllQueriesAllModesTest,
                         ::testing::Range(1, kNumQueries + 1),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

// --- workload driver ---

TEST_F(QueriesTest, WorkloadRunProducesProfiles) {
  EngineConfig cfg = AdaptiveConfig();
  TpchConfig small;
  small.scale_factor = 0.002;
  auto data = Generate(small);
  const ModeRun run = RunAllQueries(cfg, *data, "adaptive");
  ASSERT_EQ(run.query_seconds.size(), 22u);
  ASSERT_EQ(run.instances.size(), 22u);
  EXPECT_GT(run.TotalPrimitiveCycles(), 0u);
  // Branch-affected primitives exist (selections are everywhere).
  EXPECT_GT(run.AffectedCycles(FlavorSetId::kBranch), 0u);
  EXPECT_GT(run.GeoMeanSeconds(), 0.0);
  // The workload contains a healthy number of primitive instances.
  size_t total_instances = 0;
  for (const auto& q : run.instances) total_instances += q.size();
  EXPECT_GT(total_instances, 200u);
}

}  // namespace
}  // namespace ma::tpch
