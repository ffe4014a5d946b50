// ma_benchmark: the repository's regression benchmark. One process runs
// one workload for a fixed measuring time and prints a single JSON
// report line: the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run), each with its unit and sample count, plus how
// many query results were checked and how many were wrong.
//
//   ma_benchmark --workload power_serial --seed 19940401 --seconds 25
//   ma_benchmark --workload serve_mixed --seed 7 --seconds 25 --trace 1
//                --trace-out spans.json
//   ma_benchmark --selfcheck
//
// Workloads (why each exists is in perfbench/README.md):
//   power_serial  TPC-H SF 0.2, the 22 plans serially, micro-adaptive
//   serve_mixed   TPC-H SF 0.05 behind a WorkloadServer, Poisson load
//   adapt_drift   4M-row synthetic table whose selectivity drifts
//                 within every scan (the paper's Figure 2 shape)
//
// Every timed result is compared byte-for-byte (ExactFingerprint)
// against a serial DefaultConfig() oracle computed once during set-up;
// a wrong, failed or rejected result counts as failed and makes the
// process exit 1. Spans are recorded only by this file, around its own
// calls into the engine's layers. End-to-end timings are divided by the
// host slowdown that a reference kernel (harness.h, HostSpeed) measures
// between queries during the window.
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "harness.h"
#include "plan/compiler.h"
#include "plan/plan_builder.h"
#include "plan/query_session.h"
#include "serve/workload_server.h"
#include "storage/table_fingerprint.h"
#include "tests/tpch_golden_fingerprints.h"
#include "tpch/dbgen.h"
#include "tpch/plans.h"
#include "tpch/queries.h"
#include "tpch/workload.h"

namespace ma::perfbench {
namespace {

using plan::LogicalPlan;
using plan::QuerySession;
using plan::SessionConfig;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Unrecorded run time between the first set-up and the window: on
/// adapt_drift the first 1-5 s after set-up ran 20-30% slower than the
/// rest.
constexpr double kSettleSeconds = 2;
/// The most threads any workload keeps runnable.
constexpr int kThreadBudget = 4;

int Threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kThreadBudget);
}

double Ms(double seconds) { return seconds * 1e3; }

// --- Correctness -------------------------------------------------------------

/// Compares results against fingerprints registered during set-up. The
/// expectations are written before any measuring thread starts and only
/// read afterwards; the counters are atomic.
class Checker {
 public:
  void Expect(int kind, u64 fingerprint) { expected_[kind] = fingerprint; }

  /// Counts one attempted result. A failed run (rejected included), a
  /// missing table or a fingerprint mismatch counts as failed.
  void Check(int kind, const RunResult& r, const char* what) {
    const auto it = expected_.find(kind);
    const bool ok = r.ok() && r.table != nullptr && it != expected_.end() &&
                    ExactFingerprint(*r.table) == it->second;
    Record(ok, what, r.status.ok() ? "wrong result bytes" : r.status.message());
  }

  void Record(bool ok, const char* what, const std::string& why) {
    attempted_.fetch_add(1);
    if (ok) return;
    if (failed_.fetch_add(1) < 10) {
      std::fprintf(stderr, "ma_benchmark: %s failed: %s\n", what, why.c_str());
    }
  }

  u64 attempted() const { return attempted_.load(); }
  u64 failed() const { return failed_.load(); }

 private:
  std::map<int, u64> expected_;
  std::atomic<u64> attempted_{0};
  std::atomic<u64> failed_{0};
};

/// Runs the 22 TPC-H plans at SF 0.01 on the default dbgen seed, serial
/// and staged, and checks them against the committed golden
/// fingerprints, so the harness provably drives the plans the goldens
/// pin.
void SelfCheck(Checker* checker) {
  tpch::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  const auto data = tpch::Generate(cfg);
  SessionConfig sc;
  sc.engine = tpch::AdaptiveConfig();
  sc.parallel.num_threads = Threads();
  QuerySession session(sc);
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    const LogicalPlan plan = tpch::PlanForQuery(*data, q);
    for (const plan::ExecMode mode :
         {plan::ExecMode::kSerial, plan::ExecMode::kParallel}) {
      const RunResult r = session.Run(plan, mode);
      const bool ok = r.ok() && r.table != nullptr &&
                      ExactFingerprint(*r.table) == tpch::kGoldenFingerprints[q];
      checker->Record(ok, tpch::QueryName(q), "golden fingerprint mismatch");
    }
  }
}

// --- Measurement records -----------------------------------------------------

/// What one measuring window observed.
struct Window {
  bool want_throughput = true;
  HostSpeed* host = nullptr;                 // sampled between queries when set
  u64 queries = 0;                           // timed queries
  std::vector<std::vector<double>> kind_ms;  // their latencies, by query kind
  std::vector<double> pass_s;                // closed-loop pass times
  double throughput_qps = 0;
  u64 throughput_samples = 0;
  double wall_s = 0;
  double cpu_s = 0;
  // RunResult.stages summed over the window's runs.
  u64 runs = 0;
  u64 total_cycles = 0;
  u64 preprocess = 0;
  u64 execute = 0;
  u64 primitives = 0;
  u64 postprocess = 0;
  u64 rows_out = 0;
  // QuerySession::Profile() sums (serial runs of a traced window).
  u64 profiled_runs = 0;
  u64 instances = 0;
  u64 calls = 0;
  u64 tuples = 0;
  u64 prim_cycles = 0;
  u64 offwinner_calls = 0;

  explicit Window(size_t kinds) : kind_ms(kinds) {}

  void AddLatency(int kind, double seconds) {
    ++queries;
    kind_ms[static_cast<size_t>(kind)].push_back(Ms(seconds));
  }

  void AddRun(const RunResult& r) {
    ++runs;
    total_cycles += r.total_cycles;
    preprocess += r.stages.preprocess;
    execute += r.stages.execute;
    primitives += r.stages.primitives;
    postprocess += r.stages.postprocess;
    rows_out += r.rows_emitted;
  }

  void AddProfile(const std::vector<InstanceProfile>& profile) {
    ++profiled_runs;
    for (const InstanceProfile& p : profile) {
      instances += static_cast<u64>(p.instances);
      calls += p.calls;
      tuples += p.tuples;
      prim_cycles += p.cycles;
      const std::string& winner = p.MostUsedFlavor();
      for (const FlavorUsageProfile& f : p.flavors) {
        if (f.flavor != winner) offwinner_calls += f.calls;
      }
    }
  }

  std::vector<double> KindMedians() const {
    std::vector<double> out;
    for (const auto& v : kind_ms) out.push_back(Median(v));
    return out;
  }
};

double Share(u64 part, u64 whole) {
  return whole == 0 ? 0 : static_cast<double>(part) / static_cast<double>(whole);
}

// --- Workloads ---------------------------------------------------------------

class Workload {
 public:
  Workload(u64 seed, Tracer* tracer, Checker* checker,
           std::vector<std::string> kinds)
      : seed_(seed), tracer_(tracer), checker_(checker), kinds_(std::move(kinds)) {}
  virtual ~Workload() = default;

  /// Query kinds; latencies are also grouped by kind.
  const std::vector<std::string>& Kinds() const { return kinds_; }
  int NumKinds() const { return static_cast<int>(kinds_.size()); }
  /// (Re)generates the inputs from the seed. Returns the seconds the
  /// tpch data generator took (0 when the inputs are made here).
  virtual double Generate() = 0;
  /// Builds the measured executor (sessions, server) and runs it until
  /// caches and lazily created state are filled.
  virtual void WarmUp() = 0;
  virtual void Measure(double seconds, Window* w) = 0;
  /// Per-layer metrics only this workload can produce; `traced` is the
  /// window measured with tracing on.
  virtual void LayerMetrics(const Window& traced, MetricSet* m) = 0;

  /// Every distinct plan the workload runs, indexed by query kind.
  std::vector<LogicalPlan> AllPlans() const {
    std::vector<LogicalPlan> plans;
    for (int k = 0; k < NumKinds(); ++k) plans.push_back(MakePlan(k));
    return plans;
  }

  /// Registers each query kind's oracle fingerprint: its plan run
  /// serially under DefaultConfig().
  void BuildOracle() {
    SessionConfig sc;
    sc.engine = tpch::DefaultConfig();
    QuerySession oracle(sc);
    const std::vector<LogicalPlan> plans = AllPlans();
    for (size_t k = 0; k < plans.size(); ++k) {
      const RunResult r = oracle.Run(plans[k], plan::ExecMode::kSerial);
      MA_CHECK(r.ok() && r.table != nullptr);
      checker_->Expect(static_cast<int>(k), ExactFingerprint(*r.table));
    }
  }

 protected:
  /// The logical plan of query kind `kind` over the current inputs.
  virtual LogicalPlan MakePlan(int kind) const = 0;

  const u64 seed_;
  Tracer* const tracer_;
  Checker* const checker_;
  const std::vector<std::string> kinds_;
};

/// A single client running one query after another on one serial
/// QuerySession (the power and drift workloads). A pass runs a list of
/// query kinds; its time is the sum of their latencies.
class PassWorkload : public Workload {
 public:
  using Workload::Workload;

  void WarmUp() override {
    session_ = MakeSession(tpch::AdaptiveConfig(), false);
    RunPass(session_.get(), false, AllKinds(), nullptr, nullptr);
  }

  void Measure(double seconds, Window* w) override {
    const Clock::time_point start = Clock::now();
    const double cpu0 = CpuSeconds();
    while (SecondsBetween(start, Clock::now()) < seconds) {
      const std::vector<int> order = NextOrder();
      w->pass_s.push_back(RunPass(session_.get(), false, order, w, nullptr));
    }
    w->wall_s = SecondsBetween(start, Clock::now());
    w->cpu_s = CpuSeconds() - cpu0;
    w->throughput_qps = NumKinds() / Median(w->pass_s);
    w->throughput_samples = w->pass_s.size();
  }

  void LayerMetrics(const Window& traced, MetricSet* m) override {
    // Table 11's ratio: the same pass with every primitive on its
    // default flavor, over the adaptive pass.
    auto def = MakeSession(tpch::DefaultConfig(), false);
    RunPass(def.get(), false, AllKinds(), nullptr, nullptr);
    const double default_s = RunPass(def.get(), false, AllKinds(), nullptr, nullptr);
    m->Set("adapt.speedup_vs_default", default_s / Median(traced.pass_s), 1);
  }

 protected:
  /// Query kinds of the next measured pass.
  virtual std::vector<int> NextOrder() = 0;

  std::vector<int> AllKinds() const {
    std::vector<int> kinds(kinds_.size());
    std::iota(kinds.begin(), kinds.end(), 0);
    return kinds;
  }

  static std::unique_ptr<QuerySession> MakeSession(const EngineConfig& engine,
                                                   bool staged) {
    SessionConfig sc;
    sc.engine = engine;
    if (staged) sc.parallel.num_threads = Threads();
    return std::make_unique<QuerySession>(sc);
  }

  /// Runs `kinds` in order on `session` and returns the summed query
  /// latency. A query's latency covers building its logical plan,
  /// compiling the stage plan (staged mode, timed here rather than
  /// inside Run) and running it. `per_kind_s` receives each kind's
  /// latency.
  double RunPass(QuerySession* session, bool staged,
                 const std::vector<int>& kinds, Window* w,
                 std::vector<double>* per_kind_s) {
    double pass_s = 0;
    const bool traced = tracer_->enabled();
    for (const int k : kinds) {
      const u64 request = ++requests_;
      const Clock::time_point t0 = Clock::now();
      RunResult r;
      {
        ScopedSpan query(tracer_, "query", -1, request);
        LogicalPlan plan;
        {
          ScopedSpan s(tracer_, PlanSpanName(), query.id(), request);
          plan = MakePlan(k);
        }
        if (staged) {
          plan::StagePlan sp;
          Status built;
          {
            ScopedSpan s(tracer_, "plan.BuildStagePlan", query.id(), request);
            built = plan::Compiler::BuildStagePlan(plan, &sp);
          }
          ScopedSpan s(tracer_, "plan.QuerySession::Run", query.id(), request);
          if (built.ok()) {
            r = session->Run(plan, plan::ExecMode::kParallel, nullptr, &sp);
          } else {
            r.status = built;
          }
        } else {
          ScopedSpan s(tracer_, "plan.QuerySession::Run", query.id(), request);
          r = session->Run(plan, plan::ExecMode::kSerial);
        }
      }
      const double latency = SecondsBetween(t0, Clock::now());
      pass_s += latency;
      if (per_kind_s != nullptr) (*per_kind_s)[static_cast<size_t>(k)] = latency;
      checker_->Check(k, r, kinds_[static_cast<size_t>(k)].c_str());
      if (w == nullptr) continue;
      w->AddLatency(k, latency);
      w->AddRun(r);
      // After a staged run Profile() covers only the last parallel
      // stage, so primitive-instance sums come from serial runs only.
      if (traced && !staged) w->AddProfile(session->Profile());
      if (w->host != nullptr && w->host->Due()) w->host->Sample();
    }
    return pass_s;
  }

  virtual const char* PlanSpanName() const = 0;

  std::unique_ptr<QuerySession> session_;
  u64 requests_ = 0;
};

std::vector<std::string> TpchKinds() {
  std::vector<std::string> kinds;
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    char name[8];
    std::snprintf(name, sizeof(name), "Q%02d", q);
    kinds.push_back(name);
  }
  return kinds;
}

/// The TPC-H inputs of the power and serving workloads: dbgen data at
/// one scale factor, and query kind k is TPC-H query k + 1 over it.
class TpchInputs {
 public:
  explicit TpchInputs(double scale_factor) : scale_factor_(scale_factor) {}

  /// Regenerates the data from `seed`; returns dbgen's seconds.
  double Generate(u64 seed) {
    data_.reset();
    tpch::TpchConfig cfg;
    cfg.scale_factor = scale_factor_;
    cfg.seed = seed;
    const Clock::time_point t0 = Clock::now();
    data_ = tpch::Generate(cfg);
    return SecondsBetween(t0, Clock::now());
  }

  LogicalPlan Plan(int kind) const { return tpch::PlanForQuery(*data_, kind + 1); }

  /// query.Qxx_ms: each query's median latency in window `w`.
  static void QueryMetrics(const Window& w, MetricSet* m) {
    const std::vector<std::string> names = TpchKinds();
    const std::vector<double> medians = w.KindMedians();
    for (size_t q = 0; q < medians.size(); ++q) {
      m->Set("query." + names[q] + "_ms", medians[q], w.kind_ms[q].size());
    }
  }

 private:
  const double scale_factor_;
  std::unique_ptr<tpch::TpchData> data_;
};

/// TPC-H power run: the 22 plans in query order, one client.
class PowerWorkload : public PassWorkload {
 public:
  static constexpr double kScaleFactor = 0.2;
  /// Timed staged passes behind the parallel.* metrics.
  static constexpr int kStagedPasses = 3;

  PowerWorkload(u64 seed, Tracer* tracer, Checker* checker)
      : PassWorkload(seed, tracer, checker, TpchKinds()), tpch_(kScaleFactor) {}

  double Generate() override {
    session_.reset();
    return tpch_.Generate(seed_);
  }

  void LayerMetrics(const Window& traced, MetricSet* m) override {
    PassWorkload::LayerMetrics(traced, m);
    TpchInputs::QueryMetrics(traced, m);
    // Per query, the window's serial median over its median staged
    // latency on a Threads()-worker pool (after one warm staged pass).
    auto staged = MakeSession(tpch::AdaptiveConfig(), true);
    RunPass(staged.get(), true, AllKinds(), nullptr, nullptr);
    std::vector<std::vector<double>> staged_ms(kinds_.size());
    std::vector<double> pass_s(kinds_.size());
    for (int p = 0; p < kStagedPasses; ++p) {
      RunPass(staged.get(), true, AllKinds(), nullptr, &pass_s);
      for (size_t q = 0; q < pass_s.size(); ++q) staged_ms[q].push_back(Ms(pass_s[q]));
    }
    const std::vector<double> serial_ms = traced.KindMedians();
    std::vector<double> factors;
    u64 below = 0;
    for (size_t q = 0; q < serial_ms.size(); ++q) {
      factors.push_back(serial_ms[q] / Median(staged_ms[q]));
      if (factors.back() < 1) ++below;
    }
    m->Set("parallel.factor_geomean", Geomean(factors), factors.size());
    m->Set("parallel.queries_below_1x", static_cast<double>(below), factors.size());
  }

 protected:
  LogicalPlan MakePlan(int kind) const override { return tpch_.Plan(kind); }
  std::vector<int> NextOrder() override { return AllKinds(); }
  const char* PlanSpanName() const override { return "tpch.PlanForQuery"; }

 private:
  TpchInputs tpch_;
};

/// The paper's Figure 2 situation at table scale: selectivities that
/// change within every scan, so a primitive's best flavor changes
/// mid-query. Three query templates over four threshold levels.
class DriftWorkload : public PassWorkload {
 public:
  static constexpr size_t kRows = 4'000'000;
  /// Passing values of v and w lie in [0, kRange), failing ones in
  /// [kRange, 2 * kRange): a threshold of f * kRange passes fraction f
  /// of the rows that the full threshold passes.
  static constexpr i64 kRange = 1 << 20;
  static constexpr int kLevels = 4;

  DriftWorkload(u64 seed, Tracer* tracer, Checker* checker)
      : PassWorkload(seed, tracer, checker, DriftKinds()),
        order_rng_(seed ^ 0x0D41F7ull) {}

  /// The seed draws every value; the selectivity profile is fixed. A
  /// seed-drawn block length changed the cost of the w template by
  /// more than the host's run-to-run noise.
  double Generate() override {
    session_.reset();
    table_.reset();
    Rng rng(seed_ ^ 0xD21F7ull);
    // w cycles through 5/50/95% pass blocks of 64 vectors each.
    constexpr size_t kBlock = 64 * 1024;
    static constexpr double kBlockPass[3] = {0.05, 0.50, 0.95};
    auto table = std::make_unique<Table>("drift");
    Column* v = table->AddColumn("v", PhysicalType::kI32);
    Column* w = table->AddColumn("w", PhysicalType::kI32);
    Column* x = table->AddColumn("x", PhysicalType::kF64);
    for (Column* c : {v, w, x}) c->Reserve(kRows);
    auto value = [&rng](bool pass) {
      return static_cast<i32>((pass ? 0 : kRange) +
                              static_cast<i64>(rng.NextBounded(kRange)));
    };
    for (size_t i = 0; i < kRows; ++i) {
      // v: everything passes for 85% of the scan, then the pass rate
      // falls linearly to 0 over the last 15% (Figure 2).
      const double progress = static_cast<double>(i) / kRows;
      const double v_pass =
          progress < 0.85 ? 1.0 : std::max(0.0, (1.0 - progress) / 0.15);
      v->Append<i32>(value(rng.NextBool(v_pass)));
      w->Append<i32>(value(rng.NextBool(kBlockPass[(i / kBlock) % 3])));
      x->Append<f64>(rng.NextDouble() * 1000.0);
    }
    table->set_row_count(kRows);
    table_ = std::move(table);
    return 0;
  }

 protected:
  LogicalPlan MakePlan(int kind) const override {
    using Agg = HashAggOperator::AggSpec;
    auto agg = [](const char* fn, ExprPtr arg, const char* out) {
      Agg a;
      a.fn = fn;
      a.arg = std::move(arg);
      a.out_name = out;
      return a;
    };
    const i64 threshold = kRange * Percent(kind % kLevels) / 100;
    std::vector<Agg> aggs;
    switch (kind / kLevels) {
      case 0:
        aggs.push_back(agg("sum", Col("x"), "sum_x"));
        return plan::PlanBuilder::Scan(table_.get(), {"v", "x"}, "drift/scan")
            .Filter(Lt(Col("v"), Lit(threshold)), "drift/filter_v")
            .GroupBy({}, {}, std::move(aggs), "drift/sum")
            .Build();
      case 1:
        // A scalar aggregate, not a group-by: hash aggregation keeps
        // about 40% of its cycles outside primitives, which would hide
        // the primitives this workload exists to measure.
        aggs.push_back(agg("sum", Col("x"), "sum_x"));
        aggs.push_back(agg("count", nullptr, "n"));
        return plan::PlanBuilder::Scan(table_.get(), {"w", "x"}, "drift/scan")
            .Filter(Lt(Col("w"), Lit(threshold)), "drift/filter_w")
            .GroupBy({}, {}, std::move(aggs), "drift/sum_count")
            .Build();
      default: {
        std::vector<ExprPtr> preds;
        preds.push_back(Lt(Col("v"), Lit(threshold)));
        preds.push_back(Lt(Col("w"), Lit(threshold)));
        std::vector<ProjectOperator::Output> outs;
        outs.push_back({"p", Mul(Col("x"), Col("x"))});
        aggs.push_back(agg("sum", Col("p"), "sum_p"));
        return plan::PlanBuilder::Scan(table_.get(), {"v", "w", "x"}, "drift/scan")
            .Filter(AndAll(std::move(preds)), "drift/filter_vw")
            .Project(std::move(outs), "drift/product")
            .GroupBy({}, {}, std::move(aggs), "drift/sum_product")
            .Build();
      }
    }
  }

  /// Each pass is a fresh seeded permutation of all twelve kinds.
  std::vector<int> NextOrder() override {
    std::vector<int> order = AllKinds();
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng_.NextBounded(i)]);
    }
    return order;
  }

  const char* PlanSpanName() const override { return "plan.PlanBuilder"; }

 private:
  static int Percent(int level) { return 100 - 25 * level; }

  static std::vector<std::string> DriftKinds() {
    std::vector<std::string> kinds;
    for (const char* t : {"filter_v_sum", "filter_w_sum_count", "filter_vw_product"}) {
      for (int level = 0; level < kLevels; ++level) {
        kinds.push_back(std::string(t) + "@" + std::to_string(Percent(level)));
      }
    }
    return kinds;
  }

  std::unique_ptr<Table> table_;
  Rng order_rng_;
};

/// Open-loop serving: queries arrive as a Poisson process at a fixed
/// nominal rate into one WorkloadServer, latency measured from each
/// request's due time; then a closed-loop phase measures capacity.
class ServeWorkload : public Workload {
 public:
  static constexpr double kScaleFactor = 0.05;
  /// Nominal offered rate: about a quarter of the closed-loop capacity
  /// on a 4-core AVX-512 host. At 80/s (~45%) queueing amplified the
  /// host's run-to-run noise into a 30% spread of the median latency.
  static constexpr double kRateQps = 40;
  /// Share of the measuring time spent on the open-loop phase.
  static constexpr double kOpenShare = 0.7;
  /// Closed-loop clients: enough to keep both execution slots busy.
  static constexpr int kClients = 4;

  ServeWorkload(u64 seed, Tracer* tracer, Checker* checker)
      : Workload(seed, tracer, checker, TpchKinds()),
        tpch_(kScaleFactor),
        rng_(seed ^ 0x5E27Eull) {}

  double Generate() override {
    server_.reset();
    plans_.clear();
    const double gen_s = tpch_.Generate(seed_);
    plans_ = AllPlans();
    return gen_s;
  }

  void WarmUp() override {
    serve::ServerConfig cfg;
    cfg.pool_threads = 2;
    cfg.max_concurrent = 2;
    cfg.max_parallel_queries = 1;
    // Nothing is shed at the offered rates: the workload measures
    // latency, not admission.
    cfg.admission.max_queue_depth = 1 << 20;
    cfg.admission.queue_deadline = std::chrono::milliseconds(0);
    cfg.session.engine = tpch::AdaptiveConfig();
    server_ = std::make_unique<serve::WorkloadServer>(cfg);
    // Two passes fill the plan cache and the profile store.
    ClosedLoop(1e9, 2 * plans_.size(), nullptr);
  }

  void Measure(double seconds, Window* w) override {
    const double open_s = w->want_throughput ? seconds * kOpenShare : seconds;
    queue_wait_ms_.clear();
    exec_ms_.clear();
    gen_late_ms_.clear();
    inflight_max_ = 0;
    const serve::ServerStats before = server_->stats();
    const double cpu0 = CpuSeconds();
    const Clock::time_point start = Clock::now();
    OpenLoop(open_s, w);
    w->wall_s = SecondsBetween(start, Clock::now());
    w->cpu_s = CpuSeconds() - cpu0;
    window_stats_ = Delta(before, server_->stats());
    if (!w->want_throughput) return;
    const Clock::time_point t0 = Clock::now();
    const u64 done = ClosedLoop(seconds - open_s, ~0ull, nullptr);
    w->throughput_qps = static_cast<double>(done) / SecondsBetween(t0, Clock::now());
    w->throughput_samples = done;
  }

  void LayerMetrics(const Window& traced, MetricSet* m) override {
    TpchInputs::QueryMetrics(traced, m);
    const serve::ServerStats& s = window_stats_;
    const u64 lookups = s.plan_cache_hits + s.plan_cache_misses;
    m->Set("knowledge.plan_cache_hit_ratio", Share(s.plan_cache_hits, lookups), lookups);
    m->Set("knowledge.profiles_merged", static_cast<double>(s.profiles_merged), 1);
    m->Set("knowledge.store_profiles",
           static_cast<double>(server_->stats().store_profiles), 1);
    const u64 n = queue_wait_ms_.size();
    m->Set("serve.queue_wait_p50_ms", Quantile(queue_wait_ms_, 0.5), n);
    m->Set("serve.queue_wait_p99_ms", Quantile(queue_wait_ms_, 0.99), n);
    m->Set("serve.exec_p50_ms", Quantile(exec_ms_, 0.5), n);
    m->Set("serve.exec_p99_ms", Quantile(exec_ms_, 0.99), n);
    m->Set("serve.degraded_share", Share(s.degraded_to_serial, s.executed), s.executed);
    m->Set("serve.retries", static_cast<double>(s.retries), s.executed);
    m->Set("serve.gen_late_p99_ms", Quantile(gen_late_ms_, 0.99), gen_late_ms_.size());
    m->Set("serve.inflight_max", static_cast<double>(inflight_max_), n);
  }

 protected:
  LogicalPlan MakePlan(int kind) const override { return tpch_.Plan(kind); }

 private:
  struct Pending {
    serve::QueryHandle handle;
    int kind = 0;
    u64 request = 0;
    Clock::time_point due;
    Clock::time_point submitted;
  };

  /// The window's share of the counters LayerMetrics reads.
  static serve::ServerStats Delta(const serve::ServerStats& a,
                                  const serve::ServerStats& b) {
    serve::ServerStats d = b;
    d.executed -= a.executed;
    d.retries -= a.retries;
    d.degraded_to_serial -= a.degraded_to_serial;
    d.plan_cache_hits -= a.plan_cache_hits;
    d.plan_cache_misses -= a.plan_cache_misses;
    d.profiles_merged -= a.profiles_merged;
    return d;
  }

  /// Next query kind: the arrival mix is a sequence of seeded
  /// permutations of the 22 queries (uniform, and balanced per 22).
  int NextKind() {
    if (mix_.empty()) {
      for (int q = 0; q < tpch::kNumQueries; ++q) mix_.push_back(q);
      for (size_t i = mix_.size(); i > 1; --i) {
        std::swap(mix_[i - 1], mix_[rng_.NextBounded(i)]);
      }
    }
    const int kind = mix_.back();
    mix_.pop_back();
    return kind;
  }

  /// Waits for one query and records it; runs on waiter/client threads.
  void Complete(const Pending& p, Window* w) {
    const serve::QueryResult& res = p.handle.Wait();
    const Clock::time_point end = Clock::now();
    checker_->Check(p.kind, res.run, kinds_[static_cast<size_t>(p.kind)].c_str());
    const int span = tracer_->Add("serve.request", p.due, end, -1, p.request);
    if (span >= 0) {
      tracer_->Add("serve.submit", p.due, p.submitted, span, p.request);
      tracer_->Add("serve.queue_wait", p.submitted, p.submitted + res.queue_wait,
                   span, p.request);
    }
    inflight_.fetch_sub(1);
    if (w == nullptr) return;
    std::lock_guard<std::mutex> lock(record_mu_);
    w->AddLatency(p.kind, SecondsBetween(p.due, end));
    w->AddRun(res.run);
    queue_wait_ms_.push_back(static_cast<double>(res.queue_wait.count()) / 1e3);
    exec_ms_.push_back(Ms(res.run.seconds));
  }

  /// Submits one query. Called by one thread at a time (the open-loop
  /// generator, or a closed-loop client holding the issuing lock).
  Pending Submit(int kind, Clock::time_point due) {
    Pending p;
    p.kind = kind;
    p.request = ++requests_;
    p.due = due;
    const u64 now_inflight = inflight_.fetch_add(1) + 1;
    inflight_max_ = std::max(inflight_max_, now_inflight);
    p.handle = server_->Submit(&plans_[static_cast<size_t>(kind)],
                               kinds_[static_cast<size_t>(kind)]);
    p.submitted = Clock::now();
    return p;
  }

  /// Poisson arrivals at kRateQps for `seconds`; Threads() waiter
  /// threads block in Wait() so a slow query never delays observing a
  /// later one.
  void OpenLoop(double seconds, Window* w) {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool done = false;
    std::vector<std::thread> waiters;
    for (int i = 0; i < Threads(); ++i) {
      waiters.emplace_back([&] {
        for (;;) {
          Pending p;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return done || !pending.empty(); });
            if (pending.empty()) return;
            p = std::move(pending.front());
            pending.pop_front();
          }
          Complete(p, w);
        }
      });
    }
    const Clock::time_point start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    Clock::time_point due = start;
    while (due < end) {
      // The host-speed kernels run only while no query is in flight, so
      // the server's own load does not slow them, and only when the next
      // arrival is not due before they end.
      while (w->host != nullptr && w->host->Due() &&
             due - Clock::now() > std::chrono::milliseconds(2)) {
        if (inflight_.load() == 0) {
          w->host->Sample();
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      std::this_thread::sleep_until(due);
      gen_late_ms_.push_back(Ms(SecondsBetween(due, Clock::now())));
      Pending p = Submit(NextKind(), due);
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(p));
      }
      cv.notify_one();
      const double gap = -std::log(1.0 - rng_.NextDouble()) / kRateQps;
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_all();
    for (std::thread& t : waiters) t.join();
  }

  /// kClients clients, each submitting its next query when the previous
  /// one returns, until `seconds` pass or `max_queries` were issued.
  /// Returns the number of completed queries.
  u64 ClosedLoop(double seconds, u64 max_queries, Window* w) {
    std::mutex mu;  // serializes issuing: NextKind(), Submit(), `issued`
    u64 issued = 0;
    std::atomic<u64> completed{0};
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&] {
        for (;;) {
          Pending p;
          {
            std::lock_guard<std::mutex> lock(mu);
            if (issued >= max_queries || SecondsBetween(start, Clock::now()) >= seconds) {
              return;
            }
            ++issued;
            p = Submit(NextKind(), Clock::now());
          }
          Complete(p, w);
          completed.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    return completed.load();
  }

  TpchInputs tpch_;
  std::vector<LogicalPlan> plans_;  // Submit() takes them by address
  std::unique_ptr<serve::WorkloadServer> server_;
  Rng rng_;
  std::vector<int> mix_;
  u64 requests_ = 0;
  std::atomic<u64> inflight_{0};
  u64 inflight_max_ = 0;
  std::mutex record_mu_;
  std::vector<double> queue_wait_ms_;
  std::vector<double> exec_ms_;
  std::vector<double> gen_late_ms_;
  serve::ServerStats window_stats_;
};

// --- Metric catalogue --------------------------------------------------------

void DeclareEndToEnd(MetricSet* m) {
  m->Declare("setup_s", "s");
  m->Declare("throughput_qps", "1/s");
  m->Declare("query_p90_ms", "ms");
  m->Declare("query_geomean_ms", "ms");
  m->Declare("peak_rss_mb", "MB");
}

/// Every per-layer metric, named layer.metric after the src/ module it
/// observes. Workloads that do not exercise a layer report 0 for it.
void DeclarePerLayer(MetricSet* m) {
  m->Declare("tpch.gen_s", "s");
  m->Declare("plan.compile_us_p50", "us");
  m->Declare("plan.stages", "count");
  m->Declare("plan.unattributed_share", "ratio");
  m->Declare("exec.operator_share", "ratio");
  m->Declare("exec.rows_per_query", "count");
  m->Declare("prim.share", "ratio");
  m->Declare("prim.cycles_per_tuple", "cycles");
  m->Declare("prim.calls_per_query", "count");
  m->Declare("adapt.instances_per_query", "count");
  m->Declare("adapt.offwinner_call_share", "ratio");
  m->Declare("adapt.speedup_vs_default", "x");
  m->Declare("parallel.cpu_util", "ratio");
  m->Declare("parallel.factor_geomean", "x");
  m->Declare("parallel.queries_below_1x", "count");
  m->Declare("knowledge.plan_cache_hit_ratio", "ratio");
  m->Declare("knowledge.profiles_merged", "count");
  m->Declare("knowledge.store_profiles", "count");
  m->Declare("serve.queue_wait_p50_ms", "ms");
  m->Declare("serve.queue_wait_p99_ms", "ms");
  m->Declare("serve.exec_p50_ms", "ms");
  m->Declare("serve.exec_p99_ms", "ms");
  m->Declare("serve.degraded_share", "ratio");
  m->Declare("serve.retries", "count");
  m->Declare("serve.gen_late_p99_ms", "ms");
  m->Declare("serve.inflight_max", "count");
  for (const std::string& q : TpchKinds()) m->Declare("query." + q + "_ms", "ms");
  m->Declare("trace.overhead_pct", "%");
}

/// Layer metrics every workload derives the same way: stage-plan
/// compilation of its plans, RunResult.stages and profile sums of the
/// traced window, and CPU use.
void CommonLayerMetrics(Workload* wl, const Window& t, MetricSet* m) {
  std::vector<double> compile_us;
  u64 stages = 0;
  const std::vector<LogicalPlan> plans = wl->AllPlans();
  for (int rep = 0; rep < 5; ++rep) {
    for (const LogicalPlan& p : plans) {
      plan::StagePlan sp;
      const Clock::time_point t0 = Clock::now();
      const Status s = plan::Compiler::BuildStagePlan(p, &sp);
      compile_us.push_back(SecondsBetween(t0, Clock::now()) * 1e6);
      if (rep == 0 && s.ok()) stages += sp.stages.size();
    }
  }
  m->Set("plan.compile_us_p50", Median(compile_us), compile_us.size());
  m->Set("plan.stages", static_cast<double>(stages), plans.size());

  // A serial run's breakers drain their input inside Open(), so the
  // engine books their work as preprocess: operator time is everything
  // attributed to a stage minus the primitives. Staged runs sum worker
  // primitive cycles against wall cycles, so there the shares are per
  // wall cycle and the operator share bottoms out at 0.
  const u64 attributed = t.preprocess + t.execute + t.postprocess;
  m->Set("plan.unattributed_share",
         t.total_cycles == 0 ? 0 : 1.0 - Share(attributed, t.total_cycles), t.runs);
  m->Set("exec.operator_share",
         Share(attributed > t.primitives ? attributed - t.primitives : 0, t.total_cycles),
         t.runs);
  m->Set("exec.rows_per_query", Share(t.rows_out, t.runs), t.runs);
  m->Set("prim.share", Share(t.primitives, t.total_cycles), t.runs);

  const u64 pr = t.profiled_runs;
  m->Set("prim.cycles_per_tuple", Share(t.prim_cycles, t.tuples), pr);
  m->Set("prim.calls_per_query", Share(t.calls, pr), pr);
  m->Set("adapt.instances_per_query", Share(t.instances, pr), pr);
  m->Set("adapt.offwinner_call_share", Share(t.offwinner_calls, t.calls), pr);
  m->Set("parallel.cpu_util", t.cpu_s / (t.wall_s * Threads()), 1);
}

/// Seconds to open and close one span on an enabled tracer.
double SpanCostSeconds() {
  constexpr int kSpans = 20000;
  Tracer t(Clock::now());
  t.set_enabled(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan s(&t, "plan.QuerySession::Run", -1, static_cast<uint64_t>(i));
  }
  return SecondsBetween(t0, Clock::now()) / kSpans;
}

// --- Main --------------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 19940401;
  double seconds = 25;
  bool trace = false;
  std::string trace_out;
  bool selfcheck = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ma_benchmark: %s\n"
               "usage: ma_benchmark --workload "
               "power_serial|serve_mixed|adapt_drift\n"
               "                    [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n"
               "       ma_benchmark --selfcheck\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selfcheck") {
      o.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      if (*val == '\0' || *end != '\0') Usage("--seed needs a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        Usage("--seconds needs a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      o.trace = val[0] == '1';
    } else if (arg == "--trace-out") {
      o.trace_out = val;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!o.selfcheck && o.workload.empty()) Usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> MakeWorkload(const Options& o, Tracer* tracer,
                                       Checker* checker) {
  if (o.workload == "power_serial") {
    return std::make_unique<PowerWorkload>(o.seed, tracer, checker);
  }
  if (o.workload == "serve_mixed") {
    return std::make_unique<ServeWorkload>(o.seed, tracer, checker);
  }
  if (o.workload == "adapt_drift") {
    return std::make_unique<DriftWorkload>(o.seed, tracer, checker);
  }
  Usage(("unknown workload " + o.workload).c_str());
}

int Main(int argc, char** argv) {
  const Options o = Parse(argc, argv);
  Checker checker;
  SelfCheck(&checker);
  if (o.selfcheck) {
    std::printf("{\"selfcheck\": %s, \"attempted\": %llu, \"failed\": %llu}\n",
                checker.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    return checker.failed() == 0 ? 0 : 1;
  }

  Tracer tracer(Clock::now());
  tracer.set_enabled(o.trace);
  std::unique_ptr<Workload> wl = MakeWorkload(o, &tracer, &checker);

  // One set-up: generate the inputs, compute the oracle (first set-up
  // only; it is harness work and not counted), build the executor and
  // warm it up.
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  auto set_up = [&](bool oracle) {
    ScopedSpan setup(&tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(&tracer, "setup.generate", setup.id());
      gen_s.push_back(wl->Generate());
    }
    double oracle_s = 0;
    if (oracle) {
      ScopedSpan s(&tracer, "setup.oracle", setup.id());
      const Clock::time_point o0 = Clock::now();
      wl->BuildOracle();
      oracle_s = SecondsBetween(o0, Clock::now());
    }
    {
      ScopedSpan s(&tracer, "setup.warmup", setup.id());
      wl->WarmUp();
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()) - oracle_s);
  };

  // The window measures the first set-up, so it runs on a heap that no
  // earlier set-up fragmented and peak_rss_mb covers one set-up plus the
  // window. Repeating set-ups before the window made the peak differ by
  // up to 11% between runs of one seed. The workload first runs
  // unrecorded for kSettleSeconds.
  set_up(true);
  {
    Window settle(wl->Kinds().size());
    settle.want_throughput = false;
    wl->Measure(kSettleSeconds, &settle);
  }
  HostSpeed host;
  Window w(wl->Kinds().size());
  w.want_throughput = !o.trace;
  w.host = &host;
  const size_t spans_before = tracer.size();
  wl->Measure(o.seconds, &w);
  const size_t spans = tracer.size() - spans_before;
  tracer.set_enabled(false);
  // End-to-end timings are reported at the reference host's full speed:
  // divided by the window's host slowdown. Without that, the spread of
  // every timing metric over a set of 10 runs reached 15-37% on the
  // reference host in busy stretches.
  const double slowdown = host.Slowdown();

  MetricSet metrics;
  const char* section = o.trace ? "per_layer" : "end_to_end";
  if (!o.trace) {
    DeclareEndToEnd(&metrics);
    metrics.Set("throughput_qps", w.throughput_qps * slowdown, w.throughput_samples);
    // Every mix is balanced over the query kinds, and each kind's
    // latencies form one cluster, so the quantiles of all latencies fall
    // in the gaps between clusters: there the pooled median jumped by up
    // to 25% between runs. p90 is taken over the kinds' median latencies
    // instead. A median over the kinds would rest on the middle two
    // (TPC-H Q16 and Q7, and Q7 alone moved 25% between runs), so the
    // central latency is their geometric mean.
    const std::vector<double> kind_medians = w.KindMedians();
    metrics.Set("query_p90_ms", Quantile(kind_medians, 0.90) / slowdown, w.queries);
    metrics.Set("query_geomean_ms", Geomean(kind_medians) / slowdown, w.queries);
    metrics.Set("peak_rss_mb", PeakRssMb(), 1);
  } else {
    DeclarePerLayer(&metrics);
    CommonLayerMetrics(wl.get(), w, &metrics);
    wl->LayerMetrics(w, &metrics);
    // Run-to-run noise between a traced and an untraced run is far
    // larger than the recording cost, so the overhead is measured
    // directly: the window's spans times the cost of recording one.
    metrics.Set("trace.overhead_pct",
                100.0 * static_cast<double>(spans) * SpanCostSeconds() / w.wall_s,
                spans);
  }

  // The remaining set-ups only time set-up again; their median is
  // steadier than one set-up's time.
  for (int rep = 1; rep < kSetupReps; ++rep) set_up(false);
  std::fprintf(stderr, "ma_benchmark: %s set up in %.3f s (median of %d)\n",
               o.workload.c_str(), Median(setup_s), kSetupReps);
  if (o.trace) {
    metrics.Set("tpch.gen_s", Median(gen_s), gen_s.size());
  } else {
    metrics.Set("setup_s", Median(setup_s) / slowdown, setup_s.size());
  }

  const bool correct = checker.failed() == 0;
  std::printf("{\"workload\": %s, \"seed\": %llu, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, "
              "\"host_slowdown\": {\"value\": %s, \"samples\": %zu}, \"%s\": %s}\n",
              JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
              correct ? "true" : "false",
              static_cast<unsigned long long>(checker.attempted()),
              static_cast<unsigned long long>(checker.failed()),
              JsonNumber(slowdown).c_str(), host.samples(), section,
              metrics.ToJson().c_str());
  std::fflush(stdout);

  if (o.trace && !o.trace_out.empty()) {
    std::FILE* f = std::fopen(o.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "ma_benchmark: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"per_layer\": %s,\n\"trace\": %s}\n",
                 JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
                 metrics.ToJson().c_str(), tracer.ToJson().c_str());
    std::fclose(f);
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ma::perfbench

int main(int argc, char** argv) { return ma::perfbench::Main(argc, argv); }
