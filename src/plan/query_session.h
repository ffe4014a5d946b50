// QuerySession: the one entry point for running LogicalPlans. A session
// owns a serial Engine and (lazily) a morsel-driven ParallelExecutor
// built from the same EngineConfig; Run() compiles the plan for the
// requested execution mode and returns the usual RunResult.
//
//   plan::QuerySession session;
//   RunResult r = session.Run(plan, plan::ExecMode::kAuto);
//
// Parallel runs execute the plan's StagePlan (plan/compiler.h) in one
// loop, stage by stage in dependency order: pipeline, join-build and
// aggregation stages fan out over the work-stealing morsel pool; a
// Sort+Limit over a large input runs as a parallel TopN; other sort
// and merge-join stages run serially on the session engine. Every
// stage's output table passes WithDeclaredSchema (plan/compiler.h);
// every stage but the last keeps it for later stages to scan like a
// base table, and the last stage's output is the result.
//
// Determinism contract: a plan produces byte-identical result tables
// under kSerial and kParallel at any thread count — streaming output
// merges in morsel order, aggregation group outputs emit in packed-key
// order with f64 sums accumulated order-independently (fixed point),
// TopN merges per-worker heaps under the serial sort's comparator, and
// sort/merge stages consume inputs that are already byte-identical.
#ifndef MA_PLAN_QUERY_SESSION_H_
#define MA_PLAN_QUERY_SESSION_H_

#include <memory>
#include <vector>

#include "adapt/profile_merge.h"
#include "adapt/strategy.h"
#include "exec/engine.h"
#include "exec/parallel/parallel_executor.h"
#include "plan/compiler.h"
#include "plan/logical_plan.h"

namespace ma::plan {

/// How Run() executes a plan. (Distinct from ma::ExecMode, which picks
/// the flavor-dispatch policy inside an engine.)
enum class ExecMode : u8 {
  kSerial,    // one operator tree, Engine::Run
  kParallel,  // staged execution over morsel-driven pipeline fragments;
              // falls back to serial when the plan cannot be staged
              // (check last_run_parallel())
  kAuto,      // staged when the largest base table driving any stage is
              // large enough to amortize the fan-out, serial otherwise
};

struct SessionConfig {
  EngineConfig engine;
  ParallelConfig parallel;
  /// kAuto uses the staged parallel path only when some stage scans a
  /// base table with at least this many rows; tiny inputs compile
  /// serially (the fan-out would cost more than it saves).
  u64 min_parallel_rows = 64 * 1024;
  /// When non-null, staged runs execute on this externally owned pool
  /// instead of a private one — the WorkloadServer hands every session
  /// the SAME pool so N concurrent queries share one set of workers
  /// (parallel.num_threads is then ignored; the pool's size rules).
  ThreadPool* shared_pool = nullptr;
  /// Macro-adaptivity (adapt/strategy.h): when enabled, per-stage
  /// thread count, bloom on/off and morsel size are bandit-selected per
  /// (stable plan fingerprint, stage) instead of statically configured,
  /// and the kAuto row-count gate yields to the learned thread-count
  /// arm. Strategies steer time, never bytes — results stay
  /// byte-identical to a static run.
  MacroAdaptConfig macro;
};

class QuerySession {
 public:
  explicit QuerySession(SessionConfig config = SessionConfig(),
                        PrimitiveDictionary* dict =
                            &PrimitiveDictionary::Global());

  /// Compiles and runs `plan` to a materialized result table. An
  /// invalid plan returns a kInvalidArgument RunResult (never aborts).
  /// `ctx` governs the run across every execution path — cancellation,
  /// deadline, memory budget, fault injection (exec/query_context.h);
  /// pass one context per run. Null runs ungoverned (a private fallback
  /// context, reset per run, keeps error state from leaking between
  /// queries). A failed run's RunResult carries the first error and its
  /// TerminationReason, its table is null, and the session is reusable
  /// for the next query as if freshly constructed.
  ///
  /// `staged` is an optional precompiled stage-DAG for `plan` (the plan
  /// cache hands in the StagePlan it compiled from its own clone of an
  /// equal plan — see knowledge/plan_cache.h). When non-null, non-serial
  /// runs skip Compiler::BuildStagePlan and execute `staged` directly;
  /// the kAuto small-input gate still applies, and kSerial ignores it.
  RunResult Run(const LogicalPlan& plan, ExecMode mode = ExecMode::kAuto,
                QueryContext* ctx = nullptr,
                const StagePlan* staged = nullptr);

  /// True when the previous Run() executed the staged plan — its
  /// pipeline/build/aggregate stages through per-worker compiled
  /// pipelines (kParallel/kAuto may fall back to serial).
  bool last_run_parallel() const { return last_run_parallel_; }

  /// The serial engine (also runs serial sort and merge stages); holds
  /// the primitive-instance profile of serial runs.
  Engine* engine() { return &engine_; }

  /// The parallel executor, or null before the first parallel run.
  ParallelExecutor* parallel_executor() { return parallel_.get(); }

  /// Labels this session's phases on a shared pool (error attribution
  /// across tenants); the serving layer sets the query label per run.
  void set_task_tag(std::string tag);

  /// Installs (or clears, with null) warm-start priors for subsequent
  /// runs on both execution paths — the serial engine and the parallel
  /// executor's per-worker engines. Priors are reward state only; they
  /// steer flavor choice, never results (see adapt/warm_start.h).
  void set_warm_start(std::shared_ptr<const WarmStartSnapshot> priors);

  /// Per-plan-site profile of the last run over every stage: the
  /// session engine (serial runs; staged sort and merge-join stages)
  /// and every worker engine (staged parallel stages), merged by label
  /// with per-thread winners preserved.
  std::vector<InstanceProfile> Profile() const;

 private:
  RunResult RunSerial(const LogicalPlan& plan, QueryContext* ctx);
  /// `site_prefix` is the plan's strategy-site prefix ("fp<hash>"),
  /// empty when macro-adaptivity is off.
  RunResult RunStaged(const StagePlan& sp, QueryContext* ctx,
                      const std::string& site_prefix);

  SessionConfig config_;
  PrimitiveDictionary* dict_;
  Engine engine_;
  std::unique_ptr<ParallelExecutor> parallel_;
  std::string task_tag_;  // applied to parallel_ (lazily) on creation
  bool last_run_parallel_ = false;
  /// Fallback context for Run(plan, mode, nullptr), reset per run. The
  /// staged path shares ONE context between the serial engine and the
  /// parallel executor, which is why the session owns it rather than
  /// leaning on their private fallbacks.
  QueryContext own_context_;
};

}  // namespace ma::plan

#endif  // MA_PLAN_QUERY_SESSION_H_
