// ParallelExecutor: morsel-driven parallel query execution with
// thread-local Micro Adaptivity.
//
// The paper's profiling is thread-local by design (§3.2): a flavor's
// cost is measured with rdtsc on the core that ran it, so bandit state
// must never be shared between cores. This executor takes that
// seriously: every worker owns a full Engine — its own
// PrimitiveInstances, bandit policies, adaptive chunk state, APHs and
// scratch vectors — and builds its own operator-tree instance of the
// pipeline over a ScanOperator leaf that claims morsels. The only
// shared, mutable object during execution is the morsel queue (one
// mutex interaction per ~64 vectors); kernel dispatch stays free of
// atomics and locks.
// MergedProfile() merges the per-thread profiles into one report
// (adapt/profile_merge.h), preserving per-thread winners — under
// asymmetric load, threads legitimately converge to different flavors.
//
// Determinism: streaming pipelines (scan → select → project, and probe
// pipelines over a shared join build) write their output into
// per-morsel buffers that are concatenated in morsel-index order, so
// the merged result is byte-identical no matter how many threads ran or
// which worker stole which morsel. Join builds are concatenated in
// morsel order too, making build-side row ids deterministic.
// Aggregations pre-aggregate thread-locally; the workers' operators
// merge into one (HashAggOperator::Merge), which emits its groups in
// packed-key order through the same Next() as the serial path. Integer
// aggregates, and the exact fixed-point f64 sums and avgs that plan
// compilation sets, are bit-stable across thread counts. Only a
// hand-built rounded f64 sum depends on which rows each thread saw (FP
// addition is not associative): deterministic per run shape, not
// across thread counts.
#ifndef MA_EXEC_PARALLEL_PARALLEL_EXECUTOR_H_
#define MA_EXEC_PARALLEL_PARALLEL_EXECUTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapt/profile_merge.h"
#include "adapt/strategy.h"
#include "exec/engine.h"
#include "exec/op_hash_agg.h"
#include "exec/op_hash_join.h"
#include "exec/op_scan.h"
#include "exec/op_sort.h"
#include "exec/parallel/morsel.h"
#include "exec/parallel/thread_pool.h"

namespace ma {

struct ParallelConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Rows per morsel (64 vectors at the default vector size): large
  /// enough to amortize the queue mutex over many primitive calls,
  /// small enough to rebalance skewed pipelines by stealing.
  u64 morsel_size = kDefaultMorselRows;
  /// Disable to pin each worker to its contiguous partition — useful
  /// for experiments that need a known thread-to-data assignment (e.g.
  /// the per-thread bandit divergence test).
  bool work_stealing = true;
};

class ParallelExecutor {
 public:
  /// Builds, per worker, the pipeline on top of the morsel scan leaf.
  /// Called once per worker with that worker's engine; it must create a
  /// fresh operator/expression tree each time (trees hold per-thread
  /// state and must never be shared).
  using PipelineFactory =
      std::function<OperatorPtr(Engine*, OperatorPtr scan)>;

  /// Builds one engine per pool thread from `engine_config`, kept for
  /// every run. `dict` lets tests run against a private primitive
  /// dictionary. `shared_pool`, when non-null, is a ThreadPool owned by
  /// someone else (the WorkloadServer serving many concurrent queries on
  /// one pool); the executor then sizes itself to that pool and never
  /// destroys it. One executor still runs ONE query at a time — the pool
  /// is the multi-tenant piece, phases from concurrent executors
  /// interleave on it task by task.
  explicit ParallelExecutor(
      EngineConfig engine_config = EngineConfig(),
      ParallelConfig parallel_config = ParallelConfig(),
      PrimitiveDictionary* dict = &PrimitiveDictionary::Global(),
      ThreadPool* shared_pool = nullptr);
  ~ParallelExecutor();

  int num_threads() const { return pool_->size(); }

  /// Tags this executor's pool phases (error attribution on the shared
  /// pool); the serving layer sets the query label here per run.
  void set_task_tag(std::string tag) { task_tag_ = std::move(tag); }

  /// Runs a streaming pipeline (scan → select/project/probe...) over a
  /// morsel-partitioned scan of `table`. The merged result table
  /// concatenates per-morsel outputs in morsel order: byte-identical
  /// across thread counts. Its columns come from the emitted batches,
  /// so a pipeline that emits nothing yields a table with no columns;
  /// callers apply the declared schema.
  RunResult RunPipeline(const Table* table,
                        std::vector<std::string> scan_columns,
                        const PipelineFactory& factory,
                        const StageHints& hints = StageHints());

  /// Parallel hash-join build: drains per-worker build pipelines over a
  /// morsel scan of `build_table` into one SharedJoinBuild per morsel,
  /// appends them in morsel order (deterministic row ids) and finishes
  /// the result, with a bloom filter when `hints.bloom` — else
  /// `spec.use_bloom` — asks for one. Probe pipelines then mount it via
  /// HashJoinOperator's shared-build constructor. Returns null when the
  /// query context failed mid-build (cancellation, deadline, budget,
  /// worker error) or the build was rejected — the caller reads
  /// context()->status(). Each build row is charged to "alloc/build" at
  /// the serial operator's rate. When `stages` is non-null it receives
  /// the build's timings, as the other runners report theirs in
  /// RunResult::stages.
  std::unique_ptr<SharedJoinBuild> BuildJoin(
      const Table* build_table, std::vector<std::string> scan_columns,
      const PipelineFactory& factory, const HashJoinSpec& spec,
      const StageHints& hints = StageHints(),
      StageProfile* stages = nullptr);

  /// Thread-local pre-aggregation + merge. Each worker drains its own
  /// HashAggOperator over the factory pipeline; the operators of the
  /// workers that saw rows merge, in worker-id order, into the first of
  /// them, which emits the result with groups in packed-key order.
  /// `group_outputs` must be functionally dependent on the group keys
  /// (the usual dictionary-decode companions): each worker records its
  /// own first-seen value per group and a group takes the copy of the
  /// first worker holding it, which is only well-defined when all
  /// copies agree. A grouped aggregation over no rows yields a table
  /// with no columns; callers restore the declared schema.
  struct AggPlan {
    std::vector<HashAggOperator::GroupKey> group_keys;
    std::vector<std::string> group_outputs;
    std::vector<HashAggOperator::AggSpec> aggs;
    /// Instance label prefix: the plan's GroupBy label, one site each.
    std::string label = "parallel/agg";
  };
  RunResult RunAgg(const Table* table,
                   std::vector<std::string> scan_columns,
                   const PipelineFactory& factory, const AggPlan& plan,
                   const StageHints& hints = StageHints());

  /// Parallel TopN over a materialized table: each worker keeps a
  /// bounded heap of the best `limit` row ids it has seen (ordered by
  /// SortRowsLess — the exact comparator SortOperator uses), the heaps
  /// merge and fully sort at the end, and the winning rows are gathered
  /// into a fresh table by GatherRows — SortOperator's gather too.
  /// `columns` selects and orders the output
  /// columns (empty = all of `table`'s columns in table order). The
  /// heap comparison keys on row ids only through SortRowsLess's stable
  /// tiebreak, so the survivors — and therefore the output bytes — are
  /// identical to a serial sort+limit at any worker count or morsel
  /// size. Requires limit > 0 and non-empty keys.
  RunResult RunTopN(const Table* table,
                    const std::vector<std::string>& columns,
                    const std::vector<SortKey>& keys, size_t limit,
                    const StageHints& hints = StageHints());

  /// Per-worker engines (index = worker id) — each holds that thread's
  /// PrimitiveInstances and bandit state since the last ResetProfile().
  const std::vector<std::unique_ptr<Engine>>& engines() const {
    return engines_;
  }

  /// Engine::ResetProfile() on every worker engine.
  void ResetProfile() {
    for (const auto& eng : engines_) eng->ResetProfile();
  }

  /// The query context governing runs and worker engines — never null.
  /// Mirrors Engine::set_context: null restores the private fallback,
  /// which each run resets.
  QueryContext* context() const { return context_; }
  void set_context(QueryContext* ctx) {
    context_ = ctx != nullptr ? ctx : &own_context_;
    for (const auto& eng : engines_) eng->set_context(context_);
  }

  /// Engine::set_warm_start on every worker engine: the instances the
  /// next run creates are seeded, existing ones are unchanged.
  void set_warm_start(const std::shared_ptr<const WarmStartSnapshot>& ws) {
    for (const auto& eng : engines_) eng->set_warm_start(ws);
  }

  /// Profiles since the last ResetProfile(), merged across workers.
  std::vector<InstanceProfile> MergedProfile() const;

 private:
  /// Starts a run: resets the private fallback context, notes the
  /// primitive cycles of earlier runs, and returns the run's context.
  QueryContext* BeginRun(const char* fault_site);
  /// The epilogue of every run: status and reason from the context (a
  /// failed run drops its table), execute = [t0, t_exec), this run's
  /// primitive cycles, postprocess = [t_exec, now), and the wall total.
  void FinishRun(u64 t0, u64 t_exec, RunResult* result) const;
  /// The per-worker loop of every pipeline runner: splits `table` into
  /// morsels (their count goes to `split`); each hinted worker, until
  /// the query stops, builds `factory`'s pipeline over its morsel scan
  /// and hands `work(w, root, scan_leaf)` the unopened root.
  template <typename Split, typename Work>
  void RunWorkers(QueryContext* ctx, const Table* table,
                  const std::vector<std::string>& scan_columns,
                  const PipelineFactory& factory, const StageHints& hints,
                  Split split, Work work);
  /// The per-worker drain of RunPipeline and BuildJoin: each worker
  /// pulls its pipeline dry, charging every live batch to `site` when
  /// accounting (its bytes plus `row_bytes` per live row) and handing it
  /// to `fill(batch, slot)` with the slot of the morsel it came from.
  /// One worker processes each morsel, and reading the slots in index
  /// order makes the result independent of thread count and stealing.
  template <typename Slot, typename Fill>
  std::vector<Slot> DrainPerMorsel(
      QueryContext* ctx, const Table* table,
      const std::vector<std::string>& scan_columns,
      const PipelineFactory& factory, const StageHints& hints,
      const char* site, u64 row_bytes, Fill fill);
  /// Hints resolved against the pool and static config: the worker
  /// count actually running this stage and the morsel size to split by.
  int ResolveWorkers(const StageHints& hints) const;
  u64 ResolveMorselSize(const StageHints& hints) const;
  /// Sum of primitive cycles across all worker engines.
  u64 TotalPrimitiveCycles() const;

  ParallelConfig parallel_config_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null when pool is shared
  ThreadPool* pool_ = nullptr;
  std::string task_tag_;
  std::vector<std::unique_ptr<Engine>> engines_;
  u64 primitives_before_run_ = 0;  // set by BeginRun
  QueryContext own_context_;
  QueryContext* context_ = &own_context_;
};

}  // namespace ma

#endif  // MA_EXEC_PARALLEL_PARALLEL_EXECUTOR_H_
