#include "plan/query_session.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/cycleclock.h"
#include "exec/op_scan.h"
#include "exec/op_sort.h"
#include "plan/plan_fingerprint.h"

namespace ma::plan {
namespace {

/// Below this many input rows a sort+limit runs serially: the fan-out
/// cannot pay for itself.
constexpr u64 kParallelTopNMinRows = 4096;

/// Largest base table any stage scans — the row count that decides
/// whether the morsel fan-out can pay for itself under kAuto.
u64 DrivingRows(const StagePlan& sp) {
  u64 rows = 0;
  auto take = [&rows](const StageInput& in) {
    if (in.scan != nullptr && in.scan->table != nullptr) {
      rows = std::max<u64>(rows, in.scan->table->row_count());
    }
  };
  for (const Stage& s : sp.stages) {
    take(s.input);
    take(s.right);
  }
  return rows;
}

}  // namespace

QuerySession::QuerySession(SessionConfig config, PrimitiveDictionary* dict)
    : config_(std::move(config)),
      dict_(dict),
      engine_(config_.engine, dict) {
  // A session enabled without a shared book learns privately (a server
  // shares ONE book across its driver sessions instead).
  if (config_.macro.enabled && config_.macro.book == nullptr) {
    config_.macro.book = std::make_shared<StrategyBook>();
  }
}

namespace {

RunResult FailedResult(QueryContext* ctx) {
  RunResult r;
  r.status = ctx->status();
  if (r.status.ok()) r.status = Status::Internal("query failed");
  r.reason = ReasonFromStatus(r.status);
  return r;
}

}  // namespace

RunResult QuerySession::Run(const LogicalPlan& plan, ExecMode mode,
                            QueryContext* ctx, const StagePlan* staged) {
  if (ctx == nullptr) {
    own_context_.Reset();
    ctx = &own_context_;
  }
  last_run_parallel_ = false;
  if (!plan.ok()) {
    ctx->Fail(plan.status.ok() ? Status::InvalidArgument("empty plan")
                               : plan.status);
    return FailedResult(ctx);
  }
  if (mode != ExecMode::kSerial) {
    const int threads =
        config_.shared_pool != nullptr ? config_.shared_pool->size()
        : config_.parallel.num_threads > 0
            ? config_.parallel.num_threads
            : static_cast<int>(std::thread::hardware_concurrency());
    auto gate = [&](const StagePlan& sp) {
      if (mode != ExecMode::kAuto) return true;
      // Macro-adaptivity replaces the static row-count heuristic: the
      // per-stage thread-count bandit can LEARN that one worker is
      // best for a small stage, which is what the gate guessed at.
      if (config_.macro.enabled) return true;
      return threads > 1 && DrivingRows(sp) >= config_.min_parallel_rows;
    };
    // Strategy sites are keyed by the STABLE fingerprint (no table
    // pointers), so learned strategies survive process restarts.
    std::string site_prefix;
    if (config_.macro.enabled) {
      site_prefix = StrategySitePrefix(FingerprintPlan(plan).stable_hash);
    }
    // The root stage's declared schema is plan.root->schema, so a
    // staged result already passed WithDeclaredSchema.
    if (staged != nullptr) {
      // Precompiled (plan-cache hit): skip BuildStagePlan entirely.
      if (gate(*staged)) {
        last_run_parallel_ = true;
        return RunStaged(*staged, ctx, site_prefix);
      }
    } else {
      StagePlan sp;
      const Status s = Compiler::BuildStagePlan(plan, &sp);
      if (s.ok() && gate(sp)) {
        last_run_parallel_ = true;
        return RunStaged(sp, ctx, site_prefix);
      }
    }
  }
  return WithDeclaredSchema(plan.root->schema, RunSerial(plan, ctx));
}

RunResult QuerySession::RunSerial(const LogicalPlan& plan,
                                 QueryContext* ctx) {
  engine_.ResetProfile();
  engine_.set_context(ctx);
  RunResult r;
  OperatorPtr root = Compiler::CompileSerial(plan, &engine_);
  if (root != nullptr) {
    r = engine_.Run(*root);
  } else {
    r = FailedResult(ctx);  // compile recorded the error on ctx
  }
  engine_.set_context(nullptr);
  return r;
}

void QuerySession::set_task_tag(std::string tag) {
  task_tag_ = std::move(tag);
  if (parallel_ != nullptr) parallel_->set_task_tag(task_tag_);
}

void QuerySession::set_warm_start(
    std::shared_ptr<const WarmStartSnapshot> priors) {
  // config_.engine seeds the parallel executor if it is created later;
  // the live engines take the snapshot directly.
  config_.engine.warm_start = priors;
  engine_.set_warm_start(priors);
  if (parallel_ != nullptr) parallel_->set_warm_start(std::move(priors));
}

RunResult QuerySession::RunStaged(const StagePlan& sp, QueryContext* ctx,
                                  const std::string& site_prefix) {
  if (parallel_ == nullptr) {
    parallel_ = std::make_unique<ParallelExecutor>(
        config_.engine, config_.parallel, dict_, config_.shared_pool);
    parallel_->set_task_tag(task_tag_);
  }
  // Decides every stage's hints and, after a successful run, rewards
  // them; inert (default hints) when macro-adaptivity is off.
  StageStrategies strategies(
      config_.macro.enabled ? config_.macro.book.get() : nullptr,
      site_prefix, sp.stages.size(), parallel_->num_threads(),
      config_.parallel.morsel_size);
  engine_.ResetProfile();  // sort and merge stages run here
  engine_.set_context(ctx);
  parallel_->set_context(ctx);
  // Whatever way this run ends, the next query must find pristine
  // executors: drop the context bindings on every exit path.
  struct ContextGuard {
    Engine* engine;
    ParallelExecutor* parallel;
    ~ContextGuard() {
      engine->set_context(nullptr);
      parallel->set_context(nullptr);
    }
  } guard{&engine_, parallel_.get()};
  const u64 t0 = CycleClock::Now();

  // Stage outputs: shared join builds keyed by plan node, output tables
  // keyed by stage id (scanned with every column).
  Compiler::BuildMap builds;
  // Scalar values, filled as the producing stages complete (scalar
  // stages precede their consumers in topological order); captured by
  // reference in the fragment factories below.
  ScalarBindings bindings;
  std::vector<std::unique_ptr<SharedJoinBuild>> owned_builds;
  std::vector<std::unique_ptr<Table>> outs(sp.stages.size());
  auto resolve = [&](const StageInput& in)
      -> std::pair<const Table*, std::vector<std::string>> {
    if (in.from_stage()) {
      MA_CHECK(outs[in.stage] != nullptr);
      return {outs[in.stage].get(), {}};
    }
    return {in.scan->table, in.scan->columns};
  };
  // Per-worker operator trees for a pipeline, join-build or aggregate
  // stage: its fragment lowered with the worker's morsel scan as leaf.
  auto fragment = [&builds, &bindings](const Stage& stage) {
    return [&stage, &builds, &bindings](Engine* engine,
                                        OperatorPtr leaf) -> OperatorPtr {
      Compiler::LowerEnv env{.engine = engine,
                             .scalars = &bindings,
                             .stop = stage.stop,
                             .leaf = std::move(leaf),
                             .builds = &builds};
      return Compiler::Lower(stage.root, &env);
    };
  };

  StageProfile acc;
  auto fold = [&acc](const StageProfile& s) {
    acc.execute += s.execute;
    acc.primitives += s.primitives;
    acc.postprocess += s.postprocess;
  };
  RunResult result;
  // Shared epilogue of every table stage: fold its timings into the run
  // profile, type its output by the declared schema, then keep the
  // table for later stages or as the final result.
  auto finish = [&](const Stage& stage, RunResult r) {
    fold(r.stages);
    if (!r.status.ok()) return;  // the post-stage status check unwinds
    r = WithDeclaredSchema(stage.out_schema, std::move(r));
    if (stage.materialize) {
      outs[stage.id] = std::move(r.table);
    } else {
      result = std::move(r);
    }
  };
  // The stages vector is topologically ordered, so running front to
  // back satisfies every dependency edge. A failed/cancelled query
  // breaks out: downstream stages are skipped entirely (their inputs
  // may not exist), and the post-loop check reports the first error.
  for (const Stage& stage : sp.stages) {
    if (!ctx->Poll().ok() ||
        !ctx->MaybeInjectFault("stage/" + std::to_string(stage.id)).ok()) {
      break;
    }
    const auto [table, columns] = resolve(stage.input);
    u64 rows = table->row_count();
    const u64 s0 = CycleClock::Now();
    switch (stage.kind) {
      case Stage::Kind::kJoinBuild: {
        // Bloom is only a decision where the static path would bloom.
        const HashJoinSpec& spec = stage.join->hash_spec;
        StageProfile build_stages;
        owned_builds.push_back(parallel_->BuildJoin(
            table, columns, fragment(stage), spec,
            strategies.Decide(stage.id, spec.BloomApplies()),
            &build_stages));
        fold(build_stages);
        if (owned_builds.back() == nullptr) break;  // ctx holds the error
        builds[stage.join] = owned_builds.back().get();
        break;
      }
      case Stage::Kind::kPipeline:
        finish(stage, parallel_->RunPipeline(
                          table, columns, fragment(stage),
                          strategies.Decide(stage.id, false)));
        break;
      case Stage::Kind::kAggregate:
        finish(stage, parallel_->RunAgg(
                          table, columns, fragment(stage),
                          {stage.agg->group_keys, stage.agg->group_outputs,
                           CloneAggs(stage.agg->aggs, bindings)},
                          strategies.Decide(stage.id, false)));
        break;
      case Stage::Kind::kSort: {
        if (stage.limit > 0 && !stage.sort_keys.empty() &&
            rows >= kParallelTopNMinRows) {
          // Sort+Limit over a large input: parallel TopN (per-worker
          // bounded heaps + ordered merge) instead of a serial full
          // sort — same comparator, byte-identical output.
          finish(stage, parallel_->RunTopN(
                            table, columns, stage.sort_keys, stage.limit,
                            strategies.Decide(stage.id, false)));
          break;
        }
        auto op = std::make_unique<SortOperator>(
            &engine_,
            std::make_unique<ScanOperator>(&engine_, table, columns),
            stage.sort_keys, stage.limit);
        finish(stage, engine_.Run(*op));
        break;
      }
      case Stage::Kind::kMergeJoin: {
        // The operator checks both inputs' key order while it drains
        // them, exactly as on the serial path.
        const auto [right, right_cols] = resolve(stage.right);
        rows += right->row_count();
        MergeJoinOperator op(
            &engine_,
            std::make_unique<ScanOperator>(&engine_, table, columns),
            std::make_unique<ScanOperator>(&engine_, right, right_cols),
            stage.merge->merge_spec, stage.merge->label);
        finish(stage, engine_.Run(op));
        break;
      }
    }
    strategies.Measured(stage.id, rows, CycleClock::Now() - s0, stage.deps);
    if (ctx->ShouldStop()) break;
    // A scalar stage just completed: read its broadcast value out of
    // its single-row output for every later stage's compiled
    // expressions.
    for (const StagePlan::ScalarStage& sc : sp.scalars) {
      if (sc.stage == stage.id) {
        MA_CHECK(outs[stage.id] != nullptr);
        ScalarValue v;
        Status s = ReadScalarValue(*outs[stage.id], sc.column, sc.type, &v);
        if (!s.ok()) {
          ctx->Fail(std::move(s));
          break;
        }
        bindings[sc.name] = v;
      }
    }
    if (ctx->ShouldStop()) break;
  }

  if (!ctx->status().ok()) result = FailedResult(ctx);
  result.stages = acc;
  // Wall clock over every stage (join builds included).
  result.total_cycles = CycleClock::Now() - t0;
  result.seconds = static_cast<f64>(result.total_cycles) /
                   CycleClock::FrequencyHz();
  // Only a fully successful query teaches.
  if (result.status.ok()) strategies.Reward();
  return result;
}

std::vector<InstanceProfile> QuerySession::Profile() const {
  if (last_run_parallel_ && parallel_ != nullptr) {
    return parallel_->MergedProfile();
  }
  std::vector<const PrimitiveInstance*> instances;
  for (const auto& inst : engine_.instances()) {
    instances.push_back(inst.get());
  }
  return MergeInstanceProfiles(instances);
}

}  // namespace ma::plan
