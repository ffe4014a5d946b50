#include "plan/query_session.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/cycleclock.h"
#include "exec/op_scan.h"
#include "exec/op_sort.h"
#include "plan/plan_fingerprint.h"
#include "storage/intermediate.h"

namespace ma::plan {
namespace {

/// Below this many input rows a sort+limit runs serially: the fan-out
/// cannot pay for itself, and the serial path's empty-input behavior
/// (a zero-column result table) is preserved exactly.
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

/// True when the i64 column `name` of `t` is ascending (the runtime
/// order proof for merge-join inputs).
bool ColumnIsAscending(const Table* t, const std::string& name) {
  const Column* c = t->FindColumn(name);
  if (c == nullptr || c->type() != PhysicalType::kI64) return false;
  const i64* d = c->Data<i64>();
  for (size_t i = 1; i < c->size(); ++i) {
    if (d[i] < d[i - 1]) return false;
  }
  return true;
}

std::unique_ptr<IntermediateTable> MakeIntermediate(const Stage& stage) {
  std::vector<IntermediateTable::ColumnSpec> specs;
  specs.reserve(stage.out_schema.size());
  for (const ColumnInfo& c : stage.out_schema) {
    specs.push_back({c.name, c.type});
  }
  return std::make_unique<IntermediateTable>(
      "stage" + std::to_string(stage.id), std::move(specs));
}

}  // namespace

QuerySession::QuerySession(SessionConfig config, PrimitiveDictionary* dict)
    : config_(std::move(config)),
      dict_(dict),
      engine_(config_.engine, dict) {
  // A session enabled without a shared book learns privately (a server
  // shares ONE book across its driver sessions instead).
  if (config_.macro.enabled && config_.macro.book == nullptr) {
    config_.macro.book = std::make_shared<StrategyBook>(config_.macro.params);
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
    if (staged != nullptr) {
      // Precompiled (plan-cache hit): skip BuildStagePlan entirely.
      if (gate(*staged)) {
        last_run_parallel_ = true;
        return WithDeclaredSchema(plan.root->schema,
                                  RunStaged(*staged, ctx, site_prefix));
      }
    } else {
      StagePlan sp;
      const Status s = Compiler::BuildStagePlan(plan, &sp);
      if (s.ok() && gate(sp)) {
        last_run_parallel_ = true;
        return WithDeclaredSchema(plan.root->schema,
                                  RunStaged(sp, ctx, site_prefix));
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
  StrategyBook* book =
      config_.macro.enabled ? config_.macro.book.get() : nullptr;
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

  // Stage outputs: shared join builds keyed by plan node, materialized
  // intermediates (and order-proven aliases) keyed by stage id. An
  // alias of a base table keeps the original scan's column projection;
  // materialized intermediates scan every column (empty list).
  Compiler::BuildMap builds;
  // Scalar values, filled as the producing stages complete (scalar
  // stages precede their consumers in topological order); captured by
  // reference in the fragment factories below.
  ScalarBindings bindings;
  std::vector<std::unique_ptr<SharedJoinBuild>> owned_builds;
  std::vector<std::unique_ptr<IntermediateTable>> mats(sp.stages.size());
  std::vector<const Table*> outs(sp.stages.size(), nullptr);
  std::vector<std::vector<std::string>> out_cols(sp.stages.size());
  auto resolve = [&](const StageInput& in)
      -> std::pair<const Table*, std::vector<std::string>> {
    if (in.from_stage()) {
      MA_CHECK(outs[in.stage] != nullptr);
      return {outs[in.stage], out_cols[in.stage]};
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

  // --- Macro-adaptivity bookkeeping ----------------------------------
  // Per-stage wall cycles and input rows, the reward currency: a
  // strategy arm is credited with (tuples, cycles) only after the WHOLE
  // query succeeds (partial timings of failed runs never teach).
  std::vector<u64> stage_cycles(sp.stages.size(), 0);
  std::vector<u64> stage_rows(sp.stages.size(), 0);
  // (decision, stage id) pairs rewarded with that stage's own timing.
  std::vector<std::pair<StrategyBook::Decision, int>> stage_decisions;
  // Bloom decisions are rewarded with the build stage PLUS its probing
  // consumers: the filter costs cycles at build time to save them at
  // probe time, so only the combined timing ranks on/off fairly.
  std::vector<std::pair<StrategyBook::Decision, int>> bloom_decisions;
  // Resolves the hints for one parallel stage, recording decisions for
  // the post-run reward pass. `bloom_site` marks a join build whose
  // spec/config would bloom statically.
  auto decide_hints = [&](const Stage& stage, bool bloom_site) {
    StageHints hints;
    if (book == nullptr) return hints;
    const std::string site = site_prefix + "/s" + std::to_string(stage.id);
    const int pool = parallel_->num_threads();
    std::vector<StrategyArm> tarms;
    auto add_t = [&tarms](int n) {
      if (n <= 0) return;
      for (const StrategyArm& a : tarms) {
        if (a.value == static_cast<u64>(n)) return;
      }
      tarms.push_back({"t" + std::to_string(n), static_cast<u64>(n)});
    };
    add_t(pool);  // static default first: a cold site behaves statically
    add_t(2);
    add_t(1);
    if (tarms.size() > 1) {
      StrategyBook::Decision d =
          book->Decide(site, StrategyKind::kThreadCount, tarms);
      hints.workers = static_cast<int>(d.value);
      stage_decisions.emplace_back(std::move(d), stage.id);
    }
    std::vector<StrategyArm> marms;
    auto add_m = [&marms](u64 rows) {
      if (rows == 0) return;
      for (const StrategyArm& a : marms) {
        if (a.value == rows) return;
      }
      marms.push_back({"m" + std::to_string(rows), rows});
    };
    add_m(config_.parallel.morsel_size);
    add_m(config_.macro.small_morsel_rows);
    add_m(config_.macro.large_morsel_rows);
    if (marms.size() > 1) {
      StrategyBook::Decision d =
          book->Decide(site, StrategyKind::kMorselSize, marms);
      hints.morsel_size = d.value;
      stage_decisions.emplace_back(std::move(d), stage.id);
    }
    if (bloom_site) {
      StrategyBook::Decision d = book->Decide(
          site, StrategyKind::kBloom, {{"on", 1}, {"off", 0}});
      hints.bloom = static_cast<int>(d.value);
      bloom_decisions.emplace_back(std::move(d), stage.id);
    }
    return hints;
  };

  StageProfile acc;
  RunResult result;
  // Shared stage epilogue: fold the stage's timings into the run
  // profile, then either materialize the output into this stage's
  // intermediate (unless an Into-style runner filled it already) or
  // keep it as the final result.
  auto finish = [&](const Stage& stage, RunResult r) {
    acc.execute += r.stages.execute;
    acc.primitives += r.stages.primitives;
    acc.postprocess += r.stages.postprocess;
    stage_cycles[stage.id] = r.total_cycles;
    if (!r.status.ok()) return;  // the post-stage status check unwinds
    if (stage.materialize) {
      if (mats[stage.id] == nullptr) {
        mats[stage.id] = MakeIntermediate(stage);
        mats[stage.id]->Adopt(std::move(r.table));
        outs[stage.id] = mats[stage.id]->table();
      }
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
    switch (stage.kind) {
      case Stage::Kind::kJoinBuild: {
        const auto [table, columns] = resolve(stage.input);
        stage_rows[stage.id] = table->row_count();
        // Bloom is only a decision where the static path would bloom;
        // left-outer and config exclusions stay hard rules.
        const bool bloom_site =
            stage.join->hash_spec.use_bloom &&
            stage.join->hash_spec.kind != HashJoinSpec::Kind::kLeftOuter &&
            config_.engine.join_bloom_filters;
        const StageHints hints = decide_hints(stage, bloom_site);
        const u64 b0 = CycleClock::Now();
        owned_builds.push_back(parallel_->BuildJoin(
            table, columns, fragment(stage), stage.join->hash_spec, hints));
        stage_cycles[stage.id] = CycleClock::Now() - b0;
        if (owned_builds.back() == nullptr) break;  // ctx holds the error
        builds[stage.join] = owned_builds.back().get();
        break;
      }
      case Stage::Kind::kPipeline:
      case Stage::Kind::kAggregate: {
        const auto [table, columns] = resolve(stage.input);
        stage_rows[stage.id] = table->row_count();
        const auto factory = fragment(stage);
        const StageHints hints = decide_hints(stage, false);
        RunResult r;
        if (stage.kind == Stage::Kind::kPipeline && stage.materialize) {
          // Per-morsel partials append straight into the intermediate.
          mats[stage.id] = MakeIntermediate(stage);
          r = parallel_->RunPipelineInto(table, columns, factory,
                                         mats[stage.id].get(), hints);
          outs[stage.id] = mats[stage.id]->table();
        } else if (stage.kind == Stage::Kind::kAggregate) {
          r = parallel_->RunAgg(
              table, columns, factory,
              {stage.agg->group_keys, stage.agg->group_outputs,
               CloneAggs(stage.agg->aggs, bindings)},
              hints);
        } else {
          r = parallel_->RunPipeline(table, columns, factory, hints);
        }
        finish(stage, std::move(r));
        break;
      }
      case Stage::Kind::kSort: {
        const auto [table, columns] = resolve(stage.input);
        stage_rows[stage.id] = table->row_count();
        if (stage.prove_sorted) {
          // Order-proof stage under a merge join: verify the key column
          // is ascending and pass the input through untouched. A
          // violation is the same contract breach the serial
          // MergeJoinOperator aborts on (inputs must arrive sorted;
          // plans sort via an explicit Sort node, which both executors
          // lower) — enforcing it identically here keeps execution mode
          // from changing semantics. The merge's own drain re-asserts
          // per row; this earlier, explicit pass fails the stage before
          // the remaining merge inputs materialize, and goes away once
          // the compiler propagates order properties (ROADMAP).
          if (stage.sort_keys.empty() ||
              !ColumnIsAscending(table, stage.sort_keys[0].column)) {
            ctx->Fail(Status::InvalidArgument(
                "merge join input key '" +
                (stage.sort_keys.empty() ? std::string("?")
                                         : stage.sort_keys[0].column) +
                "' is not sorted ascending"));
            break;
          }
          outs[stage.id] = table;
          out_cols[stage.id] = columns;
          break;
        }
        if (stage.limit > 0 && !stage.sort_keys.empty() &&
            table->row_count() >= kParallelTopNMinRows) {
          // Sort+Limit over a large input: parallel TopN (per-worker
          // bounded heaps + ordered merge) instead of a serial full
          // sort — same comparator, byte-identical output.
          const StageHints hints = decide_hints(stage, false);
          finish(stage, parallel_->RunTopN(table, columns, stage.sort_keys,
                                           stage.limit, hints));
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
        const auto [left, left_cols] = resolve(stage.input);
        const auto [right, right_cols] = resolve(stage.right);
        MergeJoinOperator op(
            &engine_,
            std::make_unique<ScanOperator>(&engine_, left, left_cols),
            std::make_unique<ScanOperator>(&engine_, right, right_cols),
            stage.merge->merge_spec, stage.merge->label);
        finish(stage, engine_.Run(op));
        break;
      }
    }
    if (ctx->ShouldStop()) break;
    // A scalar stage just completed: read its broadcast value out of
    // the materialized single-row intermediate for every later stage's
    // compiled expressions.
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

  // Reward pass: only a fully successful query teaches (failed or
  // cancelled runs carry partial timings that would poison the stats).
  if (book != nullptr && result.status.ok()) {
    for (const auto& [d, sid] : stage_decisions) {
      book->Reward(d, stage_rows[sid], stage_cycles[sid]);
    }
    for (const auto& [d, bid] : bloom_decisions) {
      u64 tuples = stage_rows[bid];
      u64 cycles = stage_cycles[bid];
      for (const Stage& s : sp.stages) {
        if (std::find(s.deps.begin(), s.deps.end(), bid) != s.deps.end()) {
          tuples += stage_rows[s.id];
          cycles += stage_cycles[s.id];
        }
      }
      book->Reward(d, tuples, cycles);
    }
  }
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
