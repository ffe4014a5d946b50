#include "exec/parallel/parallel_executor.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <thread>

#include "common/cycleclock.h"
#include "exec/append.h"
#include "prim/aggr_kernels.h"
#include "prim/bloom.h"

namespace ma {
namespace {

/// Appends all rows of `src` to `dst`, creating columns on first use.
/// (Strings are copied into dst's own heap; the per-morsel partial
/// tables are freed after the merge.)
void AppendTableRows(const Table& src, Table* dst) {
  for (size_t i = 0; i < src.num_columns(); ++i) {
    Column* dst_col = dst->FindMutableColumn(src.column_name(i));
    if (dst_col == nullptr) {
      dst_col = dst->AddColumn(src.column_name(i), src.column(i)->type());
    }
    AppendColumnRows(*src.column(i), dst_col);
  }
  dst->set_row_count(dst->row_count() + src.row_count());
}

}  // namespace

ParallelExecutor::ParallelExecutor(EngineConfig engine_config,
                                   ParallelConfig parallel_config,
                                   PrimitiveDictionary* dict,
                                   ThreadPool* shared_pool)
    : engine_config_(std::move(engine_config)),
      parallel_config_(parallel_config),
      dict_(dict) {
  if (shared_pool != nullptr) {
    pool_ = shared_pool;
  } else {
    int threads = parallel_config_.num_threads;
    if (threads <= 0) {
      threads = static_cast<int>(std::thread::hardware_concurrency());
      if (threads <= 0) threads = 1;
    }
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
  // Prime lazily-initialized singletons on this thread so the parallel
  // regions neither race on first-touch nor absorb the ~20ms frequency
  // calibration into a timed section.
  CycleClock::FrequencyHz();
}

ParallelExecutor::~ParallelExecutor() = default;

QueryContext* ParallelExecutor::ResetEngines() {
  if (context_ == &own_context_) own_context_.Reset();
  engines_.clear();
  for (int w = 0; w < num_threads(); ++w) {
    engines_.push_back(std::make_unique<Engine>(engine_config_, dict_));
    engines_.back()->set_context(context_);
  }
  return context_;
}

u64 ParallelExecutor::TotalPrimitiveCycles() const {
  u64 total = 0;
  for (const auto& eng : engines_) total += eng->TotalPrimitiveCycles();
  return total;
}

void ParallelExecutor::FinishTimings(u64 t0, u64 t_exec,
                                     RunResult* result) const {
  const u64 t_end = CycleClock::Now();
  result->stages.execute = t_exec - t0;
  result->stages.primitives = TotalPrimitiveCycles();
  result->stages.postprocess = t_end - t_exec;
  result->total_cycles = t_end - t0;
  result->seconds =
      static_cast<f64>(result->total_cycles) / CycleClock::FrequencyHz();
}

int ParallelExecutor::ResolveWorkers(const StageHints& hints) const {
  if (hints.workers <= 0) return num_threads();
  return std::min(hints.workers, num_threads());
}

u64 ParallelExecutor::ResolveMorselSize(const StageHints& hints) const {
  return hints.morsel_size > 0 ? hints.morsel_size
                               : parallel_config_.morsel_size;
}

std::vector<InstanceProfile> ParallelExecutor::MergedProfile() const {
  std::vector<const PrimitiveInstance*> instances;
  for (const auto& eng : engines_) {
    for (const auto& inst : eng->instances()) instances.push_back(inst.get());
  }
  return MergeInstanceProfiles(instances);
}

RunResult ParallelExecutor::RunPipeline(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, const StageHints& hints) {
  auto sink = std::make_unique<Table>("result");
  RunResult result = RunPipelineImpl(table, std::move(scan_columns), factory,
                                     sink.get(), hints);
  if (result.status.ok()) result.table = std::move(sink);
  return result;
}

RunResult ParallelExecutor::RunPipelineInto(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, IntermediateTable* out,
    const StageHints& hints) {
  MA_CHECK(out != nullptr);
  RunResult result = RunPipelineImpl(table, std::move(scan_columns), factory,
                                     out->mutable_table(), hints);
  out->EnsureSchema();
  return result;
}

RunResult ParallelExecutor::RunPipelineImpl(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, Table* sink, const StageHints& hints) {
  MA_CHECK(table != nullptr);
  QueryContext* ctx = ResetEngines();
  const u64 t0 = CycleClock::Now();
  ctx->MaybeInjectFault("parallel/pipeline");

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), ResolveMorselSize(hints), workers,
                    parallel_config_.work_stealing);
  // One output slot per morsel; a morsel is processed by exactly one
  // worker, so workers never write the same slot. Merging the slots in
  // index order afterwards makes the result independent of thread count
  // and stealing.
  std::vector<std::unique_ptr<Table>> morsel_out(queue.num_morsels());
  const bool accounted = ctx->accounting_enabled();

  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    Engine* engine = engines_[w].get();
    auto scan = std::make_unique<MorselScanOperator>(
        engine, table, scan_columns, &queue, w);
    MorselScanOperator* scan_leaf = scan.get();
    OperatorPtr root = factory(engine, std::move(scan));
    Status open = root->Open();
    if (!open.ok()) {
      ctx->Fail(std::move(open));
      return;
    }
    Batch batch;
    for (;;) {
      batch.Clear();
      if (!root->Next(&batch)) break;
      if (batch.live_count() == 0) continue;
      if (accounted &&
          !ctx->ReserveMemory("alloc/pipeline", ApproxBatchBytes(batch))
               .ok()) {
        return;
      }
      // The pipeline is pull-based and holds no batches back, so this
      // output belongs to the morsel the scan leaf emitted last.
      const size_t m = scan_leaf->current_morsel();
      if (morsel_out[m] == nullptr) {
        morsel_out[m] = std::make_unique<Table>("morsel");
      }
      AppendBatchToTable(batch, morsel_out[m].get());
    }
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
  const u64 t_exec = CycleClock::Now();

  RunResult result;
  result.status = ctx->status();
  result.reason = ReasonFromStatus(result.status);
  if (result.status.ok()) {
    for (const auto& part : morsel_out) {
      if (part != nullptr) AppendTableRows(*part, sink);
    }
    result.rows_emitted = sink->row_count();
  }

  FinishTimings(t0, t_exec, &result);
  return result;
}

std::unique_ptr<SharedJoinBuild> ParallelExecutor::BuildJoin(
    const Table* build_table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, const HashJoinSpec& spec,
    const StageHints& hints) {
  MA_CHECK(build_table != nullptr);
  QueryContext* ctx = ResetEngines();
  ctx->MaybeInjectFault("parallel/build");

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(build_table->row_count(), ResolveMorselSize(hints),
                    workers, parallel_config_.work_stealing);
  struct BuildPartial {
    std::vector<i64> keys;
    std::vector<std::unique_ptr<Column>> cols;
  };
  std::vector<BuildPartial> partials(queue.num_morsels());
  const bool accounted = ctx->accounting_enabled();

  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    Engine* engine = engines_[w].get();
    auto scan = std::make_unique<MorselScanOperator>(
        engine, build_table, scan_columns, &queue, w);
    MorselScanOperator* scan_leaf = scan.get();
    OperatorPtr root = factory(engine, std::move(scan));
    Status open = root->Open();
    if (!open.ok()) {
      ctx->Fail(std::move(open));
      return;
    }
    Batch batch;
    for (;;) {
      batch.Clear();
      if (!root->Next(&batch)) break;
      if (batch.live_count() == 0) continue;
      if (accounted &&
          !ctx->ReserveMemory("alloc/build", ApproxBatchBytes(batch)).ok()) {
        return;
      }
      BuildPartial& part = partials[scan_leaf->current_morsel()];
      HashJoinOperator::DrainBuildBatch(batch, spec, &part.keys,
                                        &part.cols);
    }
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
  // A failed build is useless (and possibly partial): report through
  // the context and hand the caller nothing to probe.
  if (!ctx->status().ok()) return nullptr;

  // Concatenate partials in morsel order: build row ids come out
  // exactly as a single-threaded drain would produce them.
  auto shared = std::make_unique<SharedJoinBuild>();
  for (size_t i = 0; i < spec.build_outputs.size(); ++i) {
    PhysicalType type = PhysicalType::kI64;
    bool found = false;
    // Declared types (plan-compiled joins) beat inference; they keep an
    // empty build side typed the same as a populated one.
    if (i < spec.build_output_types.size()) {
      type = spec.build_output_types[i];
      found = true;
    }
    for (const BuildPartial& part : partials) {
      if (found) break;
      if (i < part.cols.size()) {
        type = part.cols[i]->type();
        found = true;
      }
    }
    if (!found) {
      // Nothing survived the build-side filter; fall back to the source
      // column's type where it names a stored column.
      const Column* src =
          build_table->FindColumn(spec.build_outputs[i].first);
      if (src != nullptr) type = src->type();
    }
    shared->cols.push_back(std::make_unique<Column>(type));
  }
  u64 row0 = 0;
  for (const BuildPartial& part : partials) {
    if (!part.keys.empty()) {
      shared->ht.Append(part.keys.data(), part.keys.size(), nullptr, 0,
                        row0);
      row0 += part.keys.size();
    }
    for (size_t i = 0; i < part.cols.size(); ++i) {
      AppendColumnRows(*part.cols[i], shared->cols[i].get());
    }
  }
  shared->ht.Finalize();
  if (spec.kind == HashJoinSpec::Kind::kLeftOuter) {
    // The miss-payload default row, exactly as the serial drain appends
    // it (deterministic build row ids include the default row's id).
    for (auto& col : shared->cols) AppendDefault(col.get());
  }

  // Left outer never blooms (missed probe rows must be emitted, not
  // discarded); this entry point takes the spec by const ref, so the
  // exclusion HashJoinOperator::Normalize applies lives here too. A
  // macro-adaptivity hint overrides the spec's static choice — bloom
  // only discards probe rows that would miss anyway, so both arms
  // produce identical join output.
  const bool bloom_on = hints.bloom >= 0 ? hints.bloom != 0 : spec.use_bloom;
  if (bloom_on && spec.kind != HashJoinSpec::Kind::kLeftOuter) {
    shared->bloom = std::make_unique<BloomFilter>(
        BloomFilter::ForKeys(shared->ht.num_rows() + 1));
    const JoinHashTable::View v = shared->ht.view();
    for (size_t i = 0; i < shared->ht.num_rows(); ++i) {
      shared->bloom->Insert(v.keys[i]);
    }
  }
  return shared;
}

RunResult ParallelExecutor::RunAgg(const Table* table,
                                   std::vector<std::string> scan_columns,
                                   const PipelineFactory& factory,
                                   const AggPlan& plan,
                                   const StageHints& hints) {
  MA_CHECK(table != nullptr);
  QueryContext* ctx = ResetEngines();
  const u64 t0 = CycleClock::Now();
  ctx->MaybeInjectFault("parallel/agg");

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), ResolveMorselSize(hints), workers,
                    parallel_config_.work_stealing);
  std::vector<std::unique_ptr<HashAggOperator>> aggs(num_threads());
  std::vector<std::optional<HashAggOperator::Partial>> worker_parts(
      num_threads());

  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    Engine* engine = engines_[w].get();
    auto scan = std::make_unique<MorselScanOperator>(
        engine, table, scan_columns, &queue, w);
    OperatorPtr child = factory(engine, std::move(scan));
    // Clone the plan: AggSpec holds expression trees, and each worker
    // must own its own (expression nodes anchor primitive instances).
    std::vector<HashAggOperator::AggSpec> specs;
    for (const HashAggOperator::AggSpec& a : plan.aggs) {
      specs.push_back(a.Clone());
    }
    aggs[w] = std::make_unique<HashAggOperator>(
        engine, std::move(child), plan.group_keys, plan.group_outputs,
        std::move(specs), "parallel/agg");
    // Open() drains this worker's share of the morsels — the
    // thread-local pre-aggregation. It polls the context per batch and
    // charges "alloc/agg" growth itself.
    Status open = aggs[w]->Open();
    if (!open.ok()) {
      ctx->Fail(std::move(open));
      return;
    }
    // Taken here rather than in the merge: a group table still in run
    // mode rehashes its groups into its slots on this worker's thread.
    worker_parts[w] = aggs[w]->partial();
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
  const u64 t_exec = CycleClock::Now();
  if (!ctx->status().ok()) {
    RunResult result;
    result.status = ctx->status();
    result.reason = ReasonFromStatus(result.status);
    FinishTimings(t0, t_exec, &result);
    return result;
  }

  // --- Merge the thread-local partials -------------------------------
  // Workers past the hinted count never built an operator; skip them.
  std::vector<HashAggOperator::Partial> parts;
  for (auto& part : worker_parts) {
    if (part.has_value()) parts.push_back(std::move(*part));
  }

  // Union of group keys, emitted in packed-key order so the output is
  // independent of which worker saw which group first.
  std::vector<i64> keys;
  const bool grouped = !plan.group_keys.empty();
  if (grouped) {
    for (const auto& part : parts) {
      for (u32 g = 0; g < part.groups->num_groups(); ++g) {
        keys.push_back(part.groups->KeyOfGroup(g));
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  } else {
    keys.push_back(0);  // the single global group
  }

  RunResult result;
  result.table = std::make_unique<Table>("result");

  // Group outputs: first-seen row values, taken from the first worker
  // (in id order) holding the group. These columns are functionally
  // dependent on the group key in every query here, so any worker's
  // copy is the same value. The owner of each key is computed once (not
  // per column), and consecutive keys owned by the same worker merge as
  // one bulk gather per run — string payloads move as one contiguous
  // heap block instead of one heap interaction per row.
  struct GroupOwner {
    u32 part = 0;
    sel_t gid = 0;
  };
  std::vector<GroupOwner> owners;
  if (!plan.group_outputs.empty()) {
    owners.reserve(keys.size());
    for (const i64 key : keys) {
      GroupOwner o;
      bool found = false;
      for (u32 p = 0; p < parts.size(); ++p) {
        if (parts[p].group_out_cols->empty()) continue;
        const i64 gid = parts[p].groups->Find(key);
        if (gid < 0) continue;
        o.part = p;
        o.gid = static_cast<sel_t>(gid);
        found = true;
        break;
      }
      MA_CHECK(found);  // keys is the union of all workers' groups
      owners.push_back(o);
    }
  }
  std::vector<sel_t> run;
  for (size_t g = 0; g < plan.group_outputs.size(); ++g) {
    PhysicalType type = PhysicalType::kI64;
    for (const auto& part : parts) {
      if (g < part.group_out_cols->size()) {
        type = (*part.group_out_cols)[g]->type();
        break;
      }
    }
    Column* dst = result.table->AddColumn(plan.group_outputs[g], type);
    for (size_t i = 0; i < owners.size();) {
      const u32 p = owners[i].part;
      run.clear();
      size_t j = i;
      for (; j < owners.size() && owners[j].part == p; ++j) {
        run.push_back(owners[j].gid);
      }
      const auto& cols = *parts[p].group_out_cols;
      MA_CHECK(g < cols.size());
      AppendGatherColumn(*cols[g], run.data(), run.size(), dst);
      i = j;
    }
  }

  for (size_t a = 0; a < plan.aggs.size(); ++a) {
    const std::string& fn = plan.aggs[a].fn;
    const std::string& out_name = plan.aggs[a].out_name;
    // Accumulator type: trust a partial that inferred it from real
    // input over one that fell back to the type_hint — a worker starved
    // by stealing drains nothing and its hint may disagree with what
    // the busy workers saw. A hint-typed partial holds no data, so
    // skipping its (differently-typed) accumulators in the fold below
    // loses nothing.
    bool is_float = parts.empty() ? false : parts[0].aggs[a].is_float;
    bool exact = parts.empty() ? false : parts[0].aggs[a].exact;
    for (const auto& part : parts) {
      if (part.aggs[a].typed_from_data) {
        is_float = part.aggs[a].is_float;
        exact = part.aggs[a].exact;
        break;
      }
    }
    // Per-key fold over the partials in worker order. Exact (fixed-
    // point) f64 sums fold in i128 — integer adds, so the total is
    // independent of worker count and row distribution; the single
    // rounding to f64 happens at emit below.
    using CombineI = i64 (*)(i64, i64);
    using CombineF = f64 (*)(f64, f64);
    struct Folded {
      f64 f;
      i64 i;
      i128 fx;
      i64 count;
    };
    auto fold = [&](i64 key, i64 init_i, f64 init_f, CombineI ci,
                    CombineF cf) -> Folded {
      Folded r{init_f, init_i, 0, 0};
      for (const auto& part : parts) {
        const i64 gid = grouped ? part.groups->Find(key)
                                : (part.groups->num_groups() > 0 ? 0 : -1);
        if (gid < 0) continue;
        const auto& pa = part.aggs[a];
        const size_t g = static_cast<size_t>(gid);
        if (exact) {
          if (g < pa.acc_fx->size()) r.fx += (*pa.acc_fx)[g];
        } else if (is_float) {
          if (g < pa.acc_f->size()) r.f = cf(r.f, (*pa.acc_f)[g]);
        } else {
          if (g < pa.acc_i->size()) r.i = ci(r.i, (*pa.acc_i)[g]);
        }
        if (pa.count != nullptr && g < pa.count->size()) {
          r.count += (*pa.count)[g];
        }
      }
      return r;
    };

    const CombineI add_i = +[](i64 x, i64 y) { return x + y; };
    const CombineF add_f = +[](f64 x, f64 y) { return x + y; };
    const CombineI min_i = +[](i64 x, i64 y) { return std::min(x, y); };
    const CombineF min_f = +[](f64 x, f64 y) { return std::min(x, y); };
    const CombineI max_i = +[](i64 x, i64 y) { return std::max(x, y); };
    const CombineF max_f = +[](f64 x, f64 y) { return std::max(x, y); };

    if (fn == "avg") {
      Column* dst = result.table->AddColumn(out_name, PhysicalType::kF64);
      for (const i64 key : keys) {
        const Folded r = fold(key, 0, 0.0, add_i, add_f);
        const f64 sum = exact ? FixToF64(r.fx)
                              : (is_float ? r.f : static_cast<f64>(r.i));
        dst->Append<f64>(r.count == 0 ? 0.0 : sum / r.count);
      }
    } else if (fn == "min" || fn == "max") {
      const bool is_min = fn == "min";
      Column* dst = result.table->AddColumn(
          out_name, is_float ? PhysicalType::kF64 : PhysicalType::kI64);
      const i64 init_i = is_min ? std::numeric_limits<i64>::max()
                                : std::numeric_limits<i64>::min();
      const f64 init_f = is_min ? std::numeric_limits<f64>::infinity()
                                : -std::numeric_limits<f64>::infinity();
      for (const i64 key : keys) {
        const Folded r = fold(key, init_i, init_f, is_min ? min_i : max_i,
                              is_min ? min_f : max_f);
        if (is_float) {
          dst->Append<f64>(r.f);
        } else {
          dst->Append<i64>(r.i);
        }
      }
    } else {  // sum, count
      Column* dst = result.table->AddColumn(
          out_name, is_float ? PhysicalType::kF64 : PhysicalType::kI64);
      for (const i64 key : keys) {
        const Folded r = fold(key, 0, 0.0, add_i, add_f);
        if (is_float) {
          dst->Append<f64>(exact ? FixToF64(r.fx) : r.f);
        } else {
          dst->Append<i64>(r.i);
        }
      }
    }
  }
  result.table->set_row_count(keys.size());
  result.rows_emitted = keys.size();

  FinishTimings(t0, t_exec, &result);
  return result;
}

RunResult ParallelExecutor::RunTopN(const Table* table,
                                    const std::vector<std::string>& columns,
                                    const std::vector<SortKey>& keys,
                                    size_t limit, const StageHints& hints) {
  MA_CHECK(table != nullptr);
  MA_CHECK(limit > 0);
  MA_CHECK(!keys.empty());
  QueryContext* ctx = ResetEngines();
  const u64 t0 = CycleClock::Now();
  ctx->MaybeInjectFault("parallel/topn");

  std::vector<const Column*> key_cols;
  for (const SortKey& k : keys) {
    const Column* c = table->FindColumn(k.column);
    MA_CHECK(c != nullptr);
    key_cols.push_back(c);
  }
  // SortRowsLess is a strict total order (row-index tiebreak), so "the
  // best `limit` rows" is a uniquely defined set: every worker's heap
  // retains any global winner it saw (eviction needs a strictly better
  // row, and fewer than `limit` exist), so the merged candidates always
  // contain the exact rows a serial partial_sort would pick.
  auto less = [&](u64 a, u64 b) { return SortRowsLess(key_cols, keys, a, b); };

  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), ResolveMorselSize(hints), workers,
                    parallel_config_.work_stealing);
  // Per-worker bounded max-heaps: front = worst retained row.
  std::vector<std::vector<u64>> heaps(workers);

  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    std::vector<u64>& heap = heaps[w];
    heap.reserve(limit);
    Morsel m;
    while (queue.Next(w, &m)) {
      if (ctx->ShouldStop()) return;
      for (u64 r = m.begin; r < m.end; ++r) {
        if (heap.size() < limit) {
          heap.push_back(r);
          std::push_heap(heap.begin(), heap.end(), less);
        } else if (less(r, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), less);
          heap.back() = r;
          std::push_heap(heap.begin(), heap.end(), less);
        }
      }
    }
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
  const u64 t_exec = CycleClock::Now();

  RunResult result;
  if (!ctx->status().ok()) {
    result.status = ctx->status();
    result.reason = ReasonFromStatus(result.status);
    FinishTimings(t0, t_exec, &result);
    return result;
  }

  // Ordered merge: the exact rows and order a serial sort+limit yields.
  std::vector<u64> order;
  for (const auto& heap : heaps) {
    order.insert(order.end(), heap.begin(), heap.end());
  }
  std::sort(order.begin(), order.end(), less);
  if (order.size() > limit) order.resize(limit);

  result.table = std::make_unique<Table>("result");
  std::vector<sel_t> sel(order.begin(), order.end());
  std::vector<std::string> all_cols;
  const std::vector<std::string>* out_cols = &columns;
  if (columns.empty()) {
    for (size_t i = 0; i < table->num_columns(); ++i) {
      all_cols.push_back(table->column_name(i));
    }
    out_cols = &all_cols;
  }
  if (ctx->accounting_enabled()) {
    Status charge = ctx->ReserveMemory(
        "alloc/sort", (sel.size() + 1) * out_cols->size() * sizeof(u64));
    if (!charge.ok()) {
      ctx->Fail(std::move(charge));
      result.table = nullptr;
      result.status = ctx->status();
      result.reason = ReasonFromStatus(result.status);
      FinishTimings(t0, t_exec, &result);
      return result;
    }
  }
  for (const std::string& name : *out_cols) {
    const Column* src = table->FindColumn(name);
    MA_CHECK(src != nullptr);
    Column* dst = result.table->AddColumn(name, src->type());
    AppendGatherColumn(*src, sel.data(), sel.size(), dst);
  }
  result.table->set_row_count(sel.size());
  result.rows_emitted = sel.size();

  FinishTimings(t0, t_exec, &result);
  return result;
}

}  // namespace ma
