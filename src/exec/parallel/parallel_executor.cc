#include "exec/parallel/parallel_executor.h"

#include <algorithm>
#include <thread>

#include "common/cycleclock.h"
#include "exec/append.h"

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
    : parallel_config_(parallel_config) {
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
  for (int w = 0; w < num_threads(); ++w) {
    engines_.push_back(std::make_unique<Engine>(engine_config, dict));
    engines_.back()->set_context(context_);
  }
  // Prime lazily-initialized singletons on this thread so the parallel
  // regions neither race on first-touch nor absorb the ~20ms frequency
  // calibration into a timed section.
  CycleClock::FrequencyHz();
}

ParallelExecutor::~ParallelExecutor() = default;

u64 ParallelExecutor::TotalPrimitiveCycles() const {
  u64 total = 0;
  for (const auto& eng : engines_) total += eng->TotalPrimitiveCycles();
  return total;
}

QueryContext* ParallelExecutor::BeginRun(const char* fault_site) {
  if (context_ == &own_context_) own_context_.Reset();
  primitives_before_run_ = TotalPrimitiveCycles();
  context_->MaybeInjectFault(fault_site);
  return context_;
}

void ParallelExecutor::FinishRun(u64 t0, u64 t_exec,
                                 RunResult* result) const {
  result->status = context_->status();
  result->reason = ReasonFromStatus(result->status);
  if (!result->status.ok()) result->table = nullptr;
  const u64 t_end = CycleClock::Now();
  result->stages.execute = t_exec - t0;
  result->stages.primitives = TotalPrimitiveCycles() - primitives_before_run_;
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

template <typename Split, typename Work>
void ParallelExecutor::RunWorkers(
    QueryContext* ctx, const Table* table,
    const std::vector<std::string>& scan_columns,
    const PipelineFactory& factory, const StageHints& hints, Split split,
    Work work) {
  const int workers = ResolveWorkers(hints);
  MorselQueue queue(table->row_count(), ResolveMorselSize(hints), workers,
                    parallel_config_.work_stealing);
  split(queue.num_morsels());
  Status pool_status = pool_->Run([&](int w) {
    if (w >= workers || ctx->ShouldStop()) return;
    Engine* engine = engines_[w].get();
    auto scan = std::make_unique<MorselScanOperator>(
        engine, table, scan_columns, &queue, w);
    const MorselScanOperator* scan_leaf = scan.get();
    work(w, factory(engine, std::move(scan)), *scan_leaf);
  }, task_tag_);
  if (!pool_status.ok()) ctx->Fail(std::move(pool_status));
}

template <typename Slot, typename Fill>
std::vector<Slot> ParallelExecutor::DrainPerMorsel(
    QueryContext* ctx, const Table* table,
    const std::vector<std::string>& scan_columns,
    const PipelineFactory& factory, const StageHints& hints,
    const char* site, u64 row_bytes, Fill fill) {
  std::vector<Slot> slots;
  const bool accounted = ctx->accounting_enabled();
  RunWorkers(
      ctx, table, scan_columns, factory, hints,
      [&slots](size_t morsels) { slots.resize(morsels); },
      [&](int, OperatorPtr root, const MorselScanOperator& scan_leaf) {
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
              !ctx->ReserveMemory(site, batch.live_count() * row_bytes +
                                            ApproxBatchBytes(batch))
                   .ok()) {
            return;
          }
          // Pull-based, no batch held back: this output belongs to the
          // morsel the scan leaf emitted last.
          fill(batch, &slots[scan_leaf.current_morsel()]);
        }
      });
  return slots;
}

RunResult ParallelExecutor::RunPipeline(
    const Table* table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, const StageHints& hints) {
  MA_CHECK(table != nullptr);
  QueryContext* ctx = BeginRun("parallel/pipeline");
  const u64 t0 = CycleClock::Now();
  std::vector<std::unique_ptr<Table>> morsel_out =
      DrainPerMorsel<std::unique_ptr<Table>>(
          ctx, table, scan_columns, factory, hints, "alloc/pipeline",
          /*row_bytes=*/0,
          [](const Batch& batch, std::unique_ptr<Table>* part) {
            if (*part == nullptr) *part = std::make_unique<Table>("result");
            AppendBatchToTable(batch, part->get());
          });
  const u64 t_exec = CycleClock::Now();

  RunResult result;
  if (ctx->status().ok()) {
    // Concatenate the parts in morsel order. The first part that holds
    // rows is moved in and every later one is freed as soon as it is
    // copied, so at most one part's rows exist twice.
    for (std::unique_ptr<Table>& part : morsel_out) {
      if (part == nullptr) continue;
      if (result.table == nullptr) {
        result.table = std::move(part);
      } else {
        AppendTableRows(*part, result.table.get());
        part.reset();
      }
    }
    if (result.table == nullptr) {
      result.table = std::make_unique<Table>("result");
    }
    result.rows_emitted = result.table->row_count();
  }

  FinishRun(t0, t_exec, &result);
  return result;
}

std::unique_ptr<SharedJoinBuild> ParallelExecutor::BuildJoin(
    const Table* build_table, std::vector<std::string> scan_columns,
    const PipelineFactory& factory, const HashJoinSpec& spec,
    const StageHints& hints, StageProfile* stages) {
  MA_CHECK(build_table != nullptr);
  QueryContext* ctx = BeginRun("parallel/build");
  const u64 t0 = CycleClock::Now();

  std::vector<SharedJoinBuild> parts = DrainPerMorsel<SharedJoinBuild>(
      ctx, build_table, scan_columns, factory, hints, "alloc/build",
      kJoinBuildBytesPerRow,
      [&spec](const Batch& batch, SharedJoinBuild* part) {
        part->AppendBatch(batch, spec);
      });
  const u64 t_exec = CycleClock::Now();

  // A failed build is useless (and possibly partial): report through
  // the context and hand the caller nothing to probe.
  std::unique_ptr<SharedJoinBuild> shared;
  if (ctx->status().ok()) {
    // Concatenate the parts in morsel order: build row ids come out
    // exactly as a single-threaded drain would produce them. The first
    // part that holds rows is moved in and every later one is freed as
    // soon as it is copied, so at most one part's rows exist twice.
    shared = std::make_unique<SharedJoinBuild>();
    for (SharedJoinBuild& part : parts) {
      if (part.ht.num_rows() == 0) continue;
      if (shared->ht.num_rows() == 0) {
        *shared = std::move(part);
      } else {
        shared->AppendPart(part);
        part = SharedJoinBuild();
      }
    }
    // A macro-adaptivity hint overrides the spec's static bloom choice —
    // bloom only discards probe rows that would miss anyway, so both arms
    // produce identical join output.
    Status finish = shared->Finish(
        spec, hints.bloom >= 0 ? hints.bloom != 0 : spec.use_bloom);
    if (!finish.ok()) {
      ctx->Fail(std::move(finish));
      shared = nullptr;
    }
  }
  if (stages != nullptr) {
    RunResult timings;
    FinishRun(t0, t_exec, &timings);
    *stages = timings.stages;
  }
  return shared;
}

RunResult ParallelExecutor::RunAgg(const Table* table,
                                   std::vector<std::string> scan_columns,
                                   const PipelineFactory& factory,
                                   const AggPlan& plan,
                                   const StageHints& hints) {
  MA_CHECK(table != nullptr);
  QueryContext* ctx = BeginRun("parallel/agg");
  const u64 t0 = CycleClock::Now();
  std::vector<std::unique_ptr<HashAggOperator>> aggs(num_threads());
  RunWorkers(
      ctx, table, scan_columns, factory, hints, [](size_t) {},
      [&](int w, OperatorPtr child, const MorselScanOperator&) {
        // Clone the plan: each worker owns its expression trees
        // (expression nodes anchor primitive instances).
        std::vector<HashAggOperator::AggSpec> specs;
        for (const HashAggOperator::AggSpec& a : plan.aggs) {
          specs.push_back(a.Clone());
        }
        aggs[w] = std::make_unique<HashAggOperator>(
            engines_[w].get(), std::move(child), plan.group_keys,
            plan.group_outputs, std::move(specs), plan.label);
        // Open() drains this worker's share of the morsels — the
        // thread-local pre-aggregation. It polls the context per batch
        // and charges "alloc/agg" growth itself.
        Status open = aggs[w]->Open();
        if (!open.ok()) ctx->Fail(std::move(open));
      });
  const u64 t_exec = CycleClock::Now();

  RunResult result;
  if (ctx->status().ok()) {
    // Merge, in worker-id order, every pre-aggregation that saw rows
    // into the first such one; it then emits key-sorted through its
    // Next(). A worker that saw no rows holds only identity accumulators
    // typed from the hints, which may disagree with the data's types:
    // skip it. When no worker saw a row, worker 0's state is the (empty
    // or identity) result.
    HashAggOperator* merged = nullptr;
    for (const auto& agg : aggs) {
      if (agg == nullptr || !agg->saw_rows()) continue;
      if (merged == nullptr) {
        merged = agg.get();
      } else {
        merged->Merge(*agg);
      }
    }
    if (merged == nullptr) merged = aggs[0].get();
    MA_CHECK(merged != nullptr);
    result.table = std::make_unique<Table>("result");
    Batch batch;
    while (merged->Next(&batch)) {
      AppendBatchToTable(batch, result.table.get());
      batch.Clear();
    }
    result.rows_emitted = result.table->row_count();
  }

  FinishRun(t0, t_exec, &result);
  return result;
}

RunResult ParallelExecutor::RunTopN(const Table* table,
                                    const std::vector<std::string>& columns,
                                    const std::vector<SortKey>& keys,
                                    size_t limit, const StageHints& hints) {
  MA_CHECK(table != nullptr);
  MA_CHECK(limit > 0);
  MA_CHECK(!keys.empty());
  QueryContext* ctx = BeginRun("parallel/topn");
  const u64 t0 = CycleClock::Now();

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
  if (ctx->status().ok()) {
    // Ordered merge: the rows and order a serial sort+limit yields.
    std::vector<u64> order;
    for (const auto& heap : heaps) {
      order.insert(order.end(), heap.begin(), heap.end());
    }
    std::sort(order.begin(), order.end(), less);
    if (order.size() > limit) order.resize(limit);

    std::vector<sel_t> sel(order.begin(), order.end());
    std::vector<std::string> out_cols = columns;
    for (size_t i = 0; columns.empty() && i < table->num_columns(); ++i) {
      out_cols.push_back(table->column_name(i));
    }
    // A refused charge has already failed the query.
    if (!ctx->accounting_enabled() ||
        ctx->ReserveMemory("alloc/sort", (sel.size() + 1) *
                                             out_cols.size() * sizeof(u64))
            .ok()) {
      result.table = std::make_unique<Table>("result");
      for (const std::string& name : out_cols) {
        const Column* src = table->FindColumn(name);
        MA_CHECK(src != nullptr);
        Column* dst = result.table->AddColumn(name, src->type());
        AppendGatherColumn(*src, sel.data(), sel.size(), dst);
      }
      result.table->set_row_count(sel.size());
      result.rows_emitted = sel.size();
    }
  }

  FinishRun(t0, t_exec, &result);
  return result;
}

}  // namespace ma
