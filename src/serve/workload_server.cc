#include "serve/workload_server.h"

#include <algorithm>
#include <utility>

namespace ma::serve {

/// Shared per-query state behind a QueryHandle. The driver thread
/// writes result fields before setting done (under mu); waiters read
/// them after observing done (under mu) — no torn reads.
struct QueryHandle::State {
  u64 id = 0;
  const plan::LogicalPlan* plan = nullptr;
  std::string label;
  SubmitOptions opts;
  u64 budget_bytes = 0;  // resolved against the server default
  std::chrono::steady_clock::time_point enqueued_at;

  /// Survives QueryContext::Reset() between attempts: a cancel landing
  /// in the Reset window would otherwise be wiped and lost. The driver
  /// re-checks this flag after every Reset.
  std::atomic<bool> cancel_requested{false};
  QueryContext ctx;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  QueryResult result;
};

u64 QueryHandle::id() const { return state_ != nullptr ? state_->id : 0; }

const QueryResult& QueryHandle::Wait() const& {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->done; });
  return state_->result;
}

void QueryHandle::Cancel() {
  if (state_ == nullptr) return;
  // Order matters: raise the persistent flag first, then poke the
  // context. If the driver resets the context concurrently, the flag
  // re-check after Reset still lands the cancel.
  state_->cancel_requested.store(true, std::memory_order_relaxed);
  state_->ctx.Cancel();
}

namespace {

int ResolvePoolThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// A RunResult for a query that failed outside Engine::Run (shed,
/// lease failure, cancelled between attempts).
RunResult FailedRun(Status s) {
  RunResult r;
  r.status = std::move(s);
  r.reason = ReasonFromStatus(r.status);
  return r;
}

}  // namespace

WorkloadServer::WorkloadServer(ServerConfig config)
    : config_(std::move(config)),
      pool_(ResolvePoolThreads(config_.pool_threads)),
      admission_(config_.admission),
      broker_(config_.memory_pool_bytes),
      retry_(config_.retry),
      store_(config_.knowledge.store != nullptr
                 ? config_.knowledge.store
                 : std::make_shared<knowledge::ProfileStore>()) {
  if (!config_.knowledge.store_path.empty()) {
    // A missing/corrupt store file is a cold start, not a failure: the
    // store guarantees it is empty after a failed Load.
    store_loaded_ = store_->Load(config_.knowledge.store_path).ok();
  }
  if (config_.knowledge.strategies) {
    // One book for all drivers: what one query learned about a stage
    // steers the next execution of the same plan, whichever driver gets
    // it. An externally supplied book (session.macro.book) is adopted
    // so tests/benches can observe it directly.
    strategy_book_ = config_.session.macro.book != nullptr
                         ? config_.session.macro.book
                         : std::make_shared<StrategyBook>();
    strategy_book_->Seed(store_->DumpStrategies());
  }
  const int drivers = std::max(1, config_.max_concurrent);
  drivers_.reserve(drivers);
  for (int i = 0; i < drivers; ++i) {
    drivers_.emplace_back([this] { DriverLoop(); });
  }
}

WorkloadServer::~WorkloadServer() { Shutdown(); }

void WorkloadServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : drivers_) {
    if (t.joinable()) t.join();
  }
  // Drivers drained: persist everything learned this run. Best-effort —
  // a failed save costs the next process its warm start, nothing else.
  bool save = false;
  bool merge_strategies = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (strategy_book_ != nullptr && !strategies_merged_) {
      strategies_merged_ = true;
      merge_strategies = true;
    }
    if (!config_.knowledge.store_path.empty() && !store_saved_) {
      store_saved_ = true;
      save = true;
    }
  }
  // The book's live delta (seeded priors excluded — no double count)
  // becomes the store's strategy records, before the save so a
  // persisted store carries them.
  if (merge_strategies) store_->MergeStrategies(strategy_book_->ExportDelta());
  if (save) store_->Save(config_.knowledge.store_path);
}

QueryHandle WorkloadServer::Submit(const plan::LogicalPlan* plan,
                                   std::string label, SubmitOptions opts) {
  auto state = std::make_shared<QueryHandle::State>();
  state->id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  state->plan = plan;
  state->label = std::move(label);
  state->opts = opts;
  state->budget_bytes = opts.budget_bytes != ~0ull
                            ? opts.budget_bytes
                            : config_.default_query_budget;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (shutdown_) {
      FinishRejected(state,
                     Status::Unavailable("server is shutting down"));
      return QueryHandle(std::move(state));
    }
    Status admit = admission_.AdmitOrReject(static_cast<int>(queue_.size()));
    if (!admit.ok()) {
      FinishRejected(state, std::move(admit));
      return QueryHandle(std::move(state));
    }
    state->enqueued_at = std::chrono::steady_clock::now();
    queue_.push_back(state);
  }
  queue_cv_.notify_one();
  return QueryHandle(std::move(state));
}

void WorkloadServer::DriverLoop() {
  // One session per driver, all on the one shared pool. Sessions are
  // reused across the queries this driver serves; set_task_tag relabels
  // the pool phases per query.
  plan::SessionConfig sc = config_.session;
  sc.shared_pool = &pool_;
  if (strategy_book_ != nullptr) {
    sc.macro.enabled = true;
    sc.macro.book = strategy_book_;
  }
  plan::QuerySession session(sc);

  for (;;) {
    std::shared_ptr<QueryHandle::State> q;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      q = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto now = std::chrono::steady_clock::now();
    q->result.queue_wait =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - q->enqueued_at);
    Status age = admission_.CheckQueueAge(q->enqueued_at, now);
    if (!age.ok()) {
      FinishRejected(q, std::move(age));
      continue;
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    Execute(q.get(), &session);
    if (q->result.run.status.ok()) {
      completed_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    Finish(q);
  }
}

void WorkloadServer::Execute(QueryHandle::State* q,
                             plan::QuerySession* session) {
  session->set_task_tag(q->label);
  // Warm start: seed this query's fresh bandit instances from the
  // store's current snapshot (reward priors only — never result
  // bytes). Resolved once per query, so retries see stable priors.
  session->set_warm_start(config_.knowledge.warm_start ? store_->Snapshot()
                                                       : nullptr);
  // Plan cache: reuse (or compile and insert) the stage-DAG for this
  // plan's fingerprint. kSerial never uses staged execution, so it
  // skips the cache entirely. The shared_ptr keeps the entry alive for
  // the whole retry loop even if the cache is cleared concurrently.
  std::shared_ptr<const knowledge::CachedPlan> cached;
  if (config_.knowledge.plan_cache &&
      q->opts.mode != plan::ExecMode::kSerial) {
    cached = plan_cache_.GetOrCompile(*q->plan);
  }
  bool lease_held = false;
  for (int attempt = 1;; ++attempt) {
    q->result.attempts = attempt;
    if (attempt > 1) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(retry_.Backoff(q->id, attempt));
    }
    if (q->cancel_requested.load(std::memory_order_relaxed)) {
      q->result.run = FailedRun(Status::Cancelled("query cancelled"));
      break;
    }
    // One lease spans all attempts (Reset keeps it); a failed
    // acquisition is itself a transient, retryable failure.
    if (!lease_held) {
      Status lease =
          broker_.Acquire(q->budget_bytes, config_.lease_max_wait);
      if (!lease.ok()) {
        const bool retry = retry_.ShouldRetry(lease, attempt);
        q->result.run = FailedRun(std::move(lease));
        if (retry) continue;
        break;
      }
      lease_held = true;
      const u64 bytes = q->budget_bytes;
      q->ctx.AdoptBudgetLease(bytes,
                              [this, bytes] { broker_.Release(bytes); });
    }
    // Fresh attempt: clear error/stop/memory state, re-arm the
    // per-attempt timeout, then re-check cancellation — Reset wipes the
    // stop flag, so a cancel that raced it must be re-applied.
    q->ctx.Reset();
    q->ctx.set_fault_injector(q->opts.injector);
    if (q->opts.timeout.count() > 0) q->ctx.SetTimeout(q->opts.timeout);
    if (q->cancel_requested.load(std::memory_order_relaxed)) {
      q->ctx.Cancel();
    }
    // Graceful degradation: staged-parallel only while a parallel slot
    // is free; otherwise run serial rather than stacking more fan-out
    // onto a saturated pool. Byte-identity across modes (the plan-layer
    // determinism contract) makes this invisible in the results.
    plan::ExecMode mode = q->opts.mode;
    bool slot = false;
    if (mode != plan::ExecMode::kSerial) {
      slot = TryAcquireParallelSlot();
      if (!slot) {
        mode = plan::ExecMode::kSerial;
        if (!q->result.degraded_to_serial) {
          q->result.degraded_to_serial = true;
          degraded_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    RunResult r = session->Run(*q->plan, mode, &q->ctx,
                               cached != nullptr ? &cached->stages : nullptr);
    if (slot) ReleaseParallelSlot();
    const bool retry = retry_.ShouldRetry(r.status, attempt);
    q->result.run = std::move(r);
    if (!retry) break;
  }
  // Learn from success only: a failed attempt's profile is partial and
  // would bias the priors.
  if (config_.knowledge.learn && q->result.run.status.ok()) {
    store_->Merge(session->Profile());
  }
  session->set_warm_start(nullptr);
  q->ctx.ReleaseBudgetLease();
}

void WorkloadServer::FinishRejected(
    const std::shared_ptr<QueryHandle::State>& q, Status why) {
  MA_CHECK(why.code() == StatusCode::kUnavailable);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  q->result.attempts = 0;
  q->result.run = FailedRun(std::move(why));
  Finish(q);
}

void WorkloadServer::Finish(const std::shared_ptr<QueryHandle::State>& q) {
  {
    std::lock_guard<std::mutex> lock(q->mu);
    q->done = true;
  }
  q->cv.notify_all();
}

bool WorkloadServer::TryAcquireParallelSlot() {
  int cur = active_parallel_.load(std::memory_order_relaxed);
  while (cur < config_.max_parallel_queries) {
    if (active_parallel_.compare_exchange_weak(cur, cur + 1,
                                               std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void WorkloadServer::ReleaseParallelSlot() {
  active_parallel_.fetch_sub(1, std::memory_order_acq_rel);
}

ServerStats WorkloadServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.degraded_to_serial = degraded_.load(std::memory_order_relaxed);
  s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.plan_cache_hits = plan_cache_.hits();
  s.plan_cache_misses = plan_cache_.misses();
  s.profiles_merged = store_->profiles_merged();
  s.store_profiles = store_->size();
  if (strategy_book_ != nullptr) {
    s.strategy_decisions = strategy_book_->decisions();
    s.strategy_switches = strategy_book_->switches();
  }
  s.store_strategies = store_->strategies_size();
  return s;
}

}  // namespace ma::serve
