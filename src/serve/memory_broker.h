// MemoryBroker: one global memory pool that leases per-query budgets to
// concurrently running queries. A query acquires its budget before it
// starts executing, adopts it into its QueryContext (AdoptBudgetLease),
// and the broker reclaims the bytes when the context drops the lease —
// on completion, failure, or retry exhaustion.
//
// Grants are strictly FIFO by arrival ("ticket" order): a request never
// overtakes an earlier one even when the earlier request is larger and
// the pool could satisfy the newcomer right now. That head-of-line rule
// is the anti-starvation guarantee — without it, a stream of small
// queries could hold the pool fragmented forever while a big query
// waits at the door. The price (small queries briefly idle behind a big
// one) is bounded by the big query's own wait.
//
// A request larger than the whole pool can never be granted and fails
// kResourceExhausted immediately; a request that times out waiting
// fails kResourceExhausted too — both are transient from the serving
// layer's point of view (retry_policy.h), since completing queries free
// budget continuously.
#ifndef MA_SERVE_MEMORY_BROKER_H_
#define MA_SERVE_MEMORY_BROKER_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <unordered_set>

#include "common/status.h"
#include "common/types.h"

namespace ma::serve {

class MemoryBroker {
 public:
  /// A pool of `total_bytes`. 0 means "no pooling": every acquire is
  /// granted immediately with unlimited budget (lease bookkeeping still
  /// runs, so tests can assert balance either way).
  explicit MemoryBroker(u64 total_bytes);
  MemoryBroker(const MemoryBroker&) = delete;
  MemoryBroker& operator=(const MemoryBroker&) = delete;

  /// Blocks until `bytes` can be leased in FIFO order, then leases
  /// them. Fails kResourceExhausted when `bytes` exceeds the whole pool
  /// (never grantable) or when `max_wait` passes first (pool saturated
  /// too long). Every successful Acquire must be paired with exactly
  /// one Release(bytes) — QueryContext::AdoptBudgetLease does this.
  Status Acquire(u64 bytes,
                 std::chrono::milliseconds max_wait =
                     std::chrono::milliseconds(1000));

  /// Returns `bytes` to the pool and wakes the queue head.
  void Release(u64 bytes);

  u64 total_bytes() const { return total_; }
  /// Bytes currently leased out. Tests assert this returns to zero
  /// after every workload — a nonzero value is a leaked lease.
  u64 leased_bytes() const;
  /// Leases granted / refused so far.
  u64 grants() const;
  u64 refusals() const;
  /// Requests queued for a lease right now (ticket taken, not yet
  /// granted or timed out).
  u64 waiting() const;

 private:
  /// Advances serving_ past tickets that timed out mid-queue.
  void SkipAbandonedLocked();

  const u64 total_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  u64 leased_ = 0;
  u64 next_ticket_ = 0;   // next ticket to hand out
  u64 serving_ = 0;       // ticket currently at the head of the queue
  std::unordered_set<u64> abandoned_;  // mid-queue timeouts to skip
  u64 grants_ = 0;
  u64 refusals_ = 0;
};

}  // namespace ma::serve

#endif  // MA_SERVE_MEMORY_BROKER_H_
