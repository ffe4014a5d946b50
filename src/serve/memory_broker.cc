#include "serve/memory_broker.h"

#include <string>

namespace ma::serve {

MemoryBroker::MemoryBroker(u64 total_bytes) : total_(total_bytes) {}

Status MemoryBroker::Acquire(u64 bytes, std::chrono::milliseconds max_wait) {
  std::unique_lock<std::mutex> lock(mu_);
  if (total_ == 0) {  // pooling disabled: grant everything immediately
    leased_ += bytes;
    ++grants_;
    return Status::OK();
  }
  if (bytes > total_) {
    ++refusals_;
    return Status::ResourceExhausted(
        "memory lease of " + std::to_string(bytes) +
        " bytes exceeds the pool (" + std::to_string(total_) + " bytes)");
  }
  const u64 ticket = next_ticket_++;
  const auto deadline = std::chrono::steady_clock::now() + max_wait;
  // FIFO: wait until this ticket reaches the head AND the bytes fit.
  // The head only moves when its ticket is granted or abandons, so
  // later tickets cannot overtake — the anti-starvation rule.
  const bool granted = cv_.wait_until(lock, deadline, [&] {
    return serving_ == ticket && leased_ + bytes <= total_;
  });
  if (!granted) {
    ++refusals_;
    if (serving_ == ticket) {
      // The head gives up: advance past it (and past any earlier
      // abandoners now at the head) so the queue keeps moving.
      ++serving_;
      SkipAbandonedLocked();
      cv_.notify_all();
    } else {
      // Mid-queue timeout: the head must not move, or ordering breaks.
      // Leave a tombstone the head-advance skips when it gets here.
      abandoned_.insert(ticket);
    }
    return Status::ResourceExhausted(
        "memory lease of " + std::to_string(bytes) +
        " bytes timed out waiting on the pool");
  }
  leased_ += bytes;
  ++grants_;
  ++serving_;
  SkipAbandonedLocked();
  cv_.notify_all();
  return Status::OK();
}

void MemoryBroker::SkipAbandonedLocked() {
  while (abandoned_.erase(serving_) > 0) ++serving_;
}

void MemoryBroker::Release(u64 bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MA_CHECK(leased_ >= bytes);
    leased_ -= bytes;
  }
  cv_.notify_all();
}

u64 MemoryBroker::leased_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return leased_;
}

u64 MemoryBroker::grants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grants_;
}

u64 MemoryBroker::refusals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refusals_;
}

u64 MemoryBroker::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ticket_ - serving_ - abandoned_.size();
}

}  // namespace ma::serve
