#include "adapt/primitive_instance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/cycleclock.h"
#include "common/status.h"

namespace ma {

PrimitiveInstance::PrimitiveInstance(const FlavorEntry* entry,
                                     const AdaptiveConfig& config,
                                     std::string label)
    : entry_(entry), label_(std::move(label)), mode_(config.mode) {
  MA_CHECK(entry_ != nullptr && !entry_->flavors.empty());

  // Eligible flavors: the registered default plus every flavor whose set
  // is enabled. Order: default first (index 0), then by registration.
  const FlavorInfo* def = &entry_->flavors[entry_->default_index];
  flavors_.push_back(def);
  for (const FlavorInfo& f : entry_->flavors) {
    if (&f == def) continue;
    if (config.enabled_sets & FlavorSetBit(f.set)) flavors_.push_back(&f);
  }
  // Pre-resolve everything the hot path (or per-call introspection)
  // would otherwise chase pointers for.
  fns_.reserve(flavors_.size());
  for (const FlavorInfo* f : flavors_) fns_.push_back(f->fn);
  for (const FlavorInfo& f : entry_->flavors) {
    affected_sets_ |= FlavorSetBit(f.set);
  }

  switch (mode_) {
    case ExecMode::kDefault:
      fixed_index_ = 0;
      break;
    case ExecMode::kForcedFlavor: {
      const int idx = FindFlavor(config.forced_flavor);
      fixed_index_ = idx >= 0 ? idx : 0;
      break;
    }
    case ExecMode::kHeuristic:
      fixed_index_ = 0;
      break;
    case ExecMode::kAdaptive:
      if (flavors_.size() > 1) {
        policy_ = MakePolicy(config.policy,
                             static_cast<int>(flavors_.size()),
                             config.params);
        chunk_max_ = config.chunk_max > 0 ? config.chunk_max : 1;
        chunk_adaptive_ = config.chunk_adaptive;
      }
      fixed_index_ = 0;
      break;
  }
  usage_.resize(flavors_.size());
}

int PrimitiveInstance::FindFlavor(std::string_view name) const {
  for (size_t i = 0; i < flavors_.size(); ++i) {
    if (flavors_[i]->name == name) return static_cast<int>(i);
  }
  return -1;
}

void PrimitiveInstance::SeedPriors(const std::vector<FlavorPrior>& priors) {
  if (policy_ == nullptr) return;  // non-adaptive or single-flavor
  std::vector<f64> costs(flavors_.size(),
                         std::numeric_limits<f64>::infinity());
  bool any = false;
  for (const FlavorPrior& p : priors) {
    const int f = FindFlavor(p.flavor);
    if (f < 0) continue;  // flavor unknown or not eligible here
    if (!std::isfinite(p.cost_per_tuple) || p.cost_per_tuple <= 0) continue;
    costs[f] = p.cost_per_tuple;
    any = true;
  }
  if (any) policy_->SeedPriors(costs);
}

int PrimitiveInstance::PickFlavor(const PrimCall& call) {
  switch (mode_) {
    case ExecMode::kDefault:
    case ExecMode::kForcedFlavor:
      return fixed_index_;
    case ExecMode::kHeuristic:
      return heuristic_ != nullptr ? heuristic_(heuristic_ctx_, *this, call)
                                   : fixed_index_;
    case ExecMode::kAdaptive:
      return policy_ ? policy_->Choose() : fixed_index_;
  }
  return 0;
}

size_t PrimitiveInstance::Call(PrimCall& call) {
  return CallN(call, call.sel != nullptr ? call.sel_n : call.n);
}

size_t PrimitiveInstance::CallN(PrimCall& call, u64 tuples) {
  if (chunk_left_ > 0) {
    // Chunked exploitation: re-run the settled flavor, skip the rdtsc
    // pair and the policy round-trip entirely.
    --chunk_left_;
    const int f = last_flavor_;
    const size_t produced = fns_[f](call);
    RecordUntimed(f, produced, tuples);
    return produced;
  }
  const int f = PickFlavor(call);
  last_flavor_ = f;
  const u64 t0 = CycleClock::Now();
  const size_t produced = fns_[f](call);
  const u64 dt = CycleClock::Now() - t0;
  Record(f, produced, tuples, dt);
  return produced;
}

void PrimitiveInstance::Record(int flavor, size_t produced, u64 tuples,
                               u64 cycles) {
  if (policy_ != nullptr) {
    policy_->Update(tuples, cycles);
    // Replay-safety: the chunk re-runs `flavor` (== last_flavor_), so it
    // only starts when the policy — in its post-Update state — would
    // itself keep choosing that flavor.
    if (chunk_max_ > 1) {
      if (policy_->ExploitationStable(flavor)) {
        if (!chunk_adaptive_) {
          chunk_k_ = chunk_max_;
        } else if (flavor == last_decision_flavor_) {
          // Same winner re-elected while stable: the regime is calm,
          // double the untimed stretch (up to the cap).
          chunk_k_ = std::min(chunk_k_ * 2, chunk_max_);
        } else {
          // Fresh winner: start with a short chunk so a mistake costs
          // little before the next timed decision.
          chunk_k_ = 2;
        }
        chunk_left_ = chunk_k_ - 1;
      } else {
        // Regime change or active exploration: every call must be a
        // timed decision again until the policy re-settles.
        chunk_k_ = 1;
      }
      last_decision_flavor_ = flavor;
    }
  }
  ++calls_;
  tuples_ += tuples;
  cycles_ += cycles;
  timed_tuples_ += tuples;
  usage_[flavor].calls += 1;
  usage_[flavor].tuples += tuples;
  usage_[flavor].cycles += cycles;
  usage_[flavor].timed_tuples += tuples;
  aph_.Add(tuples, cycles);
  last_produced_ = produced;
  last_live_ = tuples;
}

void PrimitiveInstance::RecordUntimed(int flavor, size_t produced,
                                      u64 tuples) {
  ++calls_;
  tuples_ += tuples;
  usage_[flavor].calls += 1;
  usage_[flavor].tuples += tuples;
  last_produced_ = produced;
  last_live_ = tuples;
}

}  // namespace ma
