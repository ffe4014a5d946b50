// PrimitiveInstance: one use of a primitive in one place of a query plan
// (paper §1.1 "Primitive Instances"). Different instances of the same
// primitive see different data streams, so each carries its own profiling
// state, Approximated Performance History, and bandit policy. All
// primitive calls in the engine — from the expression evaluator and from
// operators alike — go through PrimitiveInstance::Call, which is where
// Micro Adaptivity happens: choose a flavor, time the call with rdtsc,
// feed the observation back to the policy.
//
// The dispatch path is kept flat and branch-light: eligible flavors are
// resolved once at construction into a bare function-pointer table, the
// heuristic hook is a raw function pointer (no std::function), and in
// chunked mode (AdaptiveConfig::chunk_max > 1) exploitation calls re-run
// the last-chosen flavor without the rdtsc pair or policy round-trip —
// only decision calls are timed, amortizing adaptivity overhead across
// the chunk (the paper's §3.2 argument that profiling must cost well
// under the work it steers). The chunk length K itself adapts: doubling
// while consecutive stable decisions keep electing the same flavor,
// snapping back to 1 when the winner changes or exploration resumes.
//
// Instances are deliberately thread-confined: all bandit state, chunk
// state and usage counters live in the instance, and nothing here writes
// shared memory — morsel-driven parallelism gives each worker thread its
// own instance set and merges the profiles afterwards.
#ifndef MA_ADAPT_PRIMITIVE_INSTANCE_H_
#define MA_ADAPT_PRIMITIVE_INSTANCE_H_

#include <memory>
#include <string>
#include <vector>

#include "adapt/aph.h"
#include "adapt/bandit.h"
#include "adapt/warm_start.h"
#include "common/cycleclock.h"
#include "registry/flavor.h"

namespace ma {

/// How the engine picks flavors at runtime.
enum class ExecMode : u8 {
  kDefault,      // always the registered default flavor
  kForcedFlavor, // a named flavor wherever available, else the default
  kHeuristic,    // per-call rule-based choice (paper §4.2 "Heuristics")
  kAdaptive,     // bandit policy (Micro Adaptivity)
};

/// Bitmask over FlavorSetId used to restrict which flavor sets are
/// eligible, so experiments can enable e.g. only the branch set.
constexpr u32 FlavorSetBit(FlavorSetId id) {
  return 1u << static_cast<u32>(id);
}
constexpr u32 kAllFlavorSets = 0xffffffffu;

/// Runtime adaptivity configuration shared by all instances of a query.
struct AdaptiveConfig {
  ExecMode mode = ExecMode::kAdaptive;
  /// For kForcedFlavor: flavor name to force where registered.
  std::string forced_flavor;
  PolicyKind policy = PolicyKind::kVwGreedy;
  PolicyParams params;
  /// Which flavor sets are eligible (default flavors always are).
  u32 enabled_sets = kAllFlavorSets;
  /// Chunked exploitation (kAdaptive only): after a timed decision call
  /// whose policy reports a settled exploitation phase, re-run the same
  /// flavor untimed for K-1 calls before consulting the policy again.
  /// K adapts per instance: it starts small, doubles on every
  /// consecutive stable decision that re-elects the same flavor (up to
  /// chunk_max), and collapses back to per-call dispatch the moment the
  /// winner changes or the policy re-enters exploration — so long
  /// chunks only ever cover calm regimes. chunk_max = 1 disables
  /// chunking (classic per-call adaptivity).
  u64 chunk_max = 1;
  /// false pins K at chunk_max whenever the policy is stable (the fixed-K
  /// behavior), for experiments that need an exact timing cadence.
  bool chunk_adaptive = true;
};

class PrimitiveInstance {
 public:
  /// POD parameter block for heuristic hooks, owned by the instance so
  /// installers need neither allocation nor captures. Field meaning is
  /// up to the installed heuristic (see adapt/heuristics.cc).
  struct HeuristicParams {
    int flavor = 0;
    f64 lo = 0;
    f64 hi = 0;
  };

  /// Per-call heuristic hook: returns the index into `flavors()` to use
  /// for this call. A raw function pointer plus context — installed by
  /// operators when mode is kHeuristic.
  using HeuristicFn = int (*)(const void* ctx, const PrimitiveInstance& self,
                              const PrimCall& call);

  PrimitiveInstance(const FlavorEntry* entry, const AdaptiveConfig& config,
                    std::string label);

  /// Executes one call: picks a flavor, measures cycles, updates the
  /// policy and profiling. Returns the primitive's return value.
  size_t Call(PrimCall& call);

  /// Like Call but with an explicit tuple count for the cost metric
  /// (probe/mergejoin calls where live positions != processed tuples).
  size_t CallN(PrimCall& call, u64 tuples);

  /// Like CallN, but the tuple count is computed *after* the call from
  /// the produced count (cursor-style kernels such as mergejoin, where
  /// the work done is only known once the call returns).
  template <typename F>
  size_t CallDeferred(PrimCall& call, F&& tuples_of_produced) {
    if (chunk_left_ > 0) {
      --chunk_left_;
      const int f = last_flavor_;
      const size_t produced = fns_[f](call);
      RecordUntimed(f, produced, tuples_of_produced(produced));
      return produced;
    }
    const int f = PickFlavor(call);
    last_flavor_ = f;
    const u64 t0 = CycleClock::Now();
    const size_t produced = fns_[f](call);
    const u64 dt = CycleClock::Now() - t0;
    Record(f, produced, tuples_of_produced(produced), dt);
    return produced;
  }

  void set_heuristic(HeuristicFn fn, const void* ctx = nullptr) {
    heuristic_ = fn;
    heuristic_ctx_ = ctx;
  }
  HeuristicParams& heuristic_params() { return heuristic_params_; }

  // --- introspection ---
  const std::string& label() const { return label_; }
  const FlavorEntry* entry() const { return entry_; }
  /// Eligible flavors (subset of entry()->flavors).
  const std::vector<const FlavorInfo*>& flavors() const { return flavors_; }
  int num_flavors() const { return static_cast<int>(flavors_.size()); }
  /// Index into flavors() of the last flavor used.
  int last_flavor() const { return last_flavor_; }
  /// Output selectivity of the previous call (produced / live input);
  /// 1.0 before the first call. What the selection heuristics key on.
  f64 last_output_selectivity() const {
    return last_live_ == 0
               ? 1.0
               : static_cast<f64>(last_produced_) / last_live_;
  }
  int FindFlavor(std::string_view name) const;

  u64 calls() const { return calls_; }
  u64 tuples() const { return tuples_; }
  /// Cycles measured inside primitive calls. In chunked mode only the
  /// decision calls are timed, so this is a sample, not a census;
  /// MeanCostPerTuple stays unbiased by dividing through the tuples of
  /// exactly those timed calls.
  u64 cycles() const { return cycles_; }
  f64 MeanCostPerTuple() const {
    return timed_tuples_ == 0
               ? 0.0
               : static_cast<f64>(cycles_) / timed_tuples_;
  }
  const Aph& aph() const { return aph_; }
  /// Per-eligible-flavor cumulative (calls, tuples, cycles).
  struct FlavorUsage {
    u64 calls = 0;
    u64 tuples = 0;
    u64 cycles = 0;
    /// Tuples of the TIMED calls only. In chunked mode most calls skip
    /// the rdtsc pair, so cycles/tuples under-estimates cost;
    /// cycles/timed_tuples is the unbiased per-flavor mean the
    /// knowledge store turns into warm-start priors.
    u64 timed_tuples = 0;
  };
  const std::vector<FlavorUsage>& usage() const { return usage_; }

  /// Installs warm-start priors on this instance's bandit: each prior's
  /// flavor name is resolved against the eligible flavors() (unknown or
  /// disabled flavors are skipped — a store written under a different
  /// flavor-set configuration degrades gracefully). No-op outside
  /// kAdaptive mode or for single-flavor instances. Reward state only —
  /// results are unaffected by construction (see adapt/warm_start.h).
  void SeedPriors(const std::vector<FlavorPrior>& priors);

  /// Current chunked-dispatch length K (1 = per-call dispatch). Grows
  /// while the winning flavor is stable, shrinks on regime change.
  u64 current_chunk_k() const { return chunk_k_; }

  /// True if any registered flavor of this primitive belongs to `set` —
  /// i.e. this instance is "affected by" the flavor set in the sense of
  /// Tables 6-10. Mask precomputed at construction.
  bool AffectedBy(FlavorSetId set) const {
    return (affected_sets_ & FlavorSetBit(set)) != 0;
  }

  BanditPolicy* policy() { return policy_.get(); }

 private:
  int PickFlavor(const PrimCall& call);
  void Record(int flavor, size_t produced, u64 tuples, u64 cycles);
  /// Bookkeeping for chunked exploitation calls (no timing, no policy
  /// feedback, no APH sample).
  void RecordUntimed(int flavor, size_t produced, u64 tuples);

  const FlavorEntry* entry_;
  std::string label_;
  ExecMode mode_;
  std::vector<const FlavorInfo*> flavors_;
  /// Flat dispatch table: fns_[i] == flavors_[i]->fn. The hot path
  /// touches only this contiguous array.
  std::vector<PrimFn> fns_;
  u32 affected_sets_ = 0;
  int fixed_index_ = 0;
  std::unique_ptr<BanditPolicy> policy_;
  HeuristicFn heuristic_ = nullptr;
  const void* heuristic_ctx_ = nullptr;
  HeuristicParams heuristic_params_;

  u64 chunk_max_ = 1;
  bool chunk_adaptive_ = true;
  /// Current chunk length K; grows geometrically while the same flavor
  /// keeps winning stable decisions, resets to 1 on a regime change.
  u64 chunk_k_ = 1;
  u64 chunk_left_ = 0;
  int last_decision_flavor_ = -1;

  int last_flavor_ = 0;
  u64 last_produced_ = 0;
  u64 last_live_ = 0;
  u64 calls_ = 0;
  u64 tuples_ = 0;
  u64 cycles_ = 0;
  u64 timed_tuples_ = 0;
  Aph aph_;
  std::vector<FlavorUsage> usage_;
};

}  // namespace ma

#endif  // MA_ADAPT_PRIMITIVE_INSTANCE_H_
