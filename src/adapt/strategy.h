// Macro-adaptivity: per-stage execution strategies treated as flavors
// (the paper's method lifted from primitive call sites to plan stages).
// A StrategyInstance is a deterministic explore-then-exploit bandit over
// a small set of arms — per-stage thread count {N, 2, 1} (N = pool
// width), bloom filter on/off per join-build site, morsel size
// {M, M/4, 4M} (M = ParallelConfig::morsel_size) — rewarded by measured
// stage throughput (input tuples per wall-clock stage cycle). A
// StrategyBook holds one instance per (plan fingerprint, stage id,
// decision kind) site and is shared across the sessions of one
// WorkloadServer, so what one query learned about a stage steers the
// next execution of the same plan. StageStrategies is the per-run view
// the stage scheduler talks to: it decides every stage's hints and,
// after a successful run, rewards every decision it made.
//
// Decision cadence is ~one per stage per query — thousands of times
// rarer than primitive calls — so this is NOT vw-greedy (whose
// exploration/exploitation periods assume thousands of calls). The rule
// is deterministic: sweep arms never chosen, then exploit the lowest
// measured cycles/tuple, re-exploring the least-chosen arm every 16th
// decision so a stale estimate is corrected, not trusted forever.
// Determinism matters for testability: the same seeded stats and the
// same reward feed reproduce the same arm sequence.
//
// Contract (docs/ADAPTIVITY.md "Macro-adaptivity"): strategies steer
// time, never bytes. Every arm of every decision kind is byte-neutral
// by construction — worker count, morsel size and bloom filters cannot
// change result tables under the repo's determinism contract — so
// learned strategy state is reward state, exactly like flavor priors.
#ifndef MA_ADAPT_STRATEGY_H_
#define MA_ADAPT_STRATEGY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"

namespace ma {

/// What a strategy decision controls. Values are persisted (ProfileStore
/// format v2) — append new kinds, never renumber.
enum class StrategyKind : u8 {
  kThreadCount = 0,  // workers driving a parallel stage
  kBloom = 1,        // bloom filter on/off for a join-build site
  kMorselSize = 2,   // rows per morsel for a stage's scan
};

/// Stable short name ("threads" / "bloom" / "morsel") used in record
/// keys and reports.
const char* StrategyKindName(StrategyKind kind);

/// One selectable strategy at a site. `value` carries the decision
/// payload (worker count, 0/1 for bloom, rows per morsel); `label` is
/// the stable identity stats are keyed by across processes.
struct StrategyArm {
  std::string label;
  u64 value = 0;
};

/// Persisted knowledge about one strategy site — the new ProfileStore
/// record kind. Lives in adapt/ so the knowledge layer can serialize it
/// without the execution layer depending on the store.
struct StrategyProfile {
  struct Arm {
    std::string label;
    u64 decisions = 0;
    u64 tuples = 0;
    u64 cycles = 0;
  };
  std::string site;  // e.g. "fp0123456789abcdef/s3"
  StrategyKind kind = StrategyKind::kThreadCount;
  std::vector<Arm> arms;
};

/// Deterministic stage-scale bandit over a fixed arm set. Not
/// thread-safe by itself; StrategyBook serializes access.
class StrategyInstance {
 public:
  StrategyInstance(StrategyKind kind, std::vector<StrategyArm> arms);

  /// Picks the arm for the next execution: unswept arm (lowest index)
  /// first, then every 16th decision the least-chosen arm,
  /// otherwise the arm with the lowest measured cycles/tuple (ties and
  /// never-rewarded arms resolve to the lowest index). Increments the
  /// chosen arm's decision count.
  int Decide();

  /// Credits `arm` with a measured execution: `tuples` stage input rows
  /// in `cycles` wall cycles. Called only after a successful run —
  /// failed attempts never reward (their timings are partial).
  void Reward(int arm, u64 tuples, u64 cycles);

  /// Folds persisted stats into the seeded base by arm label. Seeded
  /// arms count as swept, so a warm instance exploits immediately;
  /// unknown labels are ignored (arm sets may evolve).
  void Seed(const StrategyProfile& prior);

  /// Live (post-seed) stats only, for merging back into a store without
  /// double-counting what was seeded in.
  StrategyProfile ExportDelta(const std::string& site) const;

  StrategyKind kind() const { return kind_; }
  const std::vector<StrategyArm>& arms() const { return arms_; }
  u64 decisions() const { return decide_count_; }
  /// How often Decide() returned a different arm than the previous call.
  u64 switches() const { return switches_; }

 private:
  struct ArmStats {
    u64 decisions = 0;
    u64 tuples = 0;
    u64 cycles = 0;
  };

  f64 CostOf(size_t i) const;  // (base+live) cycles per tuple, inf if unmeasured
  u64 TotalDecisions(size_t i) const;

  StrategyKind kind_;
  std::vector<StrategyArm> arms_;
  std::vector<ArmStats> base_;  // seeded from the store
  std::vector<ArmStats> live_;  // accumulated this process
  u64 decide_count_ = 0;
  u64 switches_ = 0;
  int last_arm_ = -1;
};

/// Thread-safe registry of StrategyInstances keyed by
/// (site, decision kind); shared across the driver sessions of one
/// server. Instances are created on first Decide and live as long as
/// the book, so Decision tokens stay valid across queries.
class StrategyBook {
 public:
  /// Token tying a decision to its instance so the reward lands on the
  /// arm that actually ran.
  struct Decision {
    std::string key;  // site + "/" + kind name
    int arm = -1;
    u64 value = 0;  // chosen arm's payload (workers / 0|1 / morsel rows)
  };

  /// Resolves the strategy for `site`/`kind`, creating (and seeding,
  /// when priors are pending) the instance on first use. The first
  /// call's `arms` fix the instance's arm set; later calls reuse it.
  Decision Decide(const std::string& site, StrategyKind kind,
                  const std::vector<StrategyArm>& arms);

  /// Credits the decided arm with a measured (tuples, cycles) outcome.
  void Reward(const Decision& d, u64 tuples, u64 cycles);

  /// Installs persisted profiles as seed priors: instances that already
  /// exist are seeded now, future instances at seed time.
  void Seed(const std::vector<StrategyProfile>& priors);

  /// Live stats of every instance that made at least one decision, in
  /// key order — the store-merge payload (seeded bases excluded).
  std::vector<StrategyProfile> ExportDelta() const;

  u64 decisions() const;
  u64 switches() const;
  size_t size() const;

 private:
  struct Entry {
    std::string site;
    std::unique_ptr<StrategyInstance> instance;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> instances_;
  std::map<std::string, StrategyProfile> pending_seeds_;
};

/// Record/instance key for a (site, kind) pair — shared by the book and
/// the ProfileStore so seeded and exported records line up.
std::string StrategyKey(const std::string& site, StrategyKind kind);

/// Site prefix for one plan: "fp" + 16 hex digits of the plan's STABLE
/// fingerprint hash (plan/plan_fingerprint.h stable_hash — no table
/// pointers, so the key survives process restarts). Stages append
/// "/s<id>".
std::string StrategySitePrefix(u64 stable_hash);

/// Per-stage execution-strategy overrides, resolved once before a stage
/// runs. Defaults mean "use the static configuration". Every field is
/// byte-neutral: worker count and morsel size only redistribute morsels
/// (outputs merge in morsel-index order), and the bloom filter only
/// skips probe rows that would miss anyway.
struct StageHints {
  /// Workers to actually run (clamped to the pool size); 0 = all.
  int workers = 0;
  /// Rows per morsel; 0 = ParallelConfig::morsel_size.
  u64 morsel_size = 0;
  /// Bloom filter on the join build: -1 = follow the spec, 0 = force
  /// off, 1 = force on (left-outer joins never bloom regardless).
  int bloom = -1;
};

/// The strategy side of one staged run: decides every stage's hints
/// from the book, collects each stage's measured input rows and wall
/// cycles, and credits the decided arms in one pass. With a null book
/// (macro-adaptivity off) every stage gets default hints and nothing is
/// recorded.
///
/// Arm sets, in order (the static default first, so a cold site
/// behaves statically; duplicates removed):
///   threads: {t<pool>, t2, t1}
///   morsel:  {m<M>, m<M/4>, m<M*4>}   M = the configured morsel size
///   bloom:   {on, off}                only where `bloom_site`
/// A thread-count or morsel decision is credited with its own stage's
/// rows and cycles. A bloom decision is credited with its build stage
/// plus every stage that depends on it: the filter costs cycles at
/// build time to save them at probe time, so only the combined timing
/// ranks on/off fairly.
class StageStrategies {
 public:
  StageStrategies(StrategyBook* book, std::string site_prefix,
                  size_t num_stages, int pool_threads, u64 morsel_size);

  /// Hints for stage `stage`; `bloom_site` marks a join build the
  /// static path would bloom (not left-outer).
  StageHints Decide(int stage, bool bloom_site);

  /// Records a finished stage: `rows` input tuples in `cycles` wall
  /// cycles; `deps` are the stages it consumed.
  void Measured(int stage, u64 rows, u64 cycles, const std::vector<int>& deps);

  /// Credits every decision of the run, once (a second call credits
  /// nothing). Call only after the whole query succeeded — a failed
  /// run's timings are partial and never teach.
  void Reward();

 private:
  struct Decided {
    StrategyBook::Decision decision;
    int stage = -1;
    bool bloom = false;
  };
  struct Work {
    u64 rows = 0;
    u64 cycles = 0;
  };

  StrategyBook* book_;
  std::string site_prefix_;
  std::vector<StrategyArm> thread_arms_;
  std::vector<StrategyArm> morsel_arms_;
  std::vector<Decided> decided_;
  std::vector<Work> own_;        // per stage: its own rows and cycles
  std::vector<Work> consumers_;  // per stage: summed over its dependents
};

/// Macro-adaptivity wiring for a QuerySession (plan/query_session.h).
struct MacroAdaptConfig {
  /// Off by default: the static heuristics (kAuto row gate, bloom
  /// always-on, fixed morsel size) stay in charge unless a server or
  /// bench opts in.
  bool enabled = false;
  /// Shared across sessions (one book per server); a session creates a
  /// private book when enabled with none supplied.
  std::shared_ptr<StrategyBook> book;
};

}  // namespace ma

#endif  // MA_ADAPT_STRATEGY_H_
