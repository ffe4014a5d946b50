// Engine: owns the runtime configuration (vector size, adaptivity mode,
// bandit parameters, heuristic thresholds), creates and tracks every
// PrimitiveInstance of a query, and runs operator trees to completion
// with stage-level profiling (Table 1's preprocess/execute/primitives
// breakdown).
#ifndef MA_EXEC_ENGINE_H_
#define MA_EXEC_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "adapt/heuristics.h"
#include "adapt/primitive_instance.h"
#include "adapt/warm_start.h"
#include "exec/query_context.h"
#include "registry/primitive_dictionary.h"
#include "storage/table.h"

namespace ma {

class Operator;

struct EngineConfig {
  size_t vector_size = kDefaultVectorSize;
  AdaptiveConfig adaptive;
  HeuristicThresholds heuristics;
  /// Warm-start priors from the cross-query knowledge store; null = cold
  /// start. Consulted only in kAdaptive mode, at instance creation, by
  /// (label, signature). Shared and immutable: many engines (one per
  /// worker thread) read the same snapshot concurrently.
  std::shared_ptr<const WarmStartSnapshot> warm_start;
};

/// Cycle counts per execution stage, as in Table 1 of the paper.
struct StageProfile {
  u64 preprocess = 0;   // operator open/bind (plan preparation)
  u64 execute = 0;      // the pull loop, everything inside Run
  u64 primitives = 0;   // cycles inside primitive functions
  u64 postprocess = 0;  // result materialization / profile capture
};

struct RunResult {
  std::unique_ptr<Table> table;  // null when run without materialization
  StageProfile stages;
  u64 rows_emitted = 0;
  u64 total_cycles = 0;
  f64 seconds = 0;
  /// Terminal status of the run: OK on success, the query's first error
  /// otherwise (cancellation, deadline, budget overrun, operator
  /// failure). A failed run's table is partial or null — never use it.
  Status status;
  /// Why the run ended, derived from `status` (kOk on success).
  TerminationReason reason = TerminationReason::kOk;
  bool ok() const { return status.ok(); }
};

class Engine {
 public:
  explicit Engine(EngineConfig config = EngineConfig(),
                  PrimitiveDictionary* dict =
                      &PrimitiveDictionary::Global());

  const EngineConfig& config() const { return config_; }
  size_t vector_size() const { return config_.vector_size; }

  /// Creates a primitive instance for `signature`, registered in the
  /// engine profile under `label`. Installs heuristics automatically in
  /// heuristic mode (`bloom_bytes` is consulted for bloom probes).
  PrimitiveInstance* NewInstance(std::string_view signature,
                                 std::string label, u64 bloom_bytes = 0);

  /// All instances created so far (the per-query profile).
  const std::vector<std::unique_ptr<PrimitiveInstance>>& instances() const {
    return instances_;
  }

  /// Sum of cycles spent inside primitives across all instances.
  u64 TotalPrimitiveCycles() const;

  /// Runs an operator tree to completion. With `materialize` false the
  /// result batches are consumed but not copied into a table — the
  /// Vectorwise situation where results stream to a client (used by the
  /// Table 1 stage-breakdown experiment).
  RunResult Run(Operator& root, bool materialize = true);

  /// Drops all instances/profiling (e.g. between benchmark repetitions).
  void ResetProfile() { instances_.clear(); }

  /// The query context governing runs on this engine — never null.
  /// Without an external context (set_context) the engine uses a
  /// private fallback that Run() resets per run, so ungoverned
  /// hand-built trees stay self-contained.
  QueryContext* context() const { return context_; }

  /// Installs the per-query context (not owned); null restores the
  /// private fallback. QuerySession/ParallelExecutor call this per run.
  void set_context(QueryContext* ctx) {
    context_ = ctx != nullptr ? ctx : &own_context_;
  }

  /// Installs (or clears, with null) the warm-start snapshot consulted
  /// by subsequent NewInstance calls. Existing instances are unchanged.
  void set_warm_start(std::shared_ptr<const WarmStartSnapshot> ws) {
    config_.warm_start = std::move(ws);
  }

 private:
  EngineConfig config_;
  PrimitiveDictionary* dict_;
  std::vector<std::unique_ptr<PrimitiveInstance>> instances_;
  QueryContext own_context_;
  QueryContext* context_ = &own_context_;
};

}  // namespace ma

#endif  // MA_EXEC_ENGINE_H_
