// Compiler: lowers a LogicalPlan onto an executor.
//
// One lowering function, Lower(), turns plan nodes into operators. The
// serial executor lowers the whole plan with it; the staged executor
// lowers each stage's pipeline fragment with it, once per worker,
// substituting the worker's morsel scan for the fragment's leaf and
// probing the stage DAG's shared join builds.
//
// Serial: CompileSerial() produces one fresh operator tree bound to an
// Engine, ready for Engine::Run. Expressions are cloned, so the same
// plan can be compiled any number of times (across engines, modes and
// repetitions).
//
// Staged parallel: BuildStagePlan() fragments the plan into a StagePlan
// — a topologically ordered DAG of stages. Each stage is one of
//   - a pipeline fragment (scan → filter/project/hash-join-probe chain),
//     run morsel-parallel with per-worker operator trees,
//   - a hash-join build (shared immutable SharedJoinBuild),
//   - an aggregation (thread-local pre-aggregation + packed-key merge),
//   - a sort / limit (a parallel TopN over large inputs, otherwise
//     serial over its — materialized — input), or
//   - a merge join (serial over two base tables or materialized inputs).
// A stage's input is either a base-table scan leaf or the materialized
// output of an earlier stage: every stage but the last writes its
// result into an IntermediateTable that downstream stages scan exactly
// like a base table (storage/intermediate.h). This is what lets
// aggregations feed joins, sorts feed merge joins, and subquery results
// be re-scanned. The last stage computes the plan root and its output
// is the query result: a top Sort or Limit is an ordinary sort stage,
// and a filter or project above a breaker is a pipeline stage scanning
// the breaker's intermediate.
//
// A merge join's inputs must arrive sorted ascending on the join key;
// plans that need sorting say so with an explicit Sort node, which both
// executors lower. Each merge input is a base-table scan or the stage
// materializing it, and MergeJoinOperator checks the order while it
// drains each input. The staged kMergeJoin stage runs that same
// operator, so an unsorted input fails with the same InvalidArgument
// on both paths and execution mode never changes semantics.
//
// Determinism carries across stage boundaries: pipeline stages merge
// per-morsel outputs in morsel order, aggregation stages emit groups in
// packed-key order with fixed-point f64 sums, TopN merges per-worker
// heaps under the serial sort's comparator, and sort/merge stages run
// serially over inputs that are themselves byte-identical between
// serial and parallel execution — so the whole DAG is.
#ifndef MA_PLAN_COMPILER_H_
#define MA_PLAN_COMPILER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/engine.h"
#include "exec/operator.h"
#include "exec/parallel/parallel_executor.h"
#include "plan/logical_plan.h"

namespace ma::plan {

/// Value of one evaluated plan scalar (a scalar subquery's single-row
/// result), substituted as a literal for every ScalarRef of that name
/// when expressions are compiled.
struct ScalarValue {
  PhysicalType type = PhysicalType::kI64;
  i64 i = 0;
  f64 f = 0;
};

/// name -> value of every scalar the current compilation may reference.
using ScalarBindings = std::unordered_map<std::string, ScalarValue>;

/// Serial execution of a shared subplan (SharedSpec) materializes its
/// result once; every kSharedScan consumer in the compiled tree co-owns
/// that table through this map's shared_ptr (the operator tree outlives
/// CompileSerial's local map).
using SharedTables =
    std::unordered_map<const SharedSpec*, std::shared_ptr<Table>>;

/// Reads a scalar from its result table into `out`: row 0 of `column`,
/// or the type's zero when the table is empty (threshold semantics — an
/// empty aggregate result means "nothing qualifies"). More than one
/// row, a missing column or a type mismatch is a malformed query, not
/// an engine invariant: reported as InvalidArgument.
Status ReadScalarValue(const Table& t, const std::string& column,
                       PhysicalType type, ScalarValue* out);

/// Rebuilds an empty result from the plan's declared output `schema`.
/// The serial drain learns column names and types only from emitted
/// batches, so a zero-row query yields a zero-COLUMN table there, while
/// staged materialization emits typed empty columns. Every entry point
/// that returns a plan's result passes it through here, so all paths
/// agree byte for byte on empty results too.
RunResult WithDeclaredSchema(const std::vector<ColumnInfo>& schema,
                             RunResult r);

/// Where a stage reads from: a base-table scan leaf of the plan, or the
/// materialized output of an earlier stage.
struct StageInput {
  const PlanNode* scan = nullptr;  // base-table kScan leaf (stage < 0)
  int stage = -1;                  // producing stage id (scan == null)

  bool from_stage() const { return stage >= 0; }
};

struct Stage {
  enum class Kind : u8 {
    kPipeline,   // streaming fragment, morsel-parallel
    kJoinBuild,  // shared hash-join build, morsel-parallel
    kAggregate,  // pipeline + GroupBy breaker, pre-agg + merge
    kSort,       // sort/limit over one input; parallel TopN if large
    kMergeJoin,  // merge join over two base or materialized inputs, serial
  };

  int id = 0;
  Kind kind = Kind::kPipeline;
  /// Pipeline scan leaf (kPipeline/kJoinBuild/kAggregate), sort input
  /// (kSort), or the left side (kMergeJoin).
  StageInput input;
  /// Right side of a kMergeJoin.
  StageInput right;
  /// Fragment root and the node replaced by the leaf operator when the
  /// fragment is compiled per worker (kPipeline/kJoinBuild/kAggregate).
  const PlanNode* root = nullptr;
  const PlanNode* stop = nullptr;
  const PlanNode* join = nullptr;   // kJoinBuild: the probing kHashJoin
  const PlanNode* agg = nullptr;    // kAggregate: the kGroupBy node
  const PlanNode* merge = nullptr;  // kMergeJoin node
  std::vector<SortKey> sort_keys;   // kSort (empty = keep input order)
  size_t limit = 0;                 // kSort
  /// True → output goes to an IntermediateTable scanned by later
  /// stages; false → this is the last stage, its output is the result.
  bool materialize = false;
  /// Declared schema of the materialized output.
  std::vector<ColumnInfo> out_schema;
  /// Stage ids that must complete before this stage runs. The stages
  /// vector itself is in topological order, so executing front to back
  /// always satisfies these.
  std::vector<int> deps;
  std::string label;
};

/// A fragmented plan: stages in execution (topological) order. The
/// last stage computes the plan root; its output is the result.
struct StagePlan {
  /// A scalar subquery's landing spot: stage `stage` materializes its
  /// (single-row) result, and the scheduler reads `column` out of that
  /// intermediate into the run's ScalarBindings — the broadcast
  /// constant every later stage's compiled expressions consume.
  struct ScalarStage {
    std::string name;
    std::string column;
    PhysicalType type = PhysicalType::kI64;
    int stage = -1;
  };

  std::vector<Stage> stages;
  std::vector<ScalarStage> scalars;

  /// Indented stage listing for diagnostics and docs.
  std::string Describe() const;
};

class Compiler {
 public:
  /// Map from a kHashJoin plan node to the shared build the executor
  /// produced for it (filled stage by stage during a parallel run).
  using BuildMap =
      std::unordered_map<const PlanNode*, const SharedJoinBuild*>;

  /// Lowers the whole plan into a serial operator tree on `engine`.
  /// Scalar subqueries are evaluated here, on `engine`, in declaration
  /// order (compiling a plan with scalars executes its subqueries —
  /// they are inputs to the main tree's expressions, not part of it).
  /// Returns null when the plan is invalid or a subquery run fails; the
  /// error is recorded on engine->context() for the caller to report.
  static OperatorPtr CompileSerial(const LogicalPlan& plan, Engine* engine);

  /// Fragments `plan` into a stage DAG for the staged parallel
  /// executor: scalar-subquery stages first (each materializing its
  /// single-row result; see StagePlan::scalars), then the main spine.
  /// Returns non-OK only for invalid plans (every valid plan shape
  /// fragments); QuerySession then falls back to serial.
  static Status BuildStagePlan(const LogicalPlan& plan, StagePlan* out);

  /// What Lower() substitutes while it walks a subtree.
  struct LowerEnv {
    Engine* engine = nullptr;
    /// Values for every ScalarRef in the subtree.
    const ScalarBindings* scalars = nullptr;
    /// Evaluated shared subplans, for kSharedScan leaves.
    const SharedTables* shared = nullptr;
    /// Recursion stops at `stop`, which lowers to `leaf` (a worker's
    /// MorselScanOperator for a staged fragment).
    const PlanNode* stop = nullptr;
    OperatorPtr leaf = nullptr;
    /// A kHashJoin found here probes its shared build instead of
    /// lowering its build child.
    const BuildMap* builds = nullptr;
  };

  /// Lowers the subtree rooted at `node` onto env->engine. Used for the
  /// whole serial tree and for every staged pipeline fragment.
  static OperatorPtr Lower(const PlanNode* node, LowerEnv* env);
};

/// Clones `expr` with every ScalarRef replaced by a literal holding its
/// bound value — the substitution step of plan-level scalar folding.
ExprPtr BindScalarRefs(const Expr& expr, const ScalarBindings& scalars);

/// Clones aggregate specs with their arguments' ScalarRefs bound (for
/// the serial HashAggOperator and the parallel aggregation stage).
std::vector<HashAggOperator::AggSpec> CloneAggs(
    const std::vector<HashAggOperator::AggSpec>& aggs,
    const ScalarBindings& scalars);

}  // namespace ma::plan

#endif  // MA_PLAN_COMPILER_H_
