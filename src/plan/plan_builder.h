// PlanBuilder: fluent construction of LogicalPlans with eager schema
// validation. Every step checks column references and expression types
// against the running output schema; the first failure sticks (later
// calls become no-ops) and surfaces through status() / the built plan's
// status, so a malformed query is rejected before any operator exists.
//
//   std::vector<ProjectOperator::Output> outs;
//   outs.push_back({"l_orderkey", Col("l_orderkey")});
//   auto plan = PlanBuilder::Scan(lineitem, {"l_quantity", "l_orderkey"})
//                   .Filter(Lt(Col("l_quantity"), Lit(24)))
//                   .Project(std::move(outs))
//                   .Build();
#ifndef MA_PLAN_PLAN_BUILDER_H_
#define MA_PLAN_PLAN_BUILDER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "plan/logical_plan.h"

namespace ma::plan {

class PlanBuilder;

/// Handle to a subplan bound once with PlanBuilder::BindShared.
/// Copyable — every copy references the same SharedSpec, so any number
/// of SharedRef chains (and plans) can consume the single
/// materialization. An invalid bind (empty or failed sub-builder)
/// yields a handle whose status propagates into any plan that
/// references it, mirroring the builder's first-failure-sticks rule.
class SharedSubplan {
 public:
  bool ok() const { return status_.ok() && spec_ != nullptr; }
  const Status& status() const { return status_; }
  const std::shared_ptr<const SharedSpec>& spec() const { return spec_; }

 private:
  friend class PlanBuilder;
  std::shared_ptr<const SharedSpec> spec_;
  Status status_;
};

class PlanBuilder {
 public:
  /// Starts a plan at a table scan. An empty column list scans every
  /// column.
  static PlanBuilder Scan(const Table* table,
                          std::vector<std::string> columns = {},
                          std::string label = "scan");

  /// Registers `sub` as a shared subplan: executors materialize it
  /// exactly once per run, and every SharedRef of the returned handle
  /// scans that single result — the explicit way to build DAG-shaped
  /// plans (the compiler also deduplicates structurally identical
  /// subtrees automatically). Shared subplans may reference other
  /// shared subplans but may not bind scalars of their own.
  static SharedSubplan BindShared(std::string name, PlanBuilder sub);

  /// Starts a plan at a scan of `shared`'s materialization; its schema
  /// is the shared subplan's output schema.
  static PlanBuilder SharedRef(const SharedSubplan& shared,
                               std::string label = "shared");

  /// Keeps rows satisfying `predicate` (a comparison, string predicate,
  /// AND or OR over the current schema).
  PlanBuilder& Filter(ExprPtr predicate, std::string label = "filter");

  /// Replaces the schema with the named value expressions.
  PlanBuilder& Project(std::vector<ProjectOperator::Output> outputs,
                       std::string label = "project");

  /// Hash-joins `build` (consumed) against this plan as the probe side.
  /// Inner and left outer joins emit spec.probe_outputs then
  /// spec.build_outputs (left outer: missed probe rows carry default —
  /// zero / empty-string — build payloads); semi and anti joins keep
  /// the probe schema unchanged.
  PlanBuilder& HashJoin(PlanBuilder build, HashJoinSpec spec,
                        std::string label = "hashjoin");

  /// Binds the (single-row) result of `sub` as the plan-level scalar
  /// `name`: `column`'s value in that row substitutes for every
  /// ScalarRef(name) used by later Filter/Project/GroupBy expressions.
  /// The subquery runs before the main plan (serially, or as broadcast
  /// constant stages under staged execution); a zero-row result
  /// defaults the scalar to 0. Scalars must be i64 or f64, names must
  /// be unique within the plan, subqueries may not reference scalars
  /// themselves, and the subquery's shape must guarantee at most one
  /// row (a key-less GroupBy or a Limit of 1, possibly under
  /// filters/projections) — checked eagerly like every other builder
  /// rule.
  PlanBuilder& BindScalar(std::string name, PlanBuilder sub,
                          std::string column);

  /// Merge-joins this plan (the unique-key left side) with `right`
  /// (consumed); both must already be sorted ascending on their keys.
  /// Emits spec.left_outputs then spec.right_outputs.
  PlanBuilder& MergeJoin(PlanBuilder right, MergeJoinSpec spec,
                         std::string label = "mergejoin");

  /// Hash aggregation. Group keys must be i64 columns with declared bit
  /// widths summing to <= 63. Emits `group_outputs` (a group key's value,
  /// or any other column's first-seen value per group) then one column
  /// per aggregate. Keys without aggregates make a DISTINCT; a GroupBy
  /// with neither, or with group outputs but no keys, is rejected. f64
  /// SUM/AVG aggregates accumulate in 128-bit fixed point
  /// (order-independent), so compiled plans produce bit-identical
  /// results under serial and parallel execution at any thread count.
  PlanBuilder& GroupBy(std::vector<HashAggOperator::GroupKey> group_keys,
                       std::vector<std::string> group_outputs,
                       std::vector<HashAggOperator::AggSpec> aggs,
                       std::string label = "agg");

  /// Sorts by `keys`; limit = 0 keeps every row.
  PlanBuilder& Sort(std::vector<SortKey> keys, size_t limit = 0,
                    std::string label = "sort");

  /// Keeps the first `n` rows in input order.
  PlanBuilder& Limit(size_t n, std::string label = "limit");

  /// First validation error, or OK.
  const Status& status() const { return status_; }

  /// Output schema of the plan built so far (empty after an error).
  const std::vector<ColumnInfo>& schema() const;

  /// Finishes the plan. The returned LogicalPlan carries the builder's
  /// status; callers must check plan.ok() before compiling.
  LogicalPlan Build();

 private:
  PlanBuilder() = default;

  /// True when building may continue (no prior error, root exists).
  bool Active() { return status_.ok() && root_ != nullptr; }
  void Fail(std::string message);
  /// Moves a consumed sub-builder's scalars into this one (join sides
  /// may bind scalars of their own); false + Fail on a name collision.
  bool AdoptScalars(PlanBuilder* sub);
  /// Pushes `node` (owning the current root as its last child).
  PlanNode* Push(NodeKind kind, std::string label);

  std::unique_ptr<PlanNode> root_;
  /// Scalar subqueries bound so far (moved into the plan by Build()).
  std::vector<ScalarSpec> scalars_;
  /// (name, type) of each bound scalar, for expression checking.
  std::vector<ColumnInfo> scalar_schema_;
  Status status_;
};

// --- Expression checking against a schema (shared with tests) --------------

/// Infers the type of a value expression (column, literal, arithmetic,
/// CASE or substring) against `schema`, mirroring ExprEvaluator's
/// rules: literals — and scalar refs, which substitute to literals —
/// coerce to the non-literal side, otherwise operand types must match
/// exactly, and the left operand must not be a literal. `scalars`
/// lists the (name, type) of every bound plan scalar; null means no
/// scalars are in scope.
Status InferValueType(const Expr& expr,
                      const std::vector<ColumnInfo>& schema,
                      PhysicalType* out,
                      const std::vector<ColumnInfo>* scalars = nullptr);

/// Checks a predicate expression (comparison, string predicate, AND,
/// OR) against `schema` (`scalars` as for InferValueType).
Status CheckPredicate(const Expr& expr,
                      const std::vector<ColumnInfo>& schema,
                      const std::vector<ColumnInfo>* scalars = nullptr);

}  // namespace ma::plan

#endif  // MA_PLAN_PLAN_BUILDER_H_
