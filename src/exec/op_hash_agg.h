// HashAgg: vectorized hash aggregation. Per input vector it (1) packs the
// group-by key columns into one i64 key, (2) translates keys to dense
// group ids through the insert-check primitive (Figure 4(e)'s
// hash_insertcheck), and (3) scatters aggregate updates into accumulator
// arrays through aggr primitives — all three steps adaptive.
//
// Group-by key columns must be i64 (dictionary codes, dates, ids) and
// declare a bit width; widths must sum to <= 63 so packing is exact.
// With no group keys the operator computes global aggregates (group 0).
//
// Open() arms the group table's run mode (see GroupTable) on the first
// group key: while that key does not decrease from row to row — lineitem
// arrives in l_orderkey order — the table holds only the current run's
// groups instead of all of them, and key-sorted emission sorts only
// inside each run. The first decrease turns it into a plain hash table
// for the rest of the input. Gids, accumulator updates and emission
// order are the same in both modes, so the bytes are too.
//
// Merge() folds another operator's drained groups into this one. The
// parallel executor merges its per-worker pre-aggregations that way, so
// serial and staged aggregates are emitted by the same Next().
#ifndef MA_EXEC_OP_HASH_AGG_H_
#define MA_EXEC_OP_HASH_AGG_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "exec/operator.h"
#include "prim/hash_table.h"

namespace ma {

class HashAggOperator : public Operator {
 public:
  struct GroupKey {
    std::string column;  // i64 column in the child's output
    int bits = 32;       // values must fit in this many bits
  };

  struct AggSpec {
    std::string fn;        // "sum" | "min" | "max" | "count" | "avg"
    ExprPtr arg;           // value expression; null for count(*)
    std::string out_name;  // output column name
    /// Argument type used when the input is empty (no batch to infer
    /// from), so the output column type is stable. Most TPC-H aggregates
    /// are over f64 measures; integer sums must say so.
    PhysicalType type_hint = PhysicalType::kF64;
    /// Accumulate f64 sums (and the sum half of avg) in 128-bit fixed
    /// point (aggr_sumfix_f64_col): order-independent, so the emitted
    /// value is bit-identical no matter how rows were batched or split
    /// across threads. Set by the plan compiler; hand-built trees keep
    /// the classic rounded-f64 accumulator.
    bool exact_f64_sum = false;

    /// Deep copy (the expression tree cloned) — every executor that
    /// instantiates per-worker or per-compilation operator trees from
    /// one spec list goes through here, so a new field added above is
    /// carried by all of them.
    AggSpec Clone() const {
      AggSpec s;
      s.fn = fn;
      s.arg = arg != nullptr ? arg->Clone() : nullptr;
      s.out_name = out_name;
      s.type_hint = type_hint;
      s.exact_f64_sum = exact_f64_sum;
      return s;
    }
  };

  /// `group_outputs`: child columns materialized per group (first-seen
  /// row values) and emitted alongside the aggregates — e.g. the string
  /// columns whose codes are grouped on.
  HashAggOperator(Engine* engine, OperatorPtr child,
                  std::vector<GroupKey> group_keys,
                  std::vector<std::string> group_outputs,
                  std::vector<AggSpec> aggs, std::string label = "agg");

  Status Open() override;
  bool Next(Batch* out) override;

  u32 num_groups() const { return table_.num_groups(); }
  /// True while every input row so far arrived in first-group-key order,
  /// so the group table is still in run mode.
  bool in_run_mode() const { return table_.in_run_mode(); }

  /// Emit groups in ascending packed-key order instead of first-seen
  /// order. The plan compiler sets this on serially-compiled GroupBy
  /// nodes, and the parallel executor on its merged pre-aggregation, so
  /// a plan's result row order is the same on both paths even without a
  /// Sort above the aggregation. The order is computed by the first
  /// Next(), so it covers merged groups too; call before that.
  void set_emit_key_sorted(bool sorted) { emit_key_sorted_ = sorted; }

  /// True once Open() consumed a live row. An operator that saw none
  /// typed its accumulators from the specs' type_hint and holds only
  /// identity values (no groups, or the one global group).
  bool saw_rows() const { return saw_rows_; }

  /// Folds `other`'s groups into this operator: the merge step of
  /// thread-local pre-aggregation. Both operators ran the same specs,
  /// drained their input in Open() and saw rows; Next() has not run yet.
  /// Each of `other`'s groups, in gid order, finds or inserts its key
  /// here, and its accumulators fold into that group: sums, counts and
  /// avg parts add (exact f64 sums in i128), mins and maxes combine. A
  /// group new to this operator takes `other`'s first-seen group
  /// outputs. Calls no primitive, so profiles are unchanged.
  void Merge(const HashAggOperator& other);

 private:
  struct AggState {
    AggSpec spec;
    PhysicalType arg_type = PhysicalType::kI64;
    PrimitiveInstance* update = nullptr;
    PrimitiveInstance* count_update = nullptr;  // for avg
    std::vector<i64> acc_i;
    std::vector<f64> acc_f;
    std::vector<i128> acc_fx;  // fixed-point f64 sums (exact mode)
    std::vector<i64> count;    // avg denominator
    bool is_float() const { return arg_type == PhysicalType::kF64; }
    bool exact() const {
      return spec.exact_f64_sum && is_float() &&
             (spec.fn == "sum" || spec.fn == "avg");
    }
  };

  void ConsumeBatch(Batch& batch);
  /// Grows `st`'s accumulators (typed by its bound argument type) to
  /// the current group count; ResizeAccumulators does so for all.
  void ResizeAccumulator(AggState* st) const;
  void ResizeAccumulators();
  /// Fills emit_order_ when groups must come out key-sorted and the
  /// gids are not already in key order.
  void PlanEmitOrder();
  /// Charges the growth of the aggregation state (group table +
  /// accumulators + group-output columns) since the last charge against
  /// the query's memory budget ("alloc/agg"). Only called when the
  /// context has accounting enabled.
  Status ChargeAggMemory(QueryContext* ctx);

  OperatorPtr child_;
  std::vector<GroupKey> group_keys_;
  std::vector<std::string> group_output_names_;
  std::vector<AggSpec> agg_specs_;
  std::string label_;
  ExprEvaluator eval_;

  GroupTable table_;
  PrimitiveInstance* insertcheck_ = nullptr;
  std::vector<AggState> aggs_;
  /// Stored per-group values of group_outputs (first-seen).
  std::vector<std::unique_ptr<Column>> group_out_cols_;
  /// Scratch: packed keys and group ids for the current vector.
  std::vector<i64> key_scratch_;
  std::vector<u32> gid_scratch_;
  u32 emit_pos_ = 0;
  /// Aggregation-state bytes already charged to the query context.
  u64 charged_bytes_ = 0;
  bool input_done_ = false;
  bool saw_rows_ = false;
  bool emit_key_sorted_ = false;
  /// Emission order (gid per output row) when emit_key_sorted_; empty
  /// means first-seen order (the contiguous fast path).
  std::vector<u32> emit_order_;
};

}  // namespace ma

#endif  // MA_EXEC_OP_HASH_AGG_H_
