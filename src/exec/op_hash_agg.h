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
  /// nodes so a plan's result row order matches the parallel merge
  /// (which unions per-worker groups by sorted key) even without a
  /// Sort above the aggregation. Call before Open().
  void set_emit_key_sorted(bool sorted) { emit_key_sorted_ = sorted; }

  /// Read-only view of the pre-aggregation state once Open() has
  /// drained the input — what a morsel-driven parallel executor merges
  /// across worker threads ("thread-local pre-aggregation"). Sums,
  /// counts, mins and maxes merge exactly; avg merges from its sum and
  /// count parts (which is why the view exposes them separately rather
  /// than the emitted ratio). partial() takes the group table out of
  /// run mode, so the view's GroupTable::Find works.
  struct Partial {
    struct Agg {
      const std::string* fn = nullptr;        // "sum" | ... | "avg"
      const std::string* out_name = nullptr;
      bool is_float = false;
      /// True when is_float was inferred from actual input data; false
      /// when this operator drained nothing and fell back to the
      /// type_hint. Mergers must trust a data-typed partial over a
      /// hint-typed one (a starved worker's hint may disagree).
      bool typed_from_data = false;
      /// True when this aggregate accumulates in fixed point (acc_fx);
      /// mergers must then fold acc_fx, not acc_f.
      bool exact = false;
      const std::vector<i64>* acc_i = nullptr;  // indexed by gid
      const std::vector<f64>* acc_f = nullptr;
      const std::vector<i128>* acc_fx = nullptr;  // exact f64 sums
      const std::vector<i64>* count = nullptr;    // avg only
    };
    const GroupTable* groups = nullptr;  // packed key per dense gid
    std::vector<Agg> aggs;
    const std::vector<std::unique_ptr<Column>>* group_out_cols = nullptr;
  };
  Partial partial();

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
  void ResizeAccumulators();
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
  bool emit_key_sorted_ = false;
  /// Emission order (gid per output row) when emit_key_sorted_; empty
  /// means first-seen order (the contiguous fast path).
  std::vector<u32> emit_order_;
};

}  // namespace ma

#endif  // MA_EXEC_OP_HASH_AGG_H_
