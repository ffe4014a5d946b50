// Sort / TopN / Limit: materializes its input, sorts a row permutation by
// the key columns, gathers the rows in that order into a table and emits
// it through a ScanOperator. Sorting the (small) final result is classic
// post-processing, so this operator is deliberately not primitive-based —
// TPC-H ORDER BY outputs are tiny next to the scans, joins and
// aggregations below them.
//
// SortOperator and the parallel TopN path (ParallelExecutor::RunTopN)
// share the order (SortRowsLess) and the gather (GatherRows), which is
// what makes their outputs byte-identical for every column type.
#ifndef MA_EXEC_OP_SORT_H_
#define MA_EXEC_OP_SORT_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/op_scan.h"
#include "exec/operator.h"

namespace ma {

struct SortKey {
  std::string column;
  bool desc = false;
};

/// The one sort order of the engine: true when row `a` sorts strictly
/// before row `b` under `keys` (keys[k] read from key_cols[k]), ties
/// broken by row index (`a < b` — stability).
bool SortRowsLess(const std::vector<const Column*>& key_cols,
                  const std::vector<SortKey>& keys, u64 a, u64 b);

/// The one ordered gather of the engine: a fresh table holding rows
/// `order` of `table`'s `columns` (empty = every column, in table
/// order), in that order. When `ctx` accounts memory, the output is
/// first charged to "alloc/sort"; a refused charge has failed the query
/// and yields null.
std::unique_ptr<Table> GatherRows(const Table& table,
                                  const std::vector<std::string>& columns,
                                  const std::vector<sel_t>& order,
                                  QueryContext* ctx);

class SortOperator : public Operator {
 public:
  /// `limit` = 0 keeps all rows.
  SortOperator(Engine* engine, OperatorPtr child, std::vector<SortKey> keys,
               size_t limit = 0);

  Status Open() override;
  bool Next(Batch* out) override { return scan_->Next(out); }

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  size_t limit_;

  /// The sorted rows, and the scan that emits them as views.
  std::unique_ptr<Table> sorted_;
  std::unique_ptr<ScanOperator> scan_;
};

}  // namespace ma

#endif  // MA_EXEC_OP_SORT_H_
