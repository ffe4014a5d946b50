// Scan: the one leaf that emits slices of an in-memory table's columns
// as zero-copy vector views, vector-at-a-time.
//
// Serially the whole table is one range. A worker of a parallel
// pipeline (ParallelExecutor) passes its MorselQueue instead: the scan
// then walks the morsels it claims, and everything above the queue —
// operators, primitive instances, bandit state, scratch vectors — is
// owned by the worker's own Engine. current_morsel() identifies the
// morsel of the batch emitted last. Because the pipeline above is
// pull-based and processes one batch to completion before pulling the
// next, the executor can attribute any output batch to that morsel and
// merge per-morsel results in index order — making merged output
// independent of thread count and of which worker stole what.
#ifndef MA_EXEC_OP_SCAN_H_
#define MA_EXEC_OP_SCAN_H_

#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/parallel/morsel.h"
#include "storage/table.h"

namespace ma {

class ScanOperator : public Operator {
 public:
  /// Scans `columns` of `table` (empty = every column): the whole table
  /// when `queue` is null, else the morsels worker `worker` claims.
  ScanOperator(Engine* engine, const Table* table,
               std::vector<std::string> columns = {},
               MorselQueue* queue = nullptr, int worker = 0);

  Status Open() override;
  bool Next(Batch* out) override;

  /// Morsel index of the most recently emitted batch (0 when serial).
  size_t current_morsel() const { return range_.index; }

 private:
  /// Moves to the next range to scan; false when none is left.
  bool ClaimRange();

  const Table* table_;
  std::vector<std::string> column_names_;
  std::vector<const Column*> columns_;
  /// Pooled zero-copy views, one per scanned column, repointed per batch.
  std::vector<std::shared_ptr<Vector>> views_;
  MorselQueue* queue_;
  int worker_;
  /// The range being scanned and the next row to emit from it.
  Morsel range_;
  u64 pos_ = 0;
};

}  // namespace ma

#endif  // MA_EXEC_OP_SCAN_H_
