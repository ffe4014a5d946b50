#include "exec/op_scan.h"

#include <algorithm>

namespace ma {

ScanOperator::ScanOperator(Engine* engine, const Table* table,
                           std::vector<std::string> columns,
                           MorselQueue* queue, int worker)
    : Operator(engine),
      table_(table),
      column_names_(std::move(columns)),
      queue_(queue),
      worker_(worker) {
  MA_CHECK(table_ != nullptr);
  if (column_names_.empty()) {
    for (size_t i = 0; i < table_->num_columns(); ++i) {
      column_names_.push_back(table_->column_name(i));
    }
  }
}

Status ScanOperator::Open() {
  columns_.clear();
  views_.clear();
  // Serially the whole table is the one range; a morsel scan starts
  // with none and claims its first at the first Next().
  range_ = Morsel{0, queue_ == nullptr ? table_->row_count() : 0, 0};
  pos_ = 0;
  if (table_->row_count() == 0) {
    // Empty tables (including columnless intermediate results) emit no
    // batches; skip column resolution so empty pipeline stages compose.
    return Status::OK();
  }
  for (const std::string& name : column_names_) {
    const Column* col = table_->FindColumn(name);
    if (col == nullptr) {
      return Status::NotFound("column " + name + " in table " +
                              table_->name());
    }
    columns_.push_back(col);
  }
  return Status::OK();
}

bool ScanOperator::ClaimRange() {
  if (queue_ == nullptr) return false;
  // Morsel claims are the parallel cancellation points: a full poll
  // (stop flag + deadline) plus the fault-injection site, once per
  // ~64K rows. Unclaimed morsels stay in the queue and are drained
  // without executing by whichever workers reach them.
  QueryContext* ctx = engine_->context();
  if (!ctx->Poll().ok() || !ctx->MaybeInjectFault("parallel/morsel").ok() ||
      !queue_->Next(worker_, &range_)) {
    return false;
  }
  pos_ = range_.begin;
  return true;
}

bool ScanOperator::Next(Batch* out) {
  if (pos_ >= range_.end && !ClaimRange()) return false;
  const size_t n = static_cast<size_t>(
      std::min<u64>(engine_->vector_size(), range_.end - pos_));
  // One pooled view per column, repointed at the current slice each
  // batch — the scan hot loop allocates nothing.
  if (views_.empty()) {
    views_.reserve(columns_.size());
    for (const Column* col : columns_) {
      views_.push_back(Vector::View(col->type(), col->RawData(), 0));
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column* col = columns_[i];
    const char* base = static_cast<const char*>(col->RawData());
    views_[i]->ResetView(base + pos_ * TypeWidth(col->type()), n);
    out->AddColumn(column_names_[i], views_[i]);
  }
  out->set_row_count(n);
  pos_ += n;
  return true;
}

}  // namespace ma
