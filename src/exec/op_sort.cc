#include "exec/op_sort.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

namespace ma {

bool SortRowsLess(const std::vector<const Column*>& key_cols,
                  const std::vector<SortKey>& keys, u64 a, u64 b) {
  for (size_t k = 0; k < keys.size(); ++k) {
    const Column* c = key_cols[k];
    int r = 0;
    ForPhysicalType(c->type(), [&](auto tag) {
      using T = decltype(tag);
      const T* d = c->Data<T>();
      if constexpr (std::is_same_v<T, StrRef>) {
        const auto va = d[a].view();
        const auto vb = d[b].view();
        r = (va > vb) - (va < vb);
      } else {
        r = (d[a] > d[b]) - (d[a] < d[b]);
      }
    });
    if (keys[k].desc) r = -r;
    if (r != 0) return r < 0;
  }
  return a < b;  // stable tiebreak
}

std::unique_ptr<Table> GatherRows(const Table& table,
                                  const std::vector<std::string>& columns,
                                  const std::vector<sel_t>& order,
                                  QueryContext* ctx) {
  std::vector<std::string> names = columns;
  for (size_t i = 0; columns.empty() && i < table.num_columns(); ++i) {
    names.push_back(table.column_name(i));
  }
  if (ctx->accounting_enabled() &&
      !ctx->ReserveMemory("alloc/sort",
                          (order.size() + 1) * names.size() * sizeof(u64))
           .ok()) {
    return nullptr;
  }
  auto out = std::make_unique<Table>("result");
  for (const std::string& name : names) {
    const Column* src = table.FindColumn(name);
    MA_CHECK(src != nullptr);
    AppendGatherColumn(*src, order.data(), order.size(),
                       out->AddColumn(name, src->type()));
  }
  out->set_row_count(order.size());
  return out;
}

SortOperator::SortOperator(Engine* engine, OperatorPtr child,
                           std::vector<SortKey> keys, size_t limit)
    : Operator(engine),
      child_(std::move(child)),
      keys_(std::move(keys)),
      limit_(limit) {}

Status SortOperator::Open() {
  MA_RETURN_IF_ERROR(child_->Open());
  Table buffer("sort_buffer");
  Batch batch;
  QueryContext* ctx = engine_->context();
  const bool charged = ctx->accounting_enabled();
  for (;;) {
    if (ctx->ShouldStop()) return ctx->status();
    batch.Clear();
    if (!child_->Next(&batch)) break;
    if (charged) {
      MA_RETURN_IF_ERROR(
          ctx->ReserveMemory("alloc/sort", ApproxBatchBytes(batch)));
    }
    AppendBatchToTable(batch, &buffer);
  }

  std::vector<sel_t> order(buffer.row_count());
  std::iota(order.begin(), order.end(), sel_t{0});
  std::vector<const Column*> key_cols;
  for (const SortKey& k : keys_) {
    const Column* c = buffer.FindColumn(k.column);
    MA_CHECK(c != nullptr || order.empty());
    key_cols.push_back(c);
  }
  auto cmp = [&](u64 a, u64 b) { return SortRowsLess(key_cols, keys_, a, b); };
  if (limit_ > 0 && limit_ < order.size()) {
    std::partial_sort(order.begin(), order.begin() + limit_, order.end(),
                      cmp);
    order.resize(limit_);
  } else {
    std::sort(order.begin(), order.end(), cmp);
  }

  // The buffer is freed on return; the output scan views `sorted_`.
  sorted_ = GatherRows(buffer, {}, order, ctx);
  if (sorted_ == nullptr) return ctx->status();
  scan_ = std::make_unique<ScanOperator>(engine_, sorted_.get());
  return scan_->Open();
}

}  // namespace ma
