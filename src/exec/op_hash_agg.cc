#include "exec/op_hash_agg.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "exec/append.h"
#include "prim/aggr_kernels.h"

namespace ma {

HashAggOperator::HashAggOperator(Engine* engine, OperatorPtr child,
                                 std::vector<GroupKey> group_keys,
                                 std::vector<std::string> group_outputs,
                                 std::vector<AggSpec> aggs,
                                 std::string label)
    : Operator(engine),
      child_(std::move(child)),
      group_keys_(std::move(group_keys)),
      group_output_names_(std::move(group_outputs)),
      agg_specs_(std::move(aggs)),
      label_(label),
      eval_(engine, label) {
  int total_bits = 0;
  for (const GroupKey& k : group_keys_) total_bits += k.bits;
  MA_CHECK(total_bits <= 63);
}

Status HashAggOperator::Open() {
  MA_RETURN_IF_ERROR(child_->Open());
  if (!group_keys_.empty()) {
    insertcheck_ = engine_->NewInstance("ht_insertcheck_i64_col",
                                        label_ + "/insertcheck");
    // Runs share the first (most significant) key's value.
    int total_bits = 0;
    for (const GroupKey& k : group_keys_) total_bits += k.bits;
    table_.ArmRunMode(total_bits - group_keys_[0].bits);
  } else {
    table_.FindOrInsert(0);  // the single global group
  }
  aggs_.clear();
  for (const AggSpec& spec : agg_specs_) {
    AggState st;
    st.spec = spec.Clone();
    aggs_.push_back(std::move(st));
  }
  key_scratch_.resize(kMaxVectorSize, 0);
  gid_scratch_.resize(kMaxVectorSize, 0);
  emit_pos_ = 0;
  charged_bytes_ = 0;
  input_done_ = false;
  saw_rows_ = false;

  // Drain the child now (blocking operator). Each batch is a
  // cancellation point; aggregation-state growth is charged against the
  // memory budget when one is set.
  QueryContext* ctx = engine_->context();
  const bool charged = ctx->accounting_enabled();
  Batch batch;
  for (;;) {
    if (ctx->ShouldStop()) return ctx->status();
    batch.Clear();
    if (!child_->Next(&batch)) break;
    if (batch.live_count() == 0) continue;
    saw_rows_ = true;
    ConsumeBatch(batch);
    if (charged) MA_RETURN_IF_ERROR(ChargeAggMemory(ctx));
  }
  input_done_ = true;
  // If the input was empty, no aggregate got bound: settle argument
  // types from the hints and size accumulators so Next() can emit the
  // (possibly single, global) group rows.
  for (AggState& st : aggs_) {
    if (st.update == nullptr) {
      st.arg_type = st.spec.arg != nullptr ? st.spec.type_hint
                                           : PhysicalType::kI64;
    }
  }
  ResizeAccumulators();
  return Status::OK();
}

void HashAggOperator::ResizeAccumulator(AggState* st) const {
  const u32 groups = table_.num_groups();
  const bool is_min = st->spec.fn == "min";
  const bool is_max = st->spec.fn == "max";
  if (st->exact()) {
    st->acc_fx.resize(groups, 0);
  } else if (st->is_float()) {
    const f64 init =
        is_min ? std::numeric_limits<f64>::infinity()
               : (is_max ? -std::numeric_limits<f64>::infinity() : 0.0);
    st->acc_f.resize(groups, init);
  } else {
    const i64 init =
        is_min ? std::numeric_limits<i64>::max()
               : (is_max ? std::numeric_limits<i64>::min() : 0);
    st->acc_i.resize(groups, init);
  }
  if (st->spec.fn == "avg") st->count.resize(groups, 0);
}

void HashAggOperator::ResizeAccumulators() {
  for (AggState& st : aggs_) ResizeAccumulator(&st);
}

Status HashAggOperator::ChargeAggMemory(QueryContext* ctx) {
  // Approximate resident aggregation state: group table slots (packed
  // key + dense gid), accumulator arrays, avg counters, and group-output
  // columns (string payloads counted at StrRef width — the heap bytes
  // are bounded by the same order). Only the growth since the previous
  // charge is reserved.
  const u64 groups = table_.num_groups();
  u64 bytes = groups * 16;
  for (const AggState& st : aggs_) {
    bytes += st.acc_i.size() * sizeof(i64) + st.acc_f.size() * sizeof(f64) +
             st.acc_fx.size() * sizeof(i128) + st.count.size() * sizeof(i64);
  }
  for (const auto& col : group_out_cols_) {
    bytes += static_cast<u64>(col->size()) * TypeWidth(col->type());
  }
  if (bytes <= charged_bytes_) return Status::OK();
  const u64 delta = bytes - charged_bytes_;
  charged_bytes_ = bytes;
  return ctx->ReserveMemory("alloc/agg", delta);
}

void HashAggOperator::ConsumeBatch(Batch& batch) {
  const size_t n = batch.row_count();
  const sel_t* sel = batch.has_sel() ? batch.sel().data() : nullptr;
  const size_t live = batch.live_count();

  // (1) Pack group keys.
  if (!group_keys_.empty()) {
    std::vector<const i64*> key_cols(group_keys_.size());
    for (size_t k = 0; k < group_keys_.size(); ++k) {
      const int idx = batch.FindColumn(group_keys_[k].column);
      MA_CHECK(idx >= 0);
      key_cols[k] = batch.column(idx).Data<i64>();
    }
    auto pack_one = [&](sel_t i) {
      i64 key = 0;
      for (size_t k = 0; k < group_keys_.size(); ++k) {
        const i64 v = key_cols[k][i];
        MA_CHECK(v >= 0 && v < (i64{1} << group_keys_[k].bits));
        key = (key << group_keys_[k].bits) | v;
      }
      key_scratch_[i] = key;
    };
    if (sel != nullptr) {
      for (size_t j = 0; j < live; ++j) pack_one(sel[j]);
    } else {
      for (size_t i = 0; i < n; ++i) pack_one(static_cast<sel_t>(i));
    }

    // (2) Keys -> dense group ids via the insert-check primitive.
    table_.EnsureRoom(live);
    const u32 groups_before = table_.num_groups();
    PrimCall c;
    c.n = n;
    c.res = gid_scratch_.data();
    c.in1 = key_scratch_.data();
    c.state = &table_;
    if (sel != nullptr) {
      c.sel = sel;
      c.sel_n = live;
    }
    insertcheck_->Call(c);

    // Record first-seen group-output values for new groups.
    if (!group_output_names_.empty()) {
      // Resolve the columns once per batch, not once per new group.
      std::vector<const Vector*> out_cols(group_output_names_.size());
      for (size_t g = 0; g < group_output_names_.size(); ++g) {
        const int idx = batch.FindColumn(group_output_names_[g]);
        MA_CHECK(idx >= 0);
        out_cols[g] = &batch.column(idx);
      }
      if (group_out_cols_.empty()) {
        for (const Vector* col : out_cols) {
          group_out_cols_.push_back(std::make_unique<Column>(col->type()));
        }
      }
      u32 stored = groups_before;
      auto capture = [&](sel_t i) {
        if (gid_scratch_[i] < stored) return;
        MA_CHECK(gid_scratch_[i] == stored);
        for (size_t g = 0; g < out_cols.size(); ++g) {
          AppendVectorCell(*out_cols[g], i, group_out_cols_[g].get());
        }
        ++stored;
      };
      if (sel != nullptr) {
        for (size_t j = 0; j < live; ++j) capture(sel[j]);
      } else {
        for (size_t i = 0; i < n; ++i) capture(static_cast<sel_t>(i));
      }
    }
  }

  // (3) Aggregate updates. Each accumulator is sized after its
  // aggregate's argument type is bound (on its first batch), so it only
  // ever allocates the accumulator of that type.
  for (AggState& st : aggs_) {
    const void* values = key_scratch_.data();  // dummy for count(*)
    PhysicalType vt = PhysicalType::kI64;
    if (st.spec.arg != nullptr) {
      auto vec = eval_.EvaluateValue(*st.spec.arg, batch);
      values = vec->raw_data();
      vt = vec->type();
    }
    if (st.update == nullptr) {
      st.arg_type = vt;
      const char* fn = st.spec.fn == "avg" ? "sum" : st.spec.fn.c_str();
      const char* kernel_fn = st.spec.arg == nullptr ? "count" : fn;
      if (st.exact()) kernel_fn = "sumfix";
      st.update = engine_->NewInstance(
          AggrSignature(kernel_fn, vt),
          label_ + "/aggr_" + st.spec.fn + "_" + st.spec.out_name);
      if (st.spec.fn == "avg") {
        // Counts always use the i64 kernel (i64 accumulator) over dummy
        // values; the count kernel never reads the value column.
        st.count_update = engine_->NewInstance(
            AggrSignature("count", PhysicalType::kI64),
            label_ + "/aggr_count_" + st.spec.out_name);
      }
    }
    MA_CHECK(st.arg_type == vt);
    ResizeAccumulator(&st);
    PrimCall c;
    c.n = n;
    c.in1 = values;
    c.in2 = gid_scratch_.data();
    c.state = st.exact()
                  ? static_cast<void*>(st.acc_fx.data())
                  : (st.is_float() ? static_cast<void*>(st.acc_f.data())
                                   : static_cast<void*>(st.acc_i.data()));
    if (sel != nullptr) {
      c.sel = sel;
      c.sel_n = live;
    }
    st.update->Call(c);
    if (st.count_update != nullptr) {
      PrimCall cc = c;
      cc.in1 = key_scratch_.data();  // dummy i64 values, never read
      cc.state = st.count.data();
      st.count_update->Call(cc);
    }
  }
}

namespace {

/// Folds accumulator `from[g]` into `(*acc)[gids[g]]` for every group g
/// of a merged-in operator: mins and maxes combine, everything else adds.
template <typename T>
void FoldInto(const std::string& fn, const std::vector<u32>& gids,
              const std::vector<T>& from, std::vector<T>* acc) {
  T* d = acc->data();
  if (fn == "min") {
    for (size_t g = 0; g < gids.size(); ++g) {
      d[gids[g]] = std::min(d[gids[g]], from[g]);
    }
  } else if (fn == "max") {
    for (size_t g = 0; g < gids.size(); ++g) {
      d[gids[g]] = std::max(d[gids[g]], from[g]);
    }
  } else {
    for (size_t g = 0; g < gids.size(); ++g) d[gids[g]] += from[g];
  }
}

}  // namespace

void HashAggOperator::Merge(const HashAggOperator& other) {
  MA_CHECK(input_done_ && other.input_done_ && emit_pos_ == 0);
  MA_CHECK(aggs_.size() == other.aggs_.size());
  const u32 groups_before = table_.num_groups();
  std::vector<u32> gids(other.table_.num_groups());
  // other's gids of the groups new here, in the order they were added.
  std::vector<sel_t> fresh;
  for (u32 g = 0; g < gids.size(); ++g) {
    gids[g] = table_.FindOrInsert(other.table_.KeyOfGroup(g));
    if (gids[g] >= groups_before) fresh.push_back(g);
  }
  if (!fresh.empty()) {
    MA_CHECK(group_out_cols_.size() == other.group_out_cols_.size());
    for (size_t c = 0; c < group_out_cols_.size(); ++c) {
      AppendGatherColumn(*other.group_out_cols_[c], fresh.data(),
                         fresh.size(), group_out_cols_[c].get());
    }
  }
  ResizeAccumulators();
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggState& st = aggs_[a];
    const AggState& o = other.aggs_[a];
    MA_CHECK(st.arg_type == o.arg_type);
    const std::string& fn = st.spec.fn;
    if (st.exact()) {
      FoldInto(fn, gids, o.acc_fx, &st.acc_fx);
    } else if (st.is_float()) {
      FoldInto(fn, gids, o.acc_f, &st.acc_f);
    } else {
      FoldInto(fn, gids, o.acc_i, &st.acc_i);
    }
    if (fn == "avg") FoldInto(fn, gids, o.count, &st.count);
  }
}

void HashAggOperator::PlanEmitOrder() {
  emit_order_.clear();
  const std::vector<i64>& keys = table_.keys_by_gid();
  if (!emit_key_sorted_ || group_keys_.empty() ||
      std::is_sorted(keys.begin(), keys.end())) {
    return;
  }
  emit_order_.resize(keys.size());
  std::iota(emit_order_.begin(), emit_order_.end(), 0u);
  auto by_key = [&keys](u32 a, u32 b) { return keys[a] < keys[b]; };
  if (table_.in_run_mode()) {
    // Runs already ascend by their leading part: sort inside each.
    const int shift = table_.run_shift();
    for (size_t begin = 0; begin < keys.size();) {
      size_t end = begin + 1;
      while (end < keys.size() &&
             (keys[end] >> shift) == (keys[begin] >> shift)) {
        ++end;
      }
      std::sort(emit_order_.begin() + begin, emit_order_.begin() + end,
                by_key);
      begin = end;
    }
  } else {
    std::sort(emit_order_.begin(), emit_order_.end(), by_key);
  }
}

bool HashAggOperator::Next(Batch* out) {
  MA_CHECK(input_done_);
  const u32 groups = table_.num_groups();
  if (emit_pos_ >= groups) return false;
  if (emit_pos_ == 0) PlanEmitOrder();
  // An aggregation over zero groups with group keys emits nothing; a
  // global aggregation always has its one group.
  const size_t n =
      std::min<size_t>(engine_->vector_size(), groups - emit_pos_);
  const bool reorder = !emit_order_.empty();
  // Dense group id of output row i of this batch.
  auto gid = [&](size_t i) {
    const u32 row = emit_pos_ + static_cast<u32>(i);
    return reorder ? emit_order_[row] : row;
  };

  for (size_t g = 0; g < group_out_cols_.size(); ++g) {
    const Column* col = group_out_cols_[g].get();
    if (!reorder) {
      const char* base = static_cast<const char*>(col->RawData());
      out->AddColumn(
          group_output_names_[g],
          Vector::View(col->type(),
                       base + emit_pos_ * TypeWidth(col->type()), n));
    } else {
      auto v = std::make_shared<Vector>(col->type(), n);
      ForPhysicalType(col->type(), [&](auto tag) {
        using T = decltype(tag);
        T* d = v->Data<T>();
        const T* s = col->Data<T>();
        for (size_t i = 0; i < n; ++i) d[i] = s[gid(i)];
      });
      v->set_size(n);
      out->AddColumn(group_output_names_[g], std::move(v));
    }
  }
  for (AggState& st : aggs_) {
    if (st.spec.fn == "avg") {
      auto v = std::make_shared<Vector>(PhysicalType::kF64, n);
      f64* d = v->Data<f64>();
      for (size_t i = 0; i < n; ++i) {
        const u32 g = gid(i);
        const f64 sum = st.exact()
                            ? FixToF64(st.acc_fx[g])
                            : (st.is_float()
                                   ? st.acc_f[g]
                                   : static_cast<f64>(st.acc_i[g]));
        d[i] = st.count[g] == 0 ? 0.0 : sum / st.count[g];
      }
      v->set_size(n);
      out->AddColumn(st.spec.out_name, std::move(v));
    } else if (st.is_float()) {
      auto v = std::make_shared<Vector>(PhysicalType::kF64, n);
      f64* d = v->Data<f64>();
      if (st.exact()) {
        for (size_t i = 0; i < n; ++i) d[i] = FixToF64(st.acc_fx[gid(i)]);
      } else {
        for (size_t i = 0; i < n; ++i) d[i] = st.acc_f[gid(i)];
      }
      v->set_size(n);
      out->AddColumn(st.spec.out_name, std::move(v));
    } else {
      auto v = std::make_shared<Vector>(PhysicalType::kI64, n);
      i64* d = v->Data<i64>();
      for (size_t i = 0; i < n; ++i) d[i] = st.acc_i[gid(i)];
      v->set_size(n);
      out->AddColumn(st.spec.out_name, std::move(v));
    }
  }
  out->set_row_count(n);
  emit_pos_ += static_cast<u32>(n);
  return true;
}

}  // namespace ma
