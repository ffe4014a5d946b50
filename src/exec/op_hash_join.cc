#include "exec/op_hash_join.h"

#include "exec/append.h"
#include "prim/fetch_kernels.h"

namespace ma {

void SharedJoinBuild::AppendBatch(const Batch& batch,
                                  const HashJoinSpec& spec) {
  const int key_idx = batch.FindColumn(spec.build_key);
  MA_CHECK(key_idx >= 0);
  const i64* k = batch.column(key_idx).Data<i64>();
  if (batch.has_sel()) {
    ht.Append(k, 0, batch.sel().data(), batch.sel().size());
  } else {
    ht.Append(k, batch.row_count(), nullptr, 0);
  }
  if (cols.empty()) {
    for (const auto& [src, out_name] : spec.build_outputs) {
      const int idx = batch.FindColumn(src);
      MA_CHECK(idx >= 0);
      cols.push_back(std::make_unique<Column>(batch.column(idx).type()));
    }
  }
  for (size_t i = 0; i < spec.build_outputs.size(); ++i) {
    const int idx = batch.FindColumn(spec.build_outputs[i].first);
    AppendLive(batch.column(idx), batch, cols[i].get());
  }
}

void SharedJoinBuild::AppendPart(const SharedJoinBuild& part) {
  ht.Append(part.ht.view().keys, part.ht.num_rows(), nullptr, 0);
  if (cols.empty()) {
    for (const auto& col : part.cols) {
      cols.push_back(std::make_unique<Column>(col->type()));
    }
  }
  for (size_t i = 0; i < part.cols.size(); ++i) {
    AppendColumnRows(*part.cols[i], cols[i].get());
  }
}

Status SharedJoinBuild::Finish(const HashJoinSpec& spec, bool use_bloom) {
  const bool outer = spec.kind == HashJoinSpec::Kind::kLeftOuter;
  if (cols.size() != spec.build_outputs.size()) {
    // Nothing was drained; instantiate the declared types so the output
    // schema survives an empty build side.
    MA_CHECK(cols.empty());
    if (spec.build_output_types.size() == spec.build_outputs.size()) {
      for (const PhysicalType t : spec.build_output_types) {
        cols.push_back(std::make_unique<Column>(t));
      }
    } else if (outer) {
      return Status::InvalidArgument(
          "left outer hash join over an empty build side needs "
          "build_output_types");
    }
  }
  ht.Finalize();
  if (outer) {
    // The miss payload: one default row (zero / empty string) after the
    // real build rows; missed probe rows fetch it like any match.
    for (auto& col : cols) AppendDefault(col.get());
  } else if (use_bloom) {
    // A pull-model build has no rough pre-pass, so the filter is sized
    // after the drain and filled from the table's keys.
    bloom = std::make_unique<BloomFilter>(
        BloomFilter::ForKeys(ht.num_rows() + 1));
    const JoinHashTable::View v = ht.view();
    for (size_t i = 0; i < ht.num_rows(); ++i) bloom->Insert(v.keys[i]);
  }
  return Status::OK();
}

HashJoinOperator::HashJoinOperator(Engine* engine, OperatorPtr build,
                                   OperatorPtr probe, HashJoinSpec spec,
                                   std::string label)
    : Operator(engine),
      build_input_(std::move(build)),
      probe_(std::move(probe)),
      spec_(std::move(spec)),
      label_(std::move(label)) {}

HashJoinOperator::HashJoinOperator(Engine* engine,
                                   const SharedJoinBuild* shared,
                                   OperatorPtr probe, HashJoinSpec spec,
                                   std::string label)
    : Operator(engine),
      probe_(std::move(probe)),
      spec_(std::move(spec)),
      label_(std::move(label)),
      build_(shared) {
  MA_CHECK(build_ != nullptr && build_->ht.finalized());
}

Status HashJoinOperator::Open() {
  if (build_input_ != nullptr) {
    MA_RETURN_IF_ERROR(build_input_->Open());
  }
  MA_RETURN_IF_ERROR(probe_->Open());

  if (build_input_ != nullptr) {
    Batch batch;
    QueryContext* ctx = engine_->context();
    const bool charged = ctx->accounting_enabled();
    for (;;) {
      if (ctx->ShouldStop()) return ctx->status();
      batch.Clear();
      if (!build_input_->Next(&batch)) break;
      if (batch.live_count() == 0) continue;
      if (charged) {
        // Resident build state grows by the key, chain and directory
        // slots plus the materialized output columns for this batch.
        MA_RETURN_IF_ERROR(ctx->ReserveMemory(
            "alloc/build",
            batch.live_count() * 16 + ApproxBatchBytes(batch)));
      }
      own_build_.AppendBatch(batch, spec_);
    }
    MA_RETURN_IF_ERROR(own_build_.Finish(spec_, spec_.use_bloom));
    build_ = &own_build_;
  }

  if (build_->bloom != nullptr) {
    bloom_tmp_.resize(kMaxVectorSize);
    bloom_state_.filter = build_->bloom.get();
    bloom_state_.tmp = bloom_tmp_.data();
    bloom_inst_ = engine_->NewInstance("sel_bloomfilter_i64_col",
                                       label_ + "/bloom",
                                       build_->bloom->size_bytes());
  }

  switch (spec_.kind) {
    case HashJoinSpec::Kind::kInner:
    case HashJoinSpec::Kind::kLeftOuter:
      probe_inst_ =
          engine_->NewInstance("ht_probe_i64_col", label_ + "/probe");
      break;
    case HashJoinSpec::Kind::kSemi:
      exists_inst_ =
          engine_->NewInstance("ht_semijoin_i64_col", label_ + "/semi");
      break;
    case HashJoinSpec::Kind::kAnti:
      exists_inst_ =
          engine_->NewInstance("ht_antijoin_i64_col", label_ + "/anti");
      break;
  }
  fetch_build_.assign(spec_.build_outputs.size(), nullptr);
  fetch_probe_.assign(spec_.probe_outputs.size(), nullptr);
  out_build_vecs_.assign(spec_.build_outputs.size(), nullptr);
  out_probe_vecs_.assign(spec_.probe_outputs.size(), nullptr);
  match_pos_.resize(kMaxVectorSize);
  match_row_.resize(kMaxVectorSize);
  match_pos64_.resize(kMaxVectorSize);
  probe_batch_valid_ = false;
  return Status::OK();
}

bool HashJoinOperator::Next(Batch* out) {
  switch (spec_.kind) {
    case HashJoinSpec::Kind::kInner:
      return NextInner(out);
    case HashJoinSpec::Kind::kLeftOuter:
      return NextLeftOuter(out);
    case HashJoinSpec::Kind::kSemi:
    case HashJoinSpec::Kind::kAnti:
      return NextSemiAnti(out);
  }
  MA_CHECK(false);
  return false;
}

bool HashJoinOperator::NextSemiAnti(Batch* out) {
  for (;;) {
    out->Clear();
    if (!probe_->Next(out)) return false;
    if (out->live_count() == 0) continue;
    const int key_idx = out->FindColumn(spec_.probe_key);
    MA_CHECK(key_idx >= 0);

    // Anti joins cannot use the bloom filter to discard (false positives
    // would wrongly drop rows); semi joins can.
    if (bloom_inst_ != nullptr && spec_.kind == HashJoinSpec::Kind::kSemi) {
      ApplyBloom(out, key_idx);
      if (out->live_count() == 0) continue;
    }

    PrimCall c;
    c.n = out->row_count();
    SelVector& sel = out->mutable_sel();
    c.res_sel = sel.data();
    c.in1 = out->column(key_idx).raw_data();
    c.state = const_cast<JoinHashTable*>(&build_->ht);
    if (out->has_sel()) {
      c.sel = sel.data();
      c.sel_n = sel.size();
    }
    sel.set_size(exists_inst_->Call(c));
    out->set_sel_active(true);
    if (out->live_count() > 0) return true;
  }
}

bool HashJoinOperator::NextInner(Batch* out) {
  for (;;) {
    if (!probe_batch_valid_) {
      probe_batch_.Clear();
      if (!probe_->Next(&probe_batch_)) return false;
      if (probe_batch_.live_count() == 0) continue;
      const int key_idx = probe_batch_.FindColumn(spec_.probe_key);
      MA_CHECK(key_idx >= 0);
      if (bloom_inst_ != nullptr) {
        ApplyBloom(&probe_batch_, key_idx);
        if (probe_batch_.live_count() == 0) continue;
      }
      probe_state_ = ProbeState{};
      probe_state_.table = &build_->ht;
      probe_state_.cursor = ProbeCursor{0, JoinHashTable::kNil, false};
      probe_batch_valid_ = true;
    }

    const int key_idx = probe_batch_.FindColumn(spec_.probe_key);
    probe_state_.out_probe_pos = match_pos_.data();
    probe_state_.out_build_row = match_row_.data();
    probe_state_.out_capacity = engine_->vector_size();
    PrimCall c;
    c.n = probe_batch_.row_count();
    c.in1 = probe_batch_.column(key_idx).raw_data();
    c.state = &probe_state_;
    if (probe_batch_.has_sel()) {
      c.sel = probe_batch_.sel().data();
      c.sel_n = probe_batch_.sel().size();
    }
    const size_t before = probe_state_.cursor.pos;
    const size_t matches = probe_inst_->CallN(
        c, std::max<u64>(1, probe_batch_.live_count() - before));
    if (probe_state_.cursor.done) probe_batch_valid_ = false;
    if (matches == 0) continue;

    // Materialize output: gather probe columns at match positions and
    // build columns at matched build rows via fetch primitives.
    for (size_t i = 0; i < matches; ++i) match_pos64_[i] = match_pos_[i];
    EmitGathered(out, match_pos64_.data(), match_row_.data(), matches);
    return true;
  }
}

void HashJoinOperator::ApplyBloom(Batch* batch, int key_idx) {
  PrimCall c;
  c.n = batch->row_count();
  SelVector& sel = batch->mutable_sel();
  c.res_sel = sel.data();
  c.in1 = batch->column(key_idx).raw_data();
  c.state = &bloom_state_;
  if (batch->has_sel()) {
    c.sel = sel.data();
    c.sel_n = sel.size();
  }
  sel.set_size(bloom_inst_->Call(c));
  batch->set_sel_active(true);
}

void HashJoinOperator::EmitGathered(Batch* out, const u64* probe_pos,
                                    const u64* build_row, size_t n) {
  out->Clear();
  for (size_t p = 0; p < spec_.probe_outputs.size(); ++p) {
    const int idx = probe_batch_.FindColumn(spec_.probe_outputs[p]);
    MA_CHECK(idx >= 0);
    const Vector& src = probe_batch_.column(idx);
    if (fetch_probe_[p] == nullptr) {
      fetch_probe_[p] = engine_->NewInstance(
          FetchSignature(src.type()),
          label_ + "/fetch_probe_" + spec_.probe_outputs[p]);
    }
    if (out_probe_vecs_[p] == nullptr) {
      out_probe_vecs_[p] =
          std::make_shared<Vector>(src.type(), kMaxVectorSize);
    }
    const auto& dst = out_probe_vecs_[p];
    PrimCall fc;
    fc.n = n;
    fc.res = dst->raw_data();
    fc.in1 = probe_pos;
    fc.state = const_cast<void*>(src.raw_data());
    fetch_probe_[p]->CallN(fc, n);
    dst->set_size(n);
    out->AddColumn(spec_.probe_outputs[p], dst);
  }
  for (size_t b = 0; b < spec_.build_outputs.size(); ++b) {
    const Column* src = build_->cols[b].get();
    if (fetch_build_[b] == nullptr) {
      fetch_build_[b] = engine_->NewInstance(
          FetchSignature(src->type()),
          label_ + "/fetch_build_" + spec_.build_outputs[b].second);
    }
    if (out_build_vecs_[b] == nullptr) {
      out_build_vecs_[b] =
          std::make_shared<Vector>(src->type(), kMaxVectorSize);
    }
    const auto& dst = out_build_vecs_[b];
    PrimCall fc;
    fc.n = n;
    fc.res = dst->raw_data();
    fc.in1 = build_row;
    fc.state = const_cast<void*>(src->RawData());
    fetch_build_[b]->CallN(fc, n);
    dst->set_size(n);
    out->AddColumn(spec_.build_outputs[b].second, dst);
  }
  out->set_row_count(n);
}

bool HashJoinOperator::NextLeftOuter(Batch* out) {
  for (;;) {
    if (!probe_batch_valid_) {
      probe_batch_.Clear();
      if (!probe_->Next(&probe_batch_)) return false;
      if (probe_batch_.live_count() == 0) continue;
      const int key_idx = probe_batch_.FindColumn(spec_.probe_key);
      MA_CHECK(key_idx >= 0);

      // Drain the probe cursor over the whole batch; the match stream
      // arrives grouped by probe position in selection order. Peak
      // memory is one probe batch's full match list — unbounded in
      // the join fan-out, unlike the inner path's chunked streaming
      // (a bounded-cursor variant is a ROADMAP item; the plan-layer
      // uses are unique-key builds, fan-out 1).
      probe_state_ = ProbeState{};
      probe_state_.table = &build_->ht;
      probe_state_.cursor = ProbeCursor{0, JoinHashTable::kNil, false};
      outer_pos_.clear();
      outer_row_.clear();
      while (!probe_state_.cursor.done) {
        probe_state_.out_probe_pos = match_pos_.data();
        probe_state_.out_build_row = match_row_.data();
        probe_state_.out_capacity = engine_->vector_size();
        PrimCall c;
        c.n = probe_batch_.row_count();
        c.in1 = probe_batch_.column(key_idx).raw_data();
        c.state = &probe_state_;
        if (probe_batch_.has_sel()) {
          c.sel = probe_batch_.sel().data();
          c.sel_n = probe_batch_.sel().size();
        }
        const size_t before = probe_state_.cursor.pos;
        const size_t m = probe_inst_->CallN(
            c, std::max<u64>(1, probe_batch_.live_count() - before));
        for (size_t i = 0; i < m; ++i) {
          outer_pos_.push_back(match_pos_[i]);
          outer_row_.push_back(match_row_[i]);
        }
      }

      // Merge into emission order: probe rows in selection order, each
      // contributing its matches or — when none — one default-payload
      // row (the extra row appended after the real build rows).
      outer_emit_pos_.clear();
      outer_emit_row_.clear();
      const u64 miss_row = build_->ht.num_rows();
      size_t m = 0;
      auto take = [&](sel_t p) {
        if (m < outer_pos_.size() && outer_pos_[m] == p) {
          do {
            outer_emit_pos_.push_back(p);
            outer_emit_row_.push_back(outer_row_[m]);
            ++m;
          } while (m < outer_pos_.size() && outer_pos_[m] == p);
        } else {
          outer_emit_pos_.push_back(p);
          outer_emit_row_.push_back(miss_row);
        }
      };
      if (probe_batch_.has_sel()) {
        const SelVector& sel = probe_batch_.sel();
        for (size_t j = 0; j < sel.size(); ++j) take(sel[j]);
      } else {
        for (size_t i = 0; i < probe_batch_.row_count(); ++i) {
          take(static_cast<sel_t>(i));
        }
      }
      MA_CHECK(m == outer_pos_.size());
      outer_emit_offset_ = 0;
      probe_batch_valid_ = true;
    }

    if (outer_emit_offset_ >= outer_emit_pos_.size()) {
      probe_batch_valid_ = false;
      continue;
    }
    const size_t n = std::min<size_t>(
        engine_->vector_size(),
        outer_emit_pos_.size() - outer_emit_offset_);
    EmitGathered(out, outer_emit_pos_.data() + outer_emit_offset_,
                 outer_emit_row_.data() + outer_emit_offset_, n);
    outer_emit_offset_ += n;
    return true;
  }
}

}  // namespace ma
