// Shared column-append helpers. Every operator that materializes rows
// into storage Columns needs the same per-PhysicalType dispatch; this
// header holds the one switch (ForEachPhysicalType) and the append
// shapes built on it, replacing the four copies that had grown in
// operator.cc, op_hash_agg.cc and parallel_executor.cc.
#ifndef MA_EXEC_APPEND_H_
#define MA_EXEC_APPEND_H_

#include <type_traits>

#include "storage/column.h"
#include "vector/batch.h"

namespace ma {

/// Invokes `fn` with a default-constructed value of the C++ type behind
/// `t` (i8{}, i16{}, i32{}, i64{}, f64{} or StrRef{}) — the single
/// type-dispatch switch all append helpers share.
template <typename F>
void ForPhysicalType(PhysicalType t, F&& fn) {
  switch (t) {
    case PhysicalType::kI8:
      fn(i8{});
      break;
    case PhysicalType::kI16:
      fn(i16{});
      break;
    case PhysicalType::kI32:
      fn(i32{});
      break;
    case PhysicalType::kI64:
      fn(i64{});
      break;
    case PhysicalType::kF64:
      fn(f64{});
      break;
    case PhysicalType::kStr:
      fn(StrRef{});
      break;
  }
}

/// Appends the live rows of `src` (honoring the batch's selection) to a
/// storage column. Strings are copied into dst's own heap.
void AppendLive(const Vector& src, const Batch& batch, Column* dst);

/// Appends every row of `src` to `dst` (same physical type).
void AppendColumnRows(const Column& src, Column* dst);

/// Copies one cell of a storage column to the end of `dst`.
void AppendCell(const Column& src, size_t row, Column* dst);

/// Gather-appends `n` cells of `src` (at the `sel` positions) to `dst`:
/// one bulk move per call — fixed-width types via AppendGather, string
/// payloads as one contiguous heap block (Column::AppendStringGather).
void AppendGatherColumn(const Column& src, const sel_t* sel, size_t n,
                        Column* dst);

/// Appends one default cell (zero / empty string) to `dst` — the left
/// outer hash join's miss-payload row.
void AppendDefault(Column* dst);

/// Copies one cell of a vector to the end of `dst`.
void AppendVectorCell(const Vector& src, size_t row, Column* dst);

/// Approximate bytes needed to materialize the live rows of `batch`:
/// fixed-width columns at TypeWidth, string columns at StrRef plus
/// payload length. QueryContext memory accounting charges this when a
/// batch is copied into a stage's or the query's result table, or into
/// a join build.
u64 ApproxBatchBytes(const Batch& batch);

}  // namespace ma

#endif  // MA_EXEC_APPEND_H_
