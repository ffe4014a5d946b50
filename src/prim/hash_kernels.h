// Vectorized hash primitives:
//  * map_hash_i64_col:        res (u64) = HashKey(in1)
//  * ht_insertcheck_i64_col:  res (u32) = dense group id, inserting new
//                             keys (state = GroupTable). This is the
//                             analogue of the paper's
//                             hash_insertcheck_str_col in Fig. 4(e).
//  * ht_probe_i64_col:        emits (probe position, build row) match
//                             pairs (state = ProbeState), resumable.
#ifndef MA_PRIM_HASH_KERNELS_H_
#define MA_PRIM_HASH_KERNELS_H_

#include "prim/hash_table.h"
#include "prim/prim_call.h"

namespace ma {

class PrimitiveDictionary;

void RegisterHashKernels(PrimitiveDictionary* dict);

namespace hash_detail {

template <bool UNROLL>
size_t MapHash(const PrimCall& c) {
  const i64* k = static_cast<const i64*>(c.in1);
  u64* r = static_cast<u64*>(c.res);
  if (c.sel != nullptr) {
    for (size_t j = 0; j < c.sel_n; ++j) {
      const sel_t i = c.sel[j];
      r[i] = HashKey(k[i]);
    }
    return c.sel_n;
  }
  if constexpr (UNROLL) {
    size_t i = 0;
    for (; i + 4 <= c.n; i += 4) {
      r[i] = HashKey(k[i]);
      r[i + 1] = HashKey(k[i + 1]);
      r[i + 2] = HashKey(k[i + 2]);
      r[i + 3] = HashKey(k[i + 3]);
    }
    for (; i < c.n; ++i) r[i] = HashKey(k[i]);
  } else {
    for (size_t i = 0; i < c.n; ++i) r[i] = HashKey(k[i]);
  }
  return c.n;
}

/// Find-or-insert group ids for a vector of keys. The GroupTable must
/// have room for c.n insertions (operator calls EnsureRoom). Handles both
/// of the table's modes, leaving run mode mid-vector at the first key
/// whose leading part decreases.
size_t InsertCheck(const PrimCall& c);

/// Probe a JoinHashTable, emitting match pairs until the probe vector or
/// the output capacity is exhausted. Returns the number of matches
/// emitted; state->cursor.done tells whether the vector was finished.
size_t Probe(const PrimCall& c);

/// Semi/anti-join existence selections (ht_semijoin_i64_col /
/// ht_antijoin_i64_col): res_sel receives the live positions whose key
/// does (SEMI=true) or does not (SEMI=false) exist in the table (state =
/// const JoinHashTable*). These are selection primitives, so they come in
/// branching and no-branching flavors like any other selection.
template <bool SEMI, bool BRANCHING>
size_t SelExists(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  const auto* table = static_cast<const JoinHashTable*>(c.state);
  const JoinHashTable::View v = table->view();
  sel_t* out = c.res_sel;
  size_t k = 0;
  auto exists = [&](i64 key) -> bool {
    u32 e = v.heads[HashKey(key) & v.mask];
    while (e != JoinHashTable::kNil) {
      if (v.keys[e] == key) return true;
      e = v.next[e];
    }
    return false;
  };
  auto one = [&](sel_t i) {
    const bool hit = exists(keys[i]) == SEMI;
    if constexpr (BRANCHING) {
      if (hit) out[k++] = i;
    } else {
      out[k] = i;
      k += hit ? 1 : 0;
    }
  };
  if (c.sel != nullptr) {
    for (size_t j = 0; j < c.sel_n; ++j) one(c.sel[j]);
  } else {
    for (size_t i = 0; i < c.n; ++i) one(static_cast<sel_t>(i));
  }
  return k;
}

}  // namespace hash_detail
}  // namespace ma

#endif  // MA_PRIM_HASH_KERNELS_H_
