// AVX2 hash flavors.
//
//  * map_hash_i64_col "avx2": four Murmur3 finalizers at a time (the
//    64-bit multiplies composed from 32x32 products — AVX2 has no 64-bit
//    mullo). Batched hashing is the paper's "bulk" primitive style: pure
//    ALU work with no dependences between lanes.
//  * ht_semijoin/ht_antijoin "avx2": hash 4 probe keys SIMD, gather the 4
//    bucket heads in one instruction (overlapping the likely cache
//    misses), then walk the (short) chains scalar. Emission stays
//    no-branching so the flavor is selectivity-insensitive.
//  * ht_probe_i64_col "avx2": the inner-join probe gets the same
//    gather+match prepass; the resumable output cursor is preserved by
//    walking chains lane-by-lane in probe order, so match order and
//    resume points are bit-identical to the scalar flavor.
#include "prim/hash_kernels.h"
#include "prim/simd.h"
#include "prim/simd_avx2.h"
#include "registry/primitive_dictionary.h"

namespace ma {
namespace {

using namespace simd_detail;

size_t MapHashAvx2(const PrimCall& c) {
  const i64* k = static_cast<const i64*>(c.in1);
  u64* r = static_cast<u64*>(c.res);
  if (c.sel != nullptr) {
    for (size_t j = 0; j < c.sel_n; ++j) {
      const sel_t i = c.sel[j];
      r[i] = HashKey(k[i]);
    }
    return c.sel_n;
  }
  size_t i = 0;
  for (; i + 4 <= c.n; i += 4) {
    const __m256i keys =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(k + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i), HashKey4(keys));
  }
  for (; i < c.n; ++i) r[i] = HashKey(k[i]);
  return c.n;
}

/// Shared body for semi/anti joins: per 4-key block, SIMD hash + one
/// gather for the bucket heads, scalar chain walk, no-branching emit.
template <bool SEMI>
size_t SelExistsAvx2(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  const auto* table = static_cast<const JoinHashTable*>(c.state);
  const JoinHashTable::View v = table->view();
  sel_t* out = c.res_sel;
  size_t k = 0;

  auto chain_hit = [&](u32 head, i64 key) -> bool {
    u32 e = head;
    while (e != JoinHashTable::kNil) {
      if (v.keys[e] == key) return true;
      e = v.next[e];
    }
    return false;
  };

  const __m256i vmask = _mm256_set1_epi64x(static_cast<i64>(v.mask));
  const size_t limit = (c.sel != nullptr) ? c.sel_n : c.n;
  size_t j = 0;
  alignas(16) u32 heads[4];
  alignas(32) i64 block[4];
  for (; j + 4 <= limit; j += 4) {
    __m256i kv;
    if (c.sel != nullptr) {
      block[0] = keys[c.sel[j]];
      block[1] = keys[c.sel[j + 1]];
      block[2] = keys[c.sel[j + 2]];
      block[3] = keys[c.sel[j + 3]];
      kv = _mm256_load_si256(reinterpret_cast<const __m256i*>(block));
    } else {
      kv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j));
    }
    const __m256i slot = _mm256_and_si256(HashKey4(kv), vmask);
    const __m128i h = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(v.heads), slot, 4);
    _mm_store_si128(reinterpret_cast<__m128i*>(heads), h);
    for (int lane = 0; lane < 4; ++lane) {
      const sel_t pos =
          c.sel != nullptr ? c.sel[j + lane] : static_cast<sel_t>(j + lane);
      const i64 key = c.sel != nullptr ? block[lane] : keys[pos];
      out[k] = pos;
      k += (chain_hit(heads[lane], key) == SEMI) ? 1 : 0;
    }
  }
  for (; j < limit; ++j) {
    const sel_t pos = c.sel != nullptr ? c.sel[j] : static_cast<sel_t>(j);
    const i64 key = keys[pos];
    const u32 head = v.heads[HashKey(key) & v.mask];
    out[k] = pos;
    k += (chain_hit(head, key) == SEMI) ? 1 : 0;
  }
  return k;
}

/// Inner-join probe with a gather+match prepass. Per 4-key block the
/// hashes and bucket heads are computed SIMD — one vpgatherdd overlaps
/// up to four directory cache misses — and empty buckets (the common
/// case for selective joins) are skipped without ever touching the
/// chain arrays. Chain walking and match emission stay scalar and in
/// probe order, which is what keeps the resumable cursor semantics of
/// the scalar flavor intact: when the output fills mid-chain, the
/// cursor rewinds to the unemitted entry exactly like hash_detail::Probe
/// does, and the resume tail below finishes that key scalar before the
/// SIMD loop takes over again.
size_t ProbeAvx2(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  auto* st = static_cast<ProbeState*>(c.state);
  const JoinHashTable::View v = st->table->view();
  constexpr u32 kNil = JoinHashTable::kNil;
  size_t emitted = 0;
  size_t pos = st->cursor.pos;
  const size_t limit = (c.sel != nullptr) ? c.sel_n : c.n;

  // Walks the chain starting at `e` for the probe key at vector position
  // `i` (probe cursor `pos`). Returns false when the output filled up —
  // the cursor then points at the unemitted entry.
  auto walk = [&](sel_t i, i64 key, u32 e) -> bool {
    while (e != kNil) {
      const u32 cur = e;
      e = v.next[cur];
      if (v.keys[cur] == key) {
        if (emitted == st->out_capacity) {
          st->cursor.pos = pos;
          st->cursor.chain = cur;
          st->cursor.done = false;
          return false;
        }
        st->out_probe_pos[emitted] = i;
        st->out_build_row[emitted] = cur;
        ++emitted;
      }
    }
    return true;
  };

  // Resume tail: the previous call stopped mid-chain; finish that key
  // scalar before re-entering the block loop.
  if (st->cursor.chain != kNil && pos < limit) {
    const sel_t i =
        (c.sel != nullptr) ? c.sel[pos] : static_cast<sel_t>(pos);
    if (!walk(i, keys[i], st->cursor.chain)) return emitted;
    ++pos;
  }

  const __m256i vmask = _mm256_set1_epi64x(static_cast<i64>(v.mask));
  alignas(32) i64 block[4];
  alignas(16) u32 heads[4];
  for (; pos + 4 <= limit; pos += 4) {
    __m256i kv;
    if (c.sel != nullptr) {
      block[0] = keys[c.sel[pos]];
      block[1] = keys[c.sel[pos + 1]];
      block[2] = keys[c.sel[pos + 2]];
      block[3] = keys[c.sel[pos + 3]];
      kv = _mm256_load_si256(reinterpret_cast<const __m256i*>(block));
    } else {
      kv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(keys + pos));
    }
    const __m256i slot = _mm256_and_si256(HashKey4(kv), vmask);
    const __m128i h = _mm256_i64gather_epi32(
        reinterpret_cast<const int*>(v.heads), slot, 4);
    _mm_store_si128(reinterpret_cast<__m128i*>(heads), h);
    for (int lane = 0; lane < 4; ++lane) {
      if (heads[lane] == kNil) continue;  // miss: no chain-array touch
      const size_t save = pos;
      pos += static_cast<size_t>(lane);  // cursor position of this lane
      const sel_t i =
          c.sel != nullptr ? c.sel[pos] : static_cast<sel_t>(pos);
      const i64 key = c.sel != nullptr ? block[lane] : keys[i];
      const bool ok = walk(i, key, heads[lane]);
      pos = save;
      if (!ok) return emitted;
    }
  }
  for (; pos < limit; ++pos) {
    const sel_t i =
        (c.sel != nullptr) ? c.sel[pos] : static_cast<sel_t>(pos);
    const i64 key = keys[i];
    if (!walk(i, key, v.heads[HashKey(key) & v.mask])) return emitted;
  }
  st->cursor.pos = pos;
  st->cursor.chain = kNil;
  st->cursor.done = true;
  return emitted;
}

}  // namespace

void RegisterHashKernelsAvx2(PrimitiveDictionary* dict) {
  MA_CHECK(dict->Register("map_hash_i64_col",
                          FlavorInfo{"avx2", FlavorSetId::kSimd,
                                     &MapHashAvx2})
               .ok());
  MA_CHECK(dict->Register("ht_semijoin_i64_col",
                          FlavorInfo{"avx2", FlavorSetId::kSimd,
                                     &SelExistsAvx2<true>})
               .ok());
  MA_CHECK(dict->Register("ht_antijoin_i64_col",
                          FlavorInfo{"avx2", FlavorSetId::kSimd,
                                     &SelExistsAvx2<false>})
               .ok());
  MA_CHECK(dict->Register("ht_probe_i64_col",
                          FlavorInfo{"avx2", FlavorSetId::kSimd,
                                     &ProbeAvx2})
               .ok());
}

}  // namespace ma
