#include "prim/hash_kernels.h"

#include "registry/primitive_dictionary.h"

namespace ma {
namespace hash_detail {

size_t InsertCheck(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  u32* out = static_cast<u32*>(c.res);
  auto* table = static_cast<GroupTable*>(c.state);
  GroupTable::Slots s = table->slots();
  auto one = [&](sel_t i) {
    const i64 key = keys[i];
    u64 b = HashKey(key) & s.mask;
    for (;;) {
      const u32 gid = s.gids[b];
      if (gid == GroupTable::kEmpty) {
        const u32 fresh = table->AppendGroup(key);
        s.keys[b] = key;
        s.gids[b] = fresh;
        out[i] = fresh;
        return;
      }
      if (s.keys[b] == key) {
        out[i] = gid;
        return;
      }
      b = (b + 1) & s.mask;
    }
  };
  const size_t m = c.sel != nullptr ? c.sel_n : c.n;
  size_t j = 0;
  if (table->in_run_mode()) {
    // Run mode (see GroupTable): the slots hold only the current run.
    // A greater leading part starts a new run; a smaller one leaves run
    // mode, and the rest of the vector goes through the hash loop below.
    const int shift = table->run_shift();
    i64 lead = table->run_lead();
    for (; j < m; ++j) {
      const sel_t i = c.sel != nullptr ? c.sel[j] : static_cast<sel_t>(j);
      const i64 key_lead = keys[i] >> shift;
      if (key_lead != lead) {
        if (key_lead < lead) break;
        table->StartRun(key_lead);
        lead = key_lead;
      }
      one(i);
    }
    if (j == m) return m;
    table->LeaveRunMode(m - j);
    s = table->slots();
  }
  if (c.sel != nullptr) {
    for (; j < m; ++j) one(c.sel[j]);
  } else {
    for (; j < m; ++j) one(static_cast<sel_t>(j));
  }
  return m;
}

size_t Probe(const PrimCall& c) {
  const i64* keys = static_cast<const i64*>(c.in1);
  auto* st = static_cast<ProbeState*>(c.state);
  const JoinHashTable::View v = st->table->view();
  size_t emitted = 0;
  size_t pos = st->cursor.pos;
  u32 chain = st->cursor.chain;
  const size_t limit = (c.sel != nullptr) ? c.sel_n : c.n;

  while (pos < limit) {
    const sel_t i = (c.sel != nullptr) ? c.sel[pos] : static_cast<sel_t>(pos);
    const i64 key = keys[i];
    if (chain == JoinHashTable::kNil) {
      chain = v.heads[HashKey(key) & v.mask];
    }
    while (chain != JoinHashTable::kNil) {
      const u32 e = chain;
      chain = v.next[e];
      if (v.keys[e] == key) {
        if (emitted == st->out_capacity) {
          // Output full: remember that entry `e` matched but has not been
          // emitted — re-test it on resume by rewinding the chain to e.
          st->cursor.pos = pos;
          st->cursor.chain = e;
          st->cursor.done = false;
          return emitted;
        }
        st->out_probe_pos[emitted] = i;
        st->out_build_row[emitted] = e;
        ++emitted;
      }
    }
    ++pos;
    chain = JoinHashTable::kNil;
  }
  st->cursor.pos = pos;
  st->cursor.chain = JoinHashTable::kNil;
  st->cursor.done = true;
  return emitted;
}

}  // namespace hash_detail

void RegisterHashKernels(PrimitiveDictionary* dict) {
  using namespace hash_detail;
  MA_CHECK(dict->Register("map_hash_i64_col",
                          FlavorInfo{"default", FlavorSetId::kDefault,
                                     &MapHash<true>},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("map_hash_i64_col",
                          FlavorInfo{"nounroll", FlavorSetId::kUnroll,
                                     &MapHash<false>})
               .ok());
  MA_CHECK(dict->Register("ht_insertcheck_i64_col",
                          FlavorInfo{"default", FlavorSetId::kDefault,
                                     &InsertCheck},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_probe_i64_col",
                          FlavorInfo{"default", FlavorSetId::kDefault,
                                     &Probe},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_semijoin_i64_col",
                          FlavorInfo{"branching", FlavorSetId::kDefault,
                                     &SelExists<true, true>},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_semijoin_i64_col",
                          FlavorInfo{"nobranching", FlavorSetId::kBranch,
                                     &SelExists<true, false>})
               .ok());
  MA_CHECK(dict->Register("ht_antijoin_i64_col",
                          FlavorInfo{"branching", FlavorSetId::kDefault,
                                     &SelExists<false, true>},
                          /*is_default=*/true)
               .ok());
  MA_CHECK(dict->Register("ht_antijoin_i64_col",
                          FlavorInfo{"nobranching", FlavorSetId::kBranch,
                                     &SelExists<false, false>})
               .ok());
}

}  // namespace ma
