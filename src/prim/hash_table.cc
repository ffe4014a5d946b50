#include "prim/hash_table.h"

namespace ma {

GroupTable::GroupTable(size_t initial_buckets) {
  size_t b = 16;
  while (b < initial_buckets) b <<= 1;
  slot_keys_.assign(b, 0);
  slot_gids_.assign(b, kEmpty);
  mask_ = b - 1;
}

void GroupTable::ArmRunMode(int lead_shift) {
  MA_CHECK(num_groups() == 0 && lead_shift >= 0 && lead_shift < 64);
  run_shift_ = lead_shift;
  run_lead_ = -1;
}

void GroupTable::StartRun(i64 lead) {
  // Every occupied slot belongs to the ending run, so clearing each
  // group's cluster from its home bucket onward empties exactly them.
  for (u32 gid = slot_base_; gid < num_groups(); ++gid) {
    for (u64 b = HashKey(keys_by_gid_[gid]) & mask_;
         slot_gids_[b] != kEmpty; b = (b + 1) & mask_) {
      slot_gids_[b] = kEmpty;
    }
  }
  slot_base_ = num_groups();
  run_lead_ = lead;
}

void GroupTable::LeaveRunMode(size_t n) {
  run_shift_ = -1;
  slot_base_ = 0;
  size_t nb = mask_ + 1;
  while ((num_groups() + n) * 10 >= nb * 6) nb <<= 1;
  Rehash(nb);
}

void GroupTable::EnsureRoom(size_t n) {
  const size_t used = num_groups() - slot_base_;
  const size_t buckets = mask_ + 1;
  if ((used + n) * 10 >= buckets * 6) {  // keep load factor under 60%
    size_t nb = buckets;
    while ((used + n) * 10 >= nb * 6) nb <<= 1;
    Rehash(nb);
  }
}

void GroupTable::Rehash(size_t new_buckets) {
  slot_keys_.assign(new_buckets, 0);
  slot_gids_.assign(new_buckets, kEmpty);
  mask_ = new_buckets - 1;
  for (u32 gid = slot_base_; gid < keys_by_gid_.size(); ++gid) {
    const i64 key = keys_by_gid_[gid];
    u64 b = HashKey(key) & mask_;
    while (slot_gids_[b] != kEmpty) b = (b + 1) & mask_;
    slot_keys_[b] = key;
    slot_gids_[b] = gid;
  }
}

u32 GroupTable::FindOrInsert(i64 key) {
  if (in_run_mode()) {
    const i64 lead = key >> run_shift_;
    if (lead < run_lead_) {
      LeaveRunMode(1);
    } else if (lead > run_lead_) {
      StartRun(lead);
    }
  }
  EnsureRoom(1);
  u64 b = HashKey(key) & mask_;
  while (slot_gids_[b] != kEmpty) {
    if (slot_keys_[b] == key) return slot_gids_[b];
    b = (b + 1) & mask_;
  }
  const u32 gid = AppendGroup(key);
  slot_keys_[b] = key;
  slot_gids_[b] = gid;
  return gid;
}

i64 GroupTable::Find(i64 key) const {
  MA_CHECK(!in_run_mode());
  u64 b = HashKey(key) & mask_;
  while (slot_gids_[b] != kEmpty) {
    if (slot_keys_[b] == key) return slot_gids_[b];
    b = (b + 1) & mask_;
  }
  return -1;
}

void GroupTable::Clear() {
  slot_keys_.assign(slot_keys_.size(), 0);
  slot_gids_.assign(slot_gids_.size(), kEmpty);
  slot_base_ = 0;
  run_shift_ = -1;
  run_lead_ = -1;
  keys_by_gid_.clear();
}

void JoinHashTable::Append(const i64* keys, size_t n, const sel_t* sel,
                           size_t sel_n) {
  MA_CHECK(!finalized_);
  if (sel != nullptr) {
    for (size_t j = 0; j < sel_n; ++j) keys_.push_back(keys[sel[j]]);
  } else {
    keys_.insert(keys_.end(), keys, keys + n);
  }
}

void JoinHashTable::Finalize() {
  MA_CHECK(!finalized_);
  size_t b = 16;
  while (b < keys_.size() * 2) b <<= 1;
  heads_.assign(b, kNil);
  next_.assign(keys_.size(), kNil);
  mask_ = b - 1;
  for (size_t i = 0; i < keys_.size(); ++i) {
    const u64 bucket = HashKey(keys_[i]) & mask_;
    next_[i] = heads_[bucket];
    heads_[bucket] = static_cast<u32>(i);
  }
  finalized_ = true;
}

std::vector<u64> JoinHashTable::Lookup(i64 key) const {
  MA_CHECK(finalized_);
  std::vector<u64> out;
  u32 e = heads_[HashKey(key) & mask_];
  while (e != kNil) {
    if (keys_[e] == key) out.push_back(e);
    e = next_[e];
  }
  return out;
}

}  // namespace ma
