// Hash-table substrates used by the vectorized hash aggregation and hash
// join operators. Both tables key on i64 (composite keys are encoded
// into one i64 by the planner; strings are dictionary-encoded by the
// storage layer), which keeps every vectorized kernel a tight loop over
// fixed-width data — the Vectorwise way.
#ifndef MA_PRIM_HASH_TABLE_H_
#define MA_PRIM_HASH_TABLE_H_

#include <limits>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace ma {

/// Murmur3-style 64-bit finalizer; the `bf_hash` of the paper's bloom
/// filter listing and the hash used by both tables.
inline u64 HashKey(i64 key) {
  u64 h = static_cast<u64>(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// GroupTable: maps i64 keys to dense group ids [0, num_groups). Used by
/// hash aggregation ("hash_insertcheck" primitives): each input vector of
/// keys is translated into a vector of group ids, then aggregate-update
/// primitives scatter into accumulator arrays indexed by group id.
///
/// Open addressing with linear probing; grows by doubling when load
/// exceeds 60%. Growth happens only between vectors (EnsureRoom), so the
/// insert-check kernels never rehash mid-loop.
///
/// Run mode. Input clustered on its leading key (lineitem arrives in
/// l_orderkey order) needs no whole-input table: once armed with the
/// shift of the leading key's bits, and while the leading parts
/// (`key >> shift`) of arriving keys do not decrease, the slots hold only
/// the current *run* — the groups sharing the current leading value. A
/// new leading value clears the previous run's slots (O(run)); a group
/// can never reappear once its run has passed. The dense gid -> key array
/// grows as in hash mode, so gids are first-seen either way and the
/// runs' gids ascend by leading part. The first key whose leading part
/// is smaller leaves run mode for good: every group is rehashed into the
/// slots and the table continues as a plain hash table. Find() reads
/// the slots, so it needs a table out of run mode (LeaveRunMode(0)).
class GroupTable {
 public:
  explicit GroupTable(size_t initial_buckets = 2048);

  /// Enters run mode on an empty table; `key >> lead_shift` is a key's
  /// leading part.
  void ArmRunMode(int lead_shift);
  bool in_run_mode() const { return run_shift_ >= 0; }
  int run_shift() const { return run_shift_; }
  /// Leading part of the current run (-1 before the first key).
  i64 run_lead() const { return run_lead_; }

  /// Run mode: starts the run of leading part `lead` (greater than the
  /// current one), clearing the previous run's slots.
  void StartRun(i64 lead);

  /// Leaves run mode for good: rehashes every group into the slots,
  /// with room for `n` more insertions.
  void LeaveRunMode(size_t n);

  /// Guarantees room for `n` more insertions without exceeding the load
  /// factor; rehashes if needed. Call once per input vector. In run mode
  /// the room is counted against the current run, not all groups.
  void EnsureRoom(size_t n);

  u32 num_groups() const { return static_cast<u32>(keys_by_gid_.size()); }

  /// Key that was assigned group id `gid`.
  i64 KeyOfGroup(u32 gid) const { return keys_by_gid_[gid]; }
  /// Keys by group id (first-seen order).
  const std::vector<i64>& keys_by_gid() const { return keys_by_gid_; }

  /// Scalar find-or-insert, honoring run mode (kernels inline their own
  /// loop over this logic; this one is for operators and tests).
  u32 FindOrInsert(i64 key);

  /// Scalar lookup; returns -1 if absent. Not in run mode.
  i64 Find(i64 key) const;

  /// Empties the table and leaves run mode.
  void Clear();

  // Exposed to the insert-check kernels.
  struct Slots {
    i64* keys;
    u32* gids;
    u64 mask;
  };
  Slots slots() {
    return Slots{slot_keys_.data(), slot_gids_.data(), mask_};
  }
  static constexpr u32 kEmpty = std::numeric_limits<u32>::max();

  /// Appends a new group for `key`; used by kernels after finding an
  /// empty slot. Returns the new gid.
  u32 AppendGroup(i64 key) {
    keys_by_gid_.push_back(key);
    return static_cast<u32>(keys_by_gid_.size() - 1);
  }

 private:
  void Rehash(size_t new_buckets);

  std::vector<i64> slot_keys_;
  std::vector<u32> slot_gids_;  // kEmpty marks a free slot
  u64 mask_ = 0;
  /// The slots hold gids [slot_base_, num_groups): all groups in hash
  /// mode, the current run in run mode.
  u32 slot_base_ = 0;
  int run_shift_ = -1;  // -1: hash mode
  i64 run_lead_ = -1;
  std::vector<i64> keys_by_gid_;
};

/// JoinHashTable: chaining hash table for hash joins. Build phase appends
/// keys; a build row's id is its position in append order. Finalize()
/// links the chains; the probe kernels walk chains per probe key,
/// supporting duplicate build keys.
class JoinHashTable {
 public:
  JoinHashTable() = default;

  /// Appends build keys: `keys[0, n)`, or `keys[sel[j]]` for j < sel_n
  /// when `sel` is set.
  void Append(const i64* keys, size_t n, const sel_t* sel, size_t sel_n);

  /// Builds the bucket directory. Must be called before probing.
  void Finalize();

  size_t num_rows() const { return keys_.size(); }
  bool finalized() const { return finalized_; }

  static constexpr u32 kNil = std::numeric_limits<u32>::max();

  // Probe-side view, consumed by the probe kernels. A chain entry is the
  // build row id of the key it holds.
  struct View {
    const u32* heads;
    const u32* next;
    const i64* keys;
    u64 mask;
  };
  View view() const {
    return View{heads_.data(), next_.data(), keys_.data(), mask_};
  }

  /// Scalar probe for tests: returns build rows matching `key`.
  std::vector<u64> Lookup(i64 key) const;

 private:
  std::vector<i64> keys_;
  std::vector<u32> next_;
  std::vector<u32> heads_;
  u64 mask_ = 0;
  bool finalized_ = false;
};

/// Cursor for resumable vectorized probing: a probe vector can yield more
/// matches than the output vector holds (duplicate build keys), so the
/// kernel records where to resume.
struct ProbeCursor {
  size_t pos = 0;       // index into the probe vector (or its selection)
  u32 chain = JoinHashTable::kNil;  // next chain entry to test, if mid-chain
  bool done = true;
};

/// State bundle handed to probe kernels through PrimCall::state.
struct ProbeState {
  const JoinHashTable* table = nullptr;
  ProbeCursor cursor;
  /// Outputs: pairs (probe position within vector, build row id).
  sel_t* out_probe_pos = nullptr;
  u64* out_build_row = nullptr;
  size_t out_capacity = 0;
};

}  // namespace ma

#endif  // MA_PRIM_HASH_TABLE_H_
