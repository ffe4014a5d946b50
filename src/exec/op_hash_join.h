// HashJoin: vectorized hash join over i64 keys. The build child is
// drained at Open() into a SharedJoinBuild — compacted column storage, a
// chaining hash table and optionally a bloom filter — the same build a
// staged plan fills in parallel; probe batches then flow through
// (optional) sel_bloomfilter -> ht_probe -> map_fetch primitives, all of
// them adaptive primitive instances.
//
// Join kinds: inner (emits matched pairs, duplicates supported), semi
// (probe rows with >= 1 match), anti (probe rows with no match) — the
// latter two narrow the probe batch's selection vector in place — and
// left outer (probe side preserved: matched probe rows emit like inner,
// missed probe rows emit once with default build payloads — zero /
// empty string — fetched from a default row appended after the build
// columns).
#ifndef MA_EXEC_OP_HASH_JOIN_H_
#define MA_EXEC_OP_HASH_JOIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/operator.h"
#include "prim/bloom.h"
#include "prim/hash_table.h"

namespace ma {

struct HashJoinSpec {
  enum class Kind : u8 { kInner, kSemi, kAnti, kLeftOuter };

  std::string build_key;  // i64 column of the build child
  std::string probe_key;  // i64 column of the probe child
  /// Build columns materialized into the output: (source name, out name).
  std::vector<std::pair<std::string, std::string>> build_outputs;
  /// Probe columns passed through (inner/left outer: gathered at match
  /// positions; semi/anti: all probe columns pass through, this list is
  /// ignored).
  std::vector<std::string> probe_outputs;
  Kind kind = Kind::kInner;
  /// Pre-filter probe keys with a bloom filter over the build keys —
  /// pays off when most probe keys miss (paper §2 Loop Fission).
  /// Honoured only where BloomApplies().
  bool use_bloom = false;
  /// Declared types of build_outputs, parallel to it (optional). Filled
  /// by the plan compiler; SharedJoinBuild::Finish types the columns of
  /// an *empty* build side from them, so a left outer join over it still
  /// has a default payload row. Hand-built trees may leave it empty,
  /// except for a left outer join whose build side may be empty.
  std::vector<PhysicalType> build_output_types;

  /// True when a bloom filter can discard probe rows of this join: it
  /// asks for one, and it is an inner or semi join. A left outer join
  /// must emit its missed probe rows, and an anti join keeps exactly
  /// them, so neither may discard a miss. The build, the probe and the
  /// staged bloom strategy site all follow this one rule.
  bool BloomApplies() const {
    return use_bloom && (kind == Kind::kInner || kind == Kind::kSemi);
  }
};

/// Resident bytes a hash-join build charges per build row on top of its
/// output columns: the key, chain and directory slots.
inline constexpr u64 kJoinBuildBytesPerRow = 16;

/// The build side of a hash join: its key table, build output columns
/// and bloom filter. The serial operator fills a private one from its
/// build child; a staged plan fills one per build morsel and
/// concatenates them in morsel order, so either way a build row's id is
/// its position in serial drain order. Once finished it is immutable,
/// and any number of HashJoinOperators can probe it concurrently without
/// synchronization. Per-probe scratch (bloom temporaries, cursors,
/// output vectors) stays in the operators.
struct SharedJoinBuild {
  JoinHashTable ht;
  /// Materialized build output columns, parallel to
  /// HashJoinSpec::build_outputs. Created by the first appended batch,
  /// or by Finish() from the declared types; an empty build without
  /// declared types has none.
  std::vector<std::unique_ptr<Column>> cols;
  std::unique_ptr<BloomFilter> bloom;  // null when the join skips bloom

  /// Appends one build-side batch: its live keys and build outputs.
  void AppendBatch(const Batch& batch, const HashJoinSpec& spec);
  /// Appends the rows of another unfinished build after this one's.
  void AppendPart(const SharedJoinBuild& part);
  /// Seals the build: types the columns an empty build never created
  /// from spec.build_output_types, finalizes the table, appends a left
  /// outer join's default row and, when `use_bloom` and
  /// spec.BloomApplies(), fills the bloom filter. `use_bloom` is
  /// spec.use_bloom unless a strategy hint overrides it. Rejects a left
  /// outer join over an empty build without declared types: its default
  /// row has no types.
  Status Finish(const HashJoinSpec& spec, bool use_bloom);
};

class HashJoinOperator : public Operator {
 public:
  HashJoinOperator(Engine* engine, OperatorPtr build, OperatorPtr probe,
                   HashJoinSpec spec, std::string label = "hashjoin");

  /// Probe-only operator over a prebuilt, shared (read-only) build side.
  /// Open() skips the build drain; primitive instances are still created
  /// in this operator's engine, so each worker thread keeps its own
  /// bandit state while probing the same table.
  HashJoinOperator(Engine* engine, const SharedJoinBuild* shared,
                   OperatorPtr probe, HashJoinSpec spec,
                   std::string label = "hashjoin");

  Status Open() override;
  bool Next(Batch* out) override;

  /// Build rows after Open().
  size_t build_rows() const { return build_->ht.num_rows(); }

 private:
  bool NextInner(Batch* out);
  bool NextSemiAnti(Batch* out);
  bool NextLeftOuter(Batch* out);
  /// Narrows `batch`'s selection to the rows whose probe key (column
  /// `key_idx`) may be in the bloom filter.
  void ApplyBloom(Batch* batch, int key_idx);
  /// Gathers `n` output rows: probe columns at probe-batch positions
  /// `probe_pos`, build columns at build rows `build_row` — the
  /// materialization shared by the inner and left-outer paths.
  void EmitGathered(Batch* out, const u64* probe_pos, const u64* build_row,
                    size_t n);

  OperatorPtr build_input_;  // null when probing a shared build
  OperatorPtr probe_;
  HashJoinSpec spec_;
  std::string label_;

  /// The build probed: `own_build_` once Open() drained `build_input_`,
  /// or the shared one.
  const SharedJoinBuild* build_ = nullptr;
  SharedJoinBuild own_build_;
  // Per-operator bloom scratch (thread-local even over a shared filter).
  std::vector<u8> bloom_tmp_;
  BloomProbeState bloom_state_;

  // Primitive instances.
  PrimitiveInstance* probe_inst_ = nullptr;
  PrimitiveInstance* bloom_inst_ = nullptr;
  PrimitiveInstance* exists_inst_ = nullptr;
  std::vector<PrimitiveInstance*> fetch_build_;   // per build output
  std::vector<PrimitiveInstance*> fetch_probe_;   // per probe output

  // Probe-side streaming state.
  Batch probe_batch_;
  bool probe_batch_valid_ = false;
  ProbeState probe_state_;
  std::vector<sel_t> match_pos_;
  std::vector<u64> match_row_;
  std::vector<u64> match_pos64_;
  /// Left-outer state for the current probe batch: the drained match
  /// stream, then the merged emission lists (probe position, build row —
  /// the default row for misses) consumed in vector-sized chunks.
  std::vector<sel_t> outer_pos_;
  std::vector<u64> outer_row_;
  std::vector<u64> outer_emit_pos_;
  std::vector<u64> outer_emit_row_;
  size_t outer_emit_offset_ = 0;
  /// Pooled output vectors (per probe/build output column), reused every
  /// batch instead of allocating fresh kMaxVectorSize buffers.
  std::vector<std::shared_ptr<Vector>> out_probe_vecs_;
  std::vector<std::shared_ptr<Vector>> out_build_vecs_;
};

}  // namespace ma

#endif  // MA_EXEC_OP_HASH_JOIN_H_
