// Approximated Performance History (paper §1.1). Vectorwise profiles
// every primitive call; storing 100K+ measurements per primitive instance
// is too heavy, so the APH keeps at most `max_buckets` buckets (512 in
// the paper). When full, neighboring buckets merge pairwise down to half,
// doubling the number of calls each bucket represents: after k merge
// rounds every full bucket covers 2^k consecutive calls.
#ifndef MA_ADAPT_APH_H_
#define MA_ADAPT_APH_H_

#include <vector>

#include "common/types.h"

namespace ma {

/// Buckets of every primitive instance's APH: the paper's 512.
inline constexpr size_t kAphBuckets = 512;

class Aph {
 public:
  struct Bucket {
    u64 calls = 0;
    u64 tuples = 0;
    u64 cycles = 0;

    /// Average cost in cycles/tuple of the calls in this bucket.
    f64 CostPerTuple() const {
      return tuples == 0 ? 0.0 : static_cast<f64>(cycles) / tuples;
    }
  };

  explicit Aph(size_t max_buckets = kAphBuckets);

  /// Records one primitive call.
  void Add(u64 tuples, u64 cycles);

  size_t max_buckets() const { return max_buckets_; }
  /// Number of calls each *full* bucket currently represents (2^k).
  u64 calls_per_bucket() const { return calls_per_bucket_; }

  const std::vector<Bucket>& buckets() const { return buckets_; }
  u64 total_calls() const { return total_calls_; }
  u64 total_tuples() const { return total_tuples_; }
  u64 total_cycles() const { return total_cycles_; }

  /// Overall average cycles/tuple.
  f64 MeanCostPerTuple() const {
    return total_tuples_ == 0
               ? 0.0
               : static_cast<f64>(total_cycles_) / total_tuples_;
  }

  void Reset();

  /// Pointwise minimum cost across several aligned histories: the paper's
  /// approximated OPT for Tables 6-10 takes, for each APH bucket, the
  /// minimum time among all flavors. Histories must stem from runs with
  /// the same call sequence; buckets are aligned by call index. Returns
  /// total OPT cycles.
  static u64 OptCycles(const std::vector<const Aph*>& flavors);

 private:
  void MergePairs();

  size_t max_buckets_;
  u64 calls_per_bucket_ = 1;
  std::vector<Bucket> buckets_;
  u64 total_calls_ = 0;
  u64 total_tuples_ = 0;
  u64 total_cycles_ = 0;
};

}  // namespace ma

#endif  // MA_ADAPT_APH_H_
