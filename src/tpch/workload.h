// TPC-H workload driver: runs the 22 queries under a given engine
// configuration and captures per-query timings plus per-primitive-
// instance profiles (cycles, tuples, APH, affected flavor sets). The
// flavor-set impact tables (Tables 6-10) and the overall comparison
// (Table 11) are computed from several ModeRuns: because data and plans
// are deterministic, instance i of query q performs the same call
// sequence in every mode, so APHs align bucket-by-bucket and the paper's
// approximated OPT is the per-bucket minimum across modes.
#ifndef MA_TPCH_WORKLOAD_H_
#define MA_TPCH_WORKLOAD_H_

#include <string>
#include <vector>

#include "serve/workload_server.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace ma::tpch {

/// Profile of one primitive instance after a query ran.
struct InstanceProfile {
  std::string label;
  std::string signature;
  u32 affected_sets = 0;  // bitmask of FlavorSetBit()
  u64 calls = 0;
  u64 tuples = 0;
  u64 cycles = 0;
  Aph aph;
};

/// One full power run (22 queries) under one engine configuration.
struct ModeRun {
  std::string name;
  std::vector<f64> query_seconds;  // [q-1]
  std::vector<std::vector<InstanceProfile>> instances;  // [q-1][i]

  u64 TotalPrimitiveCycles() const;
  /// Cycles spent in instances affected by `set`.
  u64 AffectedCycles(FlavorSetId set) const;
  /// Geometric mean of per-query seconds.
  f64 GeoMeanSeconds() const;
};

/// Runs all 22 queries; fresh engine state per query (instances and
/// bandit state are per-query, as in Vectorwise). Every query runs its
/// plan (plans.h) serially through plan::QuerySession — the same entry
/// point the serving layer uses.
ModeRun RunAllQueries(const EngineConfig& config, const TpchData& data,
                      std::string name, bool quiet = true);

/// Concurrent serving driver: `submitters` threads each submit every
/// query `rounds` times through one WorkloadServer, wait
/// for their results, and check every completed table byte-for-byte
/// against a serial single-tenant baseline. Used by the serve stress
/// step in CI and by bench_scaling's concurrency section.
struct ServeWorkloadConfig {
  int submitters = 4;
  int rounds = 2;
  serve::ServerConfig server;
  /// > 0 arms probabilistic kInternal fault injection (serial batch and
  /// parallel morsel sites) on every submitted query — the retry loop
  /// must heal what fires, up to its attempt cap.
  f64 fault_probability = 0;
  u64 fault_seed = 7;
};
struct ServeWorkloadReport {
  serve::ServerStats stats;
  u64 ok = 0;        // completed with a table
  u64 failed = 0;    // executed, terminally failed (retries exhausted)
  u64 rejected = 0;  // shed kRejected, never executed
  /// Completed results whose bytes differ from the serial baseline.
  /// Any nonzero value is a determinism bug.
  u64 mismatches = 0;
  /// Shed queries that returned rows anyway. Must stay 0 — rejection
  /// means "never executed".
  u64 rejected_with_table = 0;
  /// MemoryBroker::leased_bytes() after the run. Must be 0.
  u64 leaked_lease_bytes = 0;
  bool clean() const {
    return mismatches == 0 && rejected_with_table == 0 &&
           leaked_lease_bytes == 0;
  }
};
ServeWorkloadReport RunWorkloadConcurrently(const TpchData& data,
                                            const ServeWorkloadConfig& cfg,
                                            bool quiet = true);

/// Convenience EngineConfigs for the evaluation modes.
EngineConfig DefaultConfig();
EngineConfig ForcedConfig(const std::string& flavor);
EngineConfig HeuristicConfig();
/// Adaptive with only `sets` (bitmask) eligible; kAllFlavorSets for all.
EngineConfig AdaptiveConfig(u32 sets = kAllFlavorSets);

/// Approximated OPT cycles for the instances affected by `set`: per APH
/// bucket, the minimum cycles across the given runs (paper §4.1).
u64 OptAffectedCycles(const std::vector<const ModeRun*>& runs,
                      FlavorSetId set);

}  // namespace ma::tpch

#endif  // MA_TPCH_WORKLOAD_H_
