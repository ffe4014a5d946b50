// workload_driver: concurrent-serving stress binary for the sanitizer
// CI jobs. N submitter threads push the TPC-H queries
// through one WorkloadServer — optionally with probabilistic fault
// injection the retry loop must heal — and the process exits nonzero
// unless the run is clean:
//
//   - every completed result byte-identical to the serial baseline,
//   - every shed query kRejected with no table,
//   - the memory broker's lease ledger back at zero.
//
// The whole workload runs TWICE against one shared knowledge store: a
// cold pass that learns flavor profiles from scratch, then a warm pass
// whose servers seed bandit priors from everything the cold pass
// merged — so the sanitizers see concurrent Merge/Snapshot/plan-cache
// traffic on a populated store, and the byte-identity guard proves
// warm-starting never leaks into result bytes. After both passes the
// store must survive a serialize → deserialize → serialize round trip
// bit-exactly.
//
// Usage: workload_driver [submitters] [rounds] [fault_probability]
// Defaults stress 4 submitters x 2 rounds with 2% injected faults —
// small enough to finish under TSan's ~10x slowdown, hot enough that
// admission, leasing, retries and degradation all actually fire.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "knowledge/profile_store.h"
#include "tpch/dbgen.h"
#include "tpch/workload.h"

using namespace ma;

namespace {

/// One pass's pass/fail accounting, shared by cold and warm.
bool CheckReport(const char* pass, const tpch::ServeWorkloadReport& report) {
  bool ok = report.clean();
  if (report.ok == 0) {
    std::printf("FAIL[%s]: no query completed successfully\n", pass);
    ok = false;
  }
  if (report.mismatches > 0) {
    std::printf("FAIL[%s]: %llu results differ from the serial baseline\n",
                pass, static_cast<unsigned long long>(report.mismatches));
  }
  if (report.rejected_with_table > 0) {
    std::printf(
        "FAIL[%s]: %llu rejected queries returned a table\n", pass,
        static_cast<unsigned long long>(report.rejected_with_table));
  }
  if (report.leaked_lease_bytes > 0) {
    std::printf("FAIL[%s]: %llu lease bytes leaked\n", pass,
                static_cast<unsigned long long>(report.leaked_lease_bytes));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  tpch::ServeWorkloadConfig cfg;
  cfg.submitters = argc > 1 ? std::atoi(argv[1]) : 4;
  cfg.rounds = argc > 2 ? std::atoi(argv[2]) : 2;
  cfg.fault_probability = argc > 3 ? std::atof(argv[3]) : 0.02;

  cfg.server.pool_threads = 4;
  cfg.server.max_concurrent = 3;
  cfg.server.max_parallel_queries = 2;
  // Admit everything: this binary stresses execution-side concurrency
  // (leases, retries, degradation); shedding behavior has its own
  // deterministic tests in tests/serve_test.cc.
  cfg.server.admission.max_queue_depth = 1 << 20;
  cfg.server.admission.queue_deadline = std::chrono::milliseconds(0);
  // A pool of 8 x 32 MiB budgets over 3 concurrent queries: leases
  // always grant but the ledger is exercised on every query.
  cfg.server.memory_pool_bytes = 256ull << 20;
  cfg.server.default_query_budget = 32ull << 20;
  // One store across both passes: the cold pass populates it, the warm
  // pass seeds from it while still merging into it concurrently.
  auto store = std::make_shared<knowledge::ProfileStore>();
  cfg.server.knowledge.store = store;

  tpch::TpchConfig data_cfg;
  data_cfg.scale_factor = 0.01;  // sanitizer-sized
  const auto data = tpch::Generate(data_cfg);

  std::printf("workload_driver: %d submitters x %d rounds, fault p=%.3f\n",
              cfg.submitters, cfg.rounds, cfg.fault_probability);
  std::printf("pass 1 (cold store):\n");
  const tpch::ServeWorkloadReport cold =
      tpch::RunWorkloadConcurrently(*data, cfg, /*quiet=*/false);
  bool pass = CheckReport("cold", cold);
  if (store->size() == 0) {
    std::printf("FAIL[cold]: nothing learned into the knowledge store\n");
    pass = false;
  }

  std::printf("pass 2 (warm store, %llu profiles):\n",
              static_cast<unsigned long long>(store->size()));
  const tpch::ServeWorkloadReport warm =
      tpch::RunWorkloadConcurrently(*data, cfg, /*quiet=*/false);
  pass = CheckReport("warm", warm) && pass;
  if (warm.stats.profiles_merged == 0) {
    std::printf("FAIL[warm]: warm pass merged no profiles\n");
    pass = false;
  }

  // Persistence round trip on the store both passes fed: serialize,
  // rehydrate a fresh store, serialize again — bit-exact or bust.
  const std::string bytes = store->Serialize();
  knowledge::ProfileStore rehydrated;
  const Status round_trip = rehydrated.Deserialize(bytes);
  if (!round_trip.ok() || rehydrated.Serialize() != bytes) {
    std::printf("FAIL: knowledge store round trip not bit-exact (%s)\n",
                round_trip.ToString().c_str());
    pass = false;
  }
  std::printf("workload_driver: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
