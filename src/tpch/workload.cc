#include "tpch/workload.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "common/cycleclock.h"
#include "plan/query_session.h"
#include "storage/table_fingerprint.h"
#include "tpch/plans.h"

namespace ma::tpch {

u64 ModeRun::TotalPrimitiveCycles() const {
  u64 total = 0;
  for (const auto& q : instances) {
    for (const auto& inst : q) total += inst.cycles;
  }
  return total;
}

u64 ModeRun::AffectedCycles(FlavorSetId set) const {
  u64 total = 0;
  for (const auto& q : instances) {
    for (const auto& inst : q) {
      if (inst.affected_sets & FlavorSetBit(set)) total += inst.cycles;
    }
  }
  return total;
}

f64 ModeRun::GeoMeanSeconds() const {
  f64 log_sum = 0;
  for (const f64 s : query_seconds) log_sum += std::log(s);
  return std::exp(log_sum / static_cast<f64>(query_seconds.size()));
}

namespace {

/// Folds one engine's primitive instances into InstanceProfile records.
void HarvestProfiles(const Engine& engine,
                     std::vector<InstanceProfile>* out) {
  for (const auto& inst : engine.instances()) {
    InstanceProfile p;
    p.label = inst->label();
    p.signature = inst->entry()->signature;
    for (int s = 0; s < static_cast<int>(FlavorSetId::kNumSets); ++s) {
      const auto set = static_cast<FlavorSetId>(s);
      if (set != FlavorSetId::kDefault && inst->AffectedBy(set)) {
        p.affected_sets |= FlavorSetBit(set);
      }
    }
    p.calls = inst->calls();
    p.tuples = inst->tuples();
    p.cycles = inst->cycles();
    p.aph = inst->aph();
    out->push_back(std::move(p));
  }
}

}  // namespace

ModeRun RunAllQueries(const EngineConfig& config, const TpchData& data,
                      std::string name, bool quiet) {
  ModeRun run;
  run.name = std::move(name);
  run.query_seconds.resize(kNumQueries);
  run.instances.resize(kNumQueries);
  for (int q = 1; q <= kNumQueries; ++q) {
    // The QuerySession path — the same entry point the serving layer
    // drives — with a fresh session per query so instances and bandit
    // state stay per-query. Serial mode keeps primitive call sequences
    // identical across the evaluation modes (the APH alignment the OPT
    // approximation relies on).
    plan::SessionConfig sc;
    sc.engine = config;
    plan::QuerySession session(sc, &PrimitiveDictionary::Global());
    const plan::LogicalPlan p = PlanForQuery(data, q);
    const u64 t0 = CycleClock::Now();
    RunResult r = session.Run(p, plan::ExecMode::kSerial);
    r.total_cycles = CycleClock::Now() - t0;
    r.seconds = static_cast<f64>(r.total_cycles) / CycleClock::FrequencyHz();
    r.stages.primitives = session.engine()->TotalPrimitiveCycles();
    run.query_seconds[q - 1] = r.seconds;
    HarvestProfiles(*session.engine(), &run.instances[q - 1]);
    if (!quiet) {
      std::printf("  [%s] %-28s %8.3f ms, %zu rows\n", run.name.c_str(),
                  QueryName(q), r.seconds * 1e3,
                  r.table ? r.table->row_count() : 0);
    }
  }
  return run;
}

ServeWorkloadReport RunWorkloadConcurrently(const TpchData& data,
                                            const ServeWorkloadConfig& cfg,
                                            bool quiet) {
  // Serial single-tenant baseline: the bytes every concurrent result
  // must reproduce exactly.
  std::map<int, u64> baseline;
  {
    plan::QuerySession session;
    for (int q = 1; q <= kNumQueries; ++q) {
      const plan::LogicalPlan p = PlanForQuery(data, q);
      RunResult r = session.Run(p, plan::ExecMode::kSerial);
      MA_CHECK(r.status.ok() && r.table != nullptr);
      baseline[q] = ExactFingerprint(*r.table);
    }
  }

  ServeWorkloadReport report;
  std::mutex report_mu;
  {
    serve::WorkloadServer server(cfg.server);
    std::vector<std::thread> submitters;
    submitters.reserve(cfg.submitters);
    for (int s = 0; s < cfg.submitters; ++s) {
      submitters.emplace_back([&, s] {
        // One injector per submitter: FaultInjector is thread-safe,
        // but per-submitter seeds decorrelate which hits fire.
        FaultInjector injector(cfg.fault_seed + static_cast<u64>(s));
        if (cfg.fault_probability > 0) {
          injector.ArmRandomFailure("engine/batch", cfg.fault_probability,
                                    StatusCode::kInternal,
                                    "injected serve fault");
          injector.ArmRandomFailure("parallel/morsel",
                                    cfg.fault_probability,
                                    StatusCode::kInternal,
                                    "injected serve fault");
        }
        // Plans are borrowed by the server until Wait() — a deque
        // keeps every element's address stable while we keep pushing.
        std::deque<plan::LogicalPlan> plans;
        std::vector<std::pair<int, serve::QueryHandle>> handles;
        for (int round = 0; round < cfg.rounds; ++round) {
          for (int q = 1; q <= kNumQueries; ++q) {
            plans.push_back(PlanForQuery(data, q));
            serve::SubmitOptions opts;
            if (cfg.fault_probability > 0) opts.injector = &injector;
            handles.emplace_back(
                q, server.Submit(&plans.back(),
                                 "s" + std::to_string(s) + "/q" +
                                     std::to_string(q),
                                 opts));
          }
        }
        u64 ok = 0, failed = 0, rejected = 0, mism = 0, rej_table = 0;
        for (auto& [q, handle] : handles) {
          const serve::QueryResult& qr = handle.Wait();
          if (qr.run.status.ok()) {
            ++ok;
            if (qr.run.table == nullptr ||
                ExactFingerprint(*qr.run.table) != baseline[q]) {
              ++mism;
            }
          } else if (qr.run.reason == TerminationReason::kRejected) {
            ++rejected;
            if (qr.run.table != nullptr) ++rej_table;
          } else {
            ++failed;
          }
        }
        std::lock_guard<std::mutex> lock(report_mu);
        report.ok += ok;
        report.failed += failed;
        report.rejected += rejected;
        report.mismatches += mism;
        report.rejected_with_table += rej_table;
      });
    }
    for (std::thread& t : submitters) t.join();
    server.Shutdown();
    report.stats = server.stats();
    report.leaked_lease_bytes = server.broker()->leased_bytes();
  }
  if (!quiet) {
    std::printf(
        "  serve: %llu ok, %llu failed, %llu rejected | retries %llu, "
        "degraded %llu | mismatches %llu, leaked %llu bytes\n",
        static_cast<unsigned long long>(report.ok),
        static_cast<unsigned long long>(report.failed),
        static_cast<unsigned long long>(report.rejected),
        static_cast<unsigned long long>(report.stats.retries),
        static_cast<unsigned long long>(report.stats.degraded_to_serial),
        static_cast<unsigned long long>(report.mismatches),
        static_cast<unsigned long long>(report.leaked_lease_bytes));
    std::printf(
        "  knowledge: plan cache %llu hits / %llu misses | %llu "
        "profiles merged, %llu store rows\n",
        static_cast<unsigned long long>(report.stats.plan_cache_hits),
        static_cast<unsigned long long>(report.stats.plan_cache_misses),
        static_cast<unsigned long long>(report.stats.profiles_merged),
        static_cast<unsigned long long>(report.stats.store_profiles));
  }
  return report;
}

EngineConfig DefaultConfig() {
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kDefault;
  return cfg;
}

EngineConfig ForcedConfig(const std::string& flavor) {
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kForcedFlavor;
  cfg.adaptive.forced_flavor = flavor;
  return cfg;
}

EngineConfig HeuristicConfig() {
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kHeuristic;
  return cfg;
}

EngineConfig AdaptiveConfig(u32 sets) {
  EngineConfig cfg;
  cfg.adaptive.mode = ExecMode::kAdaptive;
  cfg.adaptive.enabled_sets = sets;
  // The paper tuned vw-greedy(1024,8,2) on instances making 16K-32K
  // calls (SF100). Our scaled-down workload makes 1-3K calls per
  // instance, so the exploration period scales down proportionally —
  // same explore/exploit ratio, faster reaction.
  cfg.adaptive.params.explore_period = 256;
  cfg.adaptive.params.exploit_period = 8;
  cfg.adaptive.params.explore_length = 2;
  return cfg;
}

u64 OptAffectedCycles(const std::vector<const ModeRun*>& runs,
                      FlavorSetId set) {
  MA_CHECK(!runs.empty());
  u64 opt = 0;
  for (size_t q = 0; q < runs[0]->instances.size(); ++q) {
    for (size_t i = 0; i < runs[0]->instances[q].size(); ++i) {
      if (!(runs[0]->instances[q][i].affected_sets & FlavorSetBit(set))) {
        continue;
      }
      std::vector<const Aph*> aphs;
      for (const ModeRun* run : runs) {
        // Instance alignment can drift when a mode changes plan shape
        // (it does not: plans are mode-independent); guard anyway.
        if (q < run->instances.size() &&
            i < run->instances[q].size()) {
          aphs.push_back(&run->instances[q][i].aph);
        }
      }
      opt += Aph::OptCycles(aphs);
    }
  }
  return opt;
}

}  // namespace ma::tpch
