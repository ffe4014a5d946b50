// Figure 11: Micro Adaptive execution tracking the lower envelope of the
// flavors, per primitive instance. For each panel we run the query with
// each fixed flavor and once adaptively, and print the aligned APHs.
#include <map>

#include "bench_util.h"
#include "plan/query_session.h"
#include "tpch/plans.h"
#include "tpch/workload.h"

namespace ma::tpch {
namespace {

struct PanelSpec {
  int query;
  std::string needle;  // instance label substring
  const char* title;
  std::vector<const char*> flavors;  // fixed flavors to compare
  u32 adaptive_sets;
};

void Panel(const TpchData& data, const PanelSpec& spec) {
  std::printf("\n--- %s ---\n", spec.title);
  std::map<std::string, Aph> series;
  auto capture = [&](const EngineConfig& cfg, const std::string& name) {
    plan::SessionConfig sc;
    sc.engine = cfg;
    plan::QuerySession session(sc);
    session.Run(PlanForQuery(data, spec.query), plan::ExecMode::kSerial);
    for (const auto& inst : session.engine()->instances()) {
      if (inst->label().find(spec.needle) != std::string::npos &&
          inst->calls() > 0) {
        series.emplace(name, inst->aph());
        return;
      }
    }
  };
  for (const char* flavor : spec.flavors) {
    capture(ForcedConfig(flavor), flavor);
  }
  capture(AdaptiveConfig(spec.adaptive_sets), "adaptive");
  if (series.size() != spec.flavors.size() + 1) {
    std::printf("  (instance '%s' not found)\n", spec.needle.c_str());
    return;
  }

  size_t buckets = series.begin()->second.buckets().size();
  for (const auto& [name, aph] : series) {
    buckets = std::min(buckets, aph.buckets().size());
  }
  const size_t step = std::max<size_t>(1, buckets / 16);
  std::printf("  %8s", "bucket");
  for (const char* flavor : spec.flavors) std::printf(" %10s", flavor);
  std::printf(" %10s\n", "adaptive");
  for (size_t b = 0; b < buckets; b += step) {
    std::printf("  %8zu", b);
    for (const char* flavor : spec.flavors) {
      std::printf(" %10.2f", series.at(flavor).buckets()[b].CostPerTuple());
    }
    std::printf(" %10.2f\n", series.at("adaptive").buckets()[b].CostPerTuple());
  }
  std::printf("  totals (cycles/tuple):");
  for (const auto& [name, aph] : series) {
    std::printf(" %s=%.2f", name.c_str(), aph.MeanCostPerTuple());
  }
  std::printf("\n");
}

void Run() {
  TpchConfig cfg;
  cfg.scale_factor = 0.2;
  auto data = Generate(cfg);
  bench::PrintHeader(
      "Figure 11: Micro Adaptive execution APHs (sample instances)",
      "Adaptive should track the minimum of the fixed-flavor curves, "
      "switching when the phase changes.");
  Panel(*data, PanelSpec{14, "q14/select", "(a) Q14 Selection (shipdate range)",
                  {"branching", "nobranching"},
                  FlavorSetBit(FlavorSetId::kBranch)});
  Panel(*data, PanelSpec{7, "q7/lineitem", "(b) Q7 Selection (compiler flavors)",
                  {"gcc", "icc", "clang"},
                  FlavorSetBit(FlavorSetId::kCompiler)});
  Panel(*data, PanelSpec{1, "q1/project", "(c) Q1 Projection (full computation)",
                  {"full"},
                  FlavorSetBit(FlavorSetId::kFullCompute)});
  Panel(*data, PanelSpec{2, "bloom", "(d) Q2 HashJoin bloom probe (fission)",
                  {"fission"},
                  FlavorSetBit(FlavorSetId::kFission)});
  Panel(*data, PanelSpec{7, "q7/supplier", "(e) Q7 Selection (unrolling)",
                  {"nounroll"},
                  FlavorSetBit(FlavorSetId::kUnroll)});
  std::printf(
      "\nExpected (paper): the adaptive curve hugs the minimum envelope;\n"
      "deterioration of the current flavor is detected within one\n"
      "exploit period, improvements of others within explore periods.\n");
}

}  // namespace
}  // namespace ma::tpch

int main() {
  ma::tpch::Run();
  return 0;
}
