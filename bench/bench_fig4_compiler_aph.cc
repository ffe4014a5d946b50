// Figure 4: compiler-flavor differences across primitive instances in
// TPC-H queries, shown as APHs (avg cycles/tuple over query lifetime)
// per forced compiler flavor. One sub-benchmark per paper panel:
//   (a) Q1 map add       (b) Q1 aggr sum      (c) Q7 mergejoin
//   (d) Q12 fetch        (e) Q16-style hash insert-check
#include <map>

#include "bench_util.h"
#include "plan/query_session.h"
#include "tpch/plans.h"
#include "tpch/workload.h"

namespace ma::tpch {
namespace {

/// Runs query `q` with each forced compiler flavor and prints aligned
/// APH series of the instance whose label contains `needle`.
void Panel(const TpchData& data, int q, const std::string& needle,
           const char* title) {
  std::printf("\n--- %s ---\n", title);
  std::map<std::string, Aph> series;
  for (const char* flavor : {"gcc", "icc", "clang"}) {
    plan::SessionConfig sc;
    sc.engine = ForcedConfig(flavor);
    plan::QuerySession session(sc);
    session.Run(PlanForQuery(data, q), plan::ExecMode::kSerial);
    for (const auto& inst : session.engine()->instances()) {
      if (inst->label().find(needle) != std::string::npos &&
          inst->calls() > 0) {
        series.emplace(flavor, inst->aph());
        break;
      }
    }
  }
  if (series.size() < 3) {
    std::printf("  (instance '%s' not found in Q%d)\n", needle.c_str(), q);
    return;
  }
  const Aph& g = series.at("gcc");
  const Aph& i = series.at("icc");
  const Aph& c = series.at("clang");
  const size_t buckets = std::min(
      {g.buckets().size(), i.buckets().size(), c.buckets().size()});
  // Condense to at most 16 printed rows.
  const size_t step = std::max<size_t>(1, buckets / 16);
  std::printf("  %8s %8s %8s %8s   (cycles/tuple)\n", "bucket", "gcc",
              "icc", "clang");
  for (size_t b = 0; b < buckets; b += step) {
    std::printf("  %8zu %8.2f %8.2f %8.2f\n", b,
                g.buckets()[b].CostPerTuple(), i.buckets()[b].CostPerTuple(),
                c.buckets()[b].CostPerTuple());
  }
  std::printf("  totals: gcc=%.2f icc=%.2f clang=%.2f cycles/tuple\n",
              g.MeanCostPerTuple(), i.MeanCostPerTuple(),
              c.MeanCostPerTuple());
}

void Run() {
  TpchConfig cfg;
  cfg.scale_factor = 0.2;
  auto data = Generate(cfg);

  bench::PrintHeader(
      "Figure 4: compiler-flavor APHs on TPC-H primitive instances",
      "Each panel: one primitive instance, per-bucket cycles/tuple under "
      "the three compiler-style flavor builds.");
  Panel(*data, 1, "add", "(a) Q1 Projection: map add");
  Panel(*data, 1, "aggr_sum_sum_qty", "(b) Q1 Aggregation: sum");
  Panel(*data, 7, "mergejoin", "(c) Q7 MergeJoin");
  Panel(*data, 12, "fetch", "(d) Q12 MergeJoin fetch");
  Panel(*data, 1, "insertcheck", "(e) Q1 hash insert-check");
  std::printf(
      "\nExpected (paper): no single compiler wins every panel — e.g. in\n"
      "the paper gcc wins (a) while icc wins (b) within the same query,\n"
      "and flavors cross over mid-query in some panels.\n");
}

}  // namespace
}  // namespace ma::tpch

int main() {
  ma::tpch::Run();
  return 0;
}
