#include "tpch/queries.h"

#include "common/cycleclock.h"

#include "plan/compiler.h"
#include "tpch/plans.h"

namespace ma::tpch {
namespace {

// =====================================================================
// Every query is expressed once as a logical plan (tpch/plans.cc) and
// lowered onto this engine; the same plans run stage-parallel through
// plan::QuerySession. RunPlan is the serial lowering shared by all of
// them.
// =====================================================================
RunResult RunPlan(Engine* e, const plan::LogicalPlan& p) {
  MA_CHECK(p.ok());
  auto root = plan::Compiler::CompileSerial(p, e);
  if (root == nullptr) {
    // A failed scalar subquery: the compiler recorded the error on the
    // engine's context.
    RunResult r;
    r.status = e->context()->status();
    if (r.status.ok()) r.status = Status::Internal("plan compilation failed");
    r.reason = ReasonFromStatus(r.status);
    return r;
  }
  return plan::WithDeclaredSchema(p.root->schema, e->Run(*root));
}

}  // namespace

const char* QueryName(int q) {
  static const char* kNames[23] = {
      "",
      "Q01 pricing summary",      "Q02 minimum cost supplier",
      "Q03 shipping priority",    "Q04 order priority checking",
      "Q05 local supplier volume", "Q06 forecasting revenue",
      "Q07 volume shipping",      "Q08 national market share",
      "Q09 product type profit",  "Q10 returned items",
      "Q11 important stock",      "Q12 shipping modes",
      "Q13 customer distribution", "Q14 promotion effect",
      "Q15 top supplier",         "Q16 parts/supplier relation",
      "Q17 small-quantity orders", "Q18 large volume customers",
      "Q19 discounted revenue",   "Q20 part promotion",
      "Q21 suppliers kept waiting", "Q22 global sales opportunity"};
  MA_CHECK(q >= 1 && q <= kNumQueries);
  return kNames[q];
}

RunResult RunQuery(Engine* e, const TpchData& d, int q) {
  // Per-query time and the primitive-cycle total must cover the whole
  // compilation + execution (including scalar subqueries and shared
  // subplans the serial compiler runs eagerly), so measure around the
  // whole query here rather than relying on the last stage's RunResult.
  const u64 prim0 = e->TotalPrimitiveCycles();
  const u64 t0 = CycleClock::Now();
  RunResult r = RunPlan(e, PlanForQuery(d, q));
  r.total_cycles = CycleClock::Now() - t0;
  r.seconds =
      static_cast<f64>(r.total_cycles) / CycleClock::FrequencyHz();
  r.stages.primitives = e->TotalPrimitiveCycles() - prim0;
  return r;
}

}  // namespace ma::tpch
