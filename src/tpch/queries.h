// The 22 TPC-H queries: their count and display names. Each query is one
// logical plan (tpch/plans.h, PlanForQuery) that runs through
// plan::QuerySession, serially or staged; the evaluation workloads
// (tpch/workload.h) drive them that way.
#ifndef MA_TPCH_QUERIES_H_
#define MA_TPCH_QUERIES_H_

namespace ma::tpch {

inline constexpr int kNumQueries = 22;

/// Short description of query `q` (1-based).
const char* QueryName(int q);

}  // namespace ma::tpch

#endif  // MA_TPCH_QUERIES_H_
