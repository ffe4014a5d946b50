// All 22 TPC-H queries expressed as logical plans. Written once
// against PlanBuilder, these run unchanged on the serial Engine and on
// the staged morsel-driven executor (plan/query_session.h). Plans may
// aggregate below joins (Q10, Q12, Q14), re-aggregate an aggregation
// (Q16, Q21), merge-join inside a plan (Q12), fold scalar-subquery
// results into predicates (Q11, Q15, Q22), patch probe misses with a
// LEFT OUTER join (Q13, Q14), compute CASE/substring value expressions in
// projections (Q8, Q22), and share one subplan across several
// consumers — explicitly with PlanBuilder::BindShared (Q21's late
// lines) or implicitly via the compiler's automatic deduplication of
// structurally identical subtrees (Q2/Q11/Q14/Q15/Q17/Q22's
// twice-built pipelines).
#ifndef MA_TPCH_PLANS_H_
#define MA_TPCH_PLANS_H_

#include "plan/logical_plan.h"
#include "tpch/dbgen.h"

namespace ma::tpch {

/// Q1: pricing summary report (scan -> filter -> project -> group-by ->
/// sort). Parallel: thread-local pre-aggregation + merge.
plan::LogicalPlan Q1Plan(const TpchData& d);

/// Q2: minimum cost supplier. The per-part MIN aggregation feeds a join
/// back against the same (partsupp x part x European supplier) pipeline
/// and the equality filter keeps the minimum-cost rows.
plan::LogicalPlan Q2Plan(const TpchData& d);

/// Q3: shipping priority. Customer semi-join feeds the orders build,
/// the lineitem pipeline probes it, and the grouped revenue sorts into
/// a top-10 tail.
plan::LogicalPlan Q3Plan(const TpchData& d);

/// Q4: order priority checking. Late-lineitem build, semi-joined orders
/// pipeline, count per priority.
plan::LogicalPlan Q4Plan(const TpchData& d);

/// Q5: local supplier volume. A chain of builds (region -> nation ->
/// supplier, customer -> orders) probed by the lineitem pipeline, with
/// the (suppkey, nationkey) key trick enforcing cust_nation ==
/// supp_nation.
plan::LogicalPlan Q5Plan(const TpchData& d);

/// Q6: forecasting revenue change (scan -> filter -> project -> global
/// aggregate).
plan::LogicalPlan Q6Plan(const TpchData& d);

/// Q7: volume shipping. Customer-annotated orders merge-join the
/// filtered lineitems on the clustered (ascending) orderkey — Figure
/// 4(c)'s mergejoin instance; the hash probe preserves the orders scan
/// order, so both merge inputs arrive sorted without an explicit sort
/// (the merge checks it as it drains them). Supplier nation attaches by
/// hash join, the FR/DE nation-pair filter keeps the two directions,
/// and revenue aggregates per (supp_nation, cust_nation, year).
plan::LogicalPlan Q7Plan(const TpchData& d);

/// Q8: national market share. A CASE projection zeroes non-BRAZIL
/// volume so one aggregation carries both the total and the BRAZIL sum
/// per year; the share divides in the projection above it.
plan::LogicalPlan Q8Plan(const TpchData& d);

/// Q9: product type profit measure. A four-join chain (part, partsupp,
/// orders, nation-annotated supplier) under a per-(nation, year) profit
/// aggregation.
plan::LogicalPlan Q9Plan(const TpchData& d);

/// Q10: returned item reporting. The per-customer revenue aggregation
/// feeds the customer and nation joins above it — the agg-feeding-join
/// shape that compiles to dependent stages scanning a materialized
/// intermediate.
plan::LogicalPlan Q10Plan(const TpchData& d);

/// Q11: important stock. The threshold (SUM(value) * 0.0001 over the
/// same German-partsupp pipeline) is a scalar subquery folded into the
/// HAVING filter — staged execution materializes it as a broadcast
/// constant stage.
plan::LogicalPlan Q11Plan(const TpchData& d);

/// Q13: customer distribution. A LEFT OUTER hash join patches customers
/// with no qualifying orders back in with a default count of 0 before
/// the histogram aggregation.
plan::LogicalPlan Q13Plan(const TpchData& d);

/// Q15: top supplier. MAX(total_revenue) over the per-supplier revenue
/// aggregate is a scalar subquery folded into the top filter.
plan::LogicalPlan Q15Plan(const TpchData& d);

/// Q16: parts/supplier relationship. Distinct-count via re-aggregation:
/// a dedupe GroupBy on (brand, type, size, suppkey) feeds a second
/// GroupBy that counts its groups.
plan::LogicalPlan Q16Plan(const TpchData& d);

/// Q17: small-quantity-order revenue. The per-part average quantity
/// aggregation joins back against the same part/lineitem pipeline; the
/// 0.2 * avg threshold computes in a projection above the join.
plan::LogicalPlan Q17Plan(const TpchData& d);

/// Q18: large volume customers. The per-order quantity sum (HAVING >
/// 300) builds the orders join; customer names attach above.
plan::LogicalPlan Q18Plan(const TpchData& d);

/// Q19: discounted revenue — the big OR-of-ANDs predicate over the
/// part-annotated lineitems, summed into one global revenue value.
plan::LogicalPlan Q19Plan(const TpchData& d);

/// Q20: potential part promotion. The 1994 shipped-quantity aggregation
/// builds the partsupp join, excess stock filters against half that
/// quantity, and two semi joins (forest parts, CANADA suppliers) narrow
/// to the final supplier list.
plan::LogicalPlan Q20Plan(const TpchData& d);

/// Q21: suppliers who kept orders waiting. The late-lineitem filter is
/// a shared subplan (PlanBuilder::BindShared) consumed by both the
/// per-order late-supplier count and the main spine; chained semi joins
/// express the EXISTS / NOT EXISTS pair over the counts.
plan::LogicalPlan Q21Plan(const TpchData& d);

/// Q22: global sales opportunity. The average positive balance is a
/// scalar subquery folded into the "rich" filter, and the country code
/// string is a substring value expression over c_phone.
plan::LogicalPlan Q22Plan(const TpchData& d);

/// Q12: shipping modes and order priority (the Figure 2 query). A
/// merge join on the clustered orderkey inside the plan (both inputs
/// arrive sorted: the orders scan and the order-preserving lineitem
/// filter), aggregates above the merge, and hash-joins the
/// high-priority counts against the totals.
plan::LogicalPlan Q12Plan(const TpchData& d);

/// Q14: promotion effect. Promo and total revenue aggregated on a
/// constant key and LEFT OUTER joined — both hash-join sides fed by
/// aggregations. A window without PROMO rows yields 0, an empty window
/// yields no rows.
plan::LogicalPlan Q14Plan(const TpchData& d);

/// The plan for query `q` (1..22).
plan::LogicalPlan PlanForQuery(const TpchData& d, int q);

}  // namespace ma::tpch

#endif  // MA_TPCH_PLANS_H_
