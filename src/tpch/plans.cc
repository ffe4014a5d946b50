#include "tpch/plans.h"

#include "plan/plan_builder.h"
#include "tpch/text_pool.h"

namespace ma::tpch {
namespace {

using plan::PlanBuilder;
using Out = ProjectOperator::Output;
using Agg = HashAggOperator::AggSpec;
using GK = HashAggOperator::GroupKey;

/// revenue = l_extendedprice * (1 - l_discount), written without a
/// literal on the left: ep - ep*disc.
ExprPtr Revenue() {
  return Sub(Col("l_extendedprice"),
             Mul(Col("l_extendedprice"), Col("l_discount")));
}

Agg MakeAgg(const char* fn, ExprPtr arg, const char* out_name) {
  Agg a;
  a.fn = fn;
  a.arg = std::move(arg);
  a.out_name = out_name;
  return a;
}

/// Key of a nation by name.
i64 NationCode(const std::string& name) {
  const int c = CodeOf(NationNames(), name);
  MA_CHECK(c >= 0);
  return c;
}

/// Region -> member nations (semi join over the tiny metadata tables);
/// the returned builder's schema is the nation scan's.
PlanBuilder NationsOfRegion(const TpchData& d, const std::string& region,
                            const std::string& label) {
  PlanBuilder rsel =
      PlanBuilder::Scan(d.region, {"r_regionkey", "r_name"},
                        label + "/region_scan");
  rsel.Filter(StrEq("r_name", region), label + "/region");
  HashJoinSpec spec;
  spec.build_key = "r_regionkey";
  spec.probe_key = "n_regionkey";
  spec.kind = HashJoinSpec::Kind::kSemi;
  PlanBuilder nations = PlanBuilder::Scan(
      d.nation, {"n_nationkey", "n_name", "n_regionkey"},
      label + "/nation_scan");
  nations.HashJoin(std::move(rsel), spec, label + "/nation_of_region");
  return nations;
}

}  // namespace

plan::LogicalPlan Q1Plan(const TpchData& d) {
  std::vector<Out> outs;
  outs.push_back({"l_returnflag", Col("l_returnflag")});
  outs.push_back({"l_linestatus", Col("l_linestatus")});
  outs.push_back({"l_returnflag_code", Col("l_returnflag_code")});
  outs.push_back({"l_linestatus_code", Col("l_linestatus_code")});
  outs.push_back({"l_quantity", Col("l_quantity")});
  outs.push_back({"l_quantity_f", Col("l_quantity_f")});
  outs.push_back({"l_extendedprice", Col("l_extendedprice")});
  outs.push_back({"l_discount", Col("l_discount")});
  outs.push_back({"disc_price", Revenue()});
  // charge = disc_price * (1 + tax) = disc_price + disc_price * tax.
  auto disc_price = Revenue();
  outs.push_back(
      {"charge", Add(Revenue(), Mul(std::move(disc_price), Col("l_tax")))});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("l_quantity"), "sum_qty"));
  aggs.push_back(MakeAgg("sum", Col("l_extendedprice"), "sum_base_price"));
  aggs.push_back(MakeAgg("sum", Col("disc_price"), "sum_disc_price"));
  aggs.push_back(MakeAgg("sum", Col("charge"), "sum_charge"));
  aggs.push_back(MakeAgg("avg", Col("l_quantity_f"), "avg_qty"));
  aggs.push_back(MakeAgg("avg", Col("l_extendedprice"), "avg_price"));
  aggs.push_back(MakeAgg("avg", Col("l_discount"), "avg_disc"));
  aggs.push_back(MakeAgg("count", nullptr, "count_order"));

  return PlanBuilder::Scan(d.lineitem,
                           {"l_quantity", "l_quantity_f",
                            "l_extendedprice", "l_discount", "l_tax",
                            "l_returnflag", "l_returnflag_code",
                            "l_linestatus", "l_linestatus_code",
                            "l_shipdate"},
                           "q1/scan")
      .Filter(Le(Col("l_shipdate"), Lit(Date(1998, 12, 1) - 90)),
              "q1/select")
      .Project(std::move(outs), "q1/project")
      .GroupBy({GK{"l_returnflag_code", 3}, GK{"l_linestatus_code", 2}},
               {"l_returnflag", "l_linestatus"}, std::move(aggs), "q1/agg")
      .Sort({{"l_returnflag", false}, {"l_linestatus", false}})
      .Build();
}

plan::LogicalPlan Q3Plan(const TpchData& d) {
  const i64 cutoff = Date(1995, 3, 15);
  PlanBuilder cust = PlanBuilder::Scan(
      d.customer, {"c_custkey", "c_mktsegment_code"}, "q3/customer_scan");
  cust.Filter(Eq(Col("c_mktsegment_code"),
                 Lit(CodeOf(Segments(), "BUILDING"))),
              "q3/customer");

  HashJoinSpec cj;
  cj.build_key = "c_custkey";
  cj.probe_key = "o_custkey";
  cj.kind = HashJoinSpec::Kind::kSemi;
  PlanBuilder orders = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_custkey", "o_orderdate",
                 "o_shippriority"},
      "q3/orders_scan");
  orders.Filter(Lt(Col("o_orderdate"), Lit(cutoff)), "q3/orders")
      .HashJoin(std::move(cust), cj, "q3/orders_customer");

  HashJoinSpec oj;
  oj.build_key = "o_orderkey";
  oj.probe_key = "l_orderkey";
  oj.build_outputs = {{"o_orderdate", "o_orderdate"},
                      {"o_shippriority", "o_shippriority"}};
  oj.probe_outputs = {"l_orderkey", "l_extendedprice", "l_discount"};
  oj.use_bloom = true;

  std::vector<Out> outs;
  outs.push_back({"l_orderkey", Col("l_orderkey")});
  outs.push_back({"o_orderdate", Col("o_orderdate")});
  outs.push_back({"o_shippriority", Col("o_shippriority")});
  outs.push_back({"revenue", Revenue()});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("revenue"), "revenue"));

  return PlanBuilder::Scan(d.lineitem,
                           {"l_orderkey", "l_extendedprice", "l_discount",
                            "l_shipdate"},
                           "q3/lineitem_scan")
      .Filter(Gt(Col("l_shipdate"), Lit(cutoff)), "q3/lineitem")
      .HashJoin(std::move(orders), oj, "q3/join")
      .Project(std::move(outs), "q3/project")
      .GroupBy({GK{"l_orderkey", 36}, GK{"o_orderdate", 13},
                GK{"o_shippriority", 2}},
               {"l_orderkey", "o_orderdate", "o_shippriority"},
               std::move(aggs), "q3/agg")
      .Sort({{"revenue", true}, {"o_orderdate", false}}, 10)
      .Build();
}

plan::LogicalPlan Q4Plan(const TpchData& d) {
  PlanBuilder late = PlanBuilder::Scan(
      d.lineitem, {"l_orderkey", "l_commitdate", "l_receiptdate"},
      "q4/lineitem_scan");
  late.Filter(Lt(Col("l_commitdate"), Col("l_receiptdate")),
              "q4/late_lines");

  HashJoinSpec spec;
  spec.build_key = "l_orderkey";
  spec.probe_key = "o_orderkey";
  spec.kind = HashJoinSpec::Kind::kSemi;

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("count", nullptr, "order_count"));

  return PlanBuilder::Scan(d.orders,
                           {"o_orderkey", "o_orderdate", "o_orderpriority",
                            "o_orderpriority_code"},
                           "q4/orders_scan")
      .Filter(RangeI64("o_orderdate", Date(1993, 7, 1), Date(1993, 10, 1)),
              "q4/orders")
      .HashJoin(std::move(late), spec, "q4/exists")
      .GroupBy({GK{"o_orderpriority_code", 3}}, {"o_orderpriority"},
               std::move(aggs), "q4/agg")
      .Sort({{"o_orderpriority", false}})
      .Build();
}

plan::LogicalPlan Q5Plan(const TpchData& d) {
  // Asian suppliers with nation names; the build key encodes
  // (suppkey, nationkey) so the final join enforces c_nationkey ==
  // s_nationkey.
  HashJoinSpec sn;
  sn.build_key = "n_nationkey";
  sn.probe_key = "s_nationkey";
  sn.build_outputs = {{"n_name", "n_name"}};
  sn.probe_outputs = {"s_suppkey", "s_nationkey"};
  PlanBuilder supp = PlanBuilder::Scan(
      d.supplier, {"s_suppkey", "s_nationkey"}, "q5/supplier_scan");
  supp.HashJoin(NationsOfRegion(d, "ASIA", "q5"), sn,
                "q5/supplier_nation");
  std::vector<Out> souts;
  souts.push_back({"s_supp_nation",
                   Add(Mul(Col("s_suppkey"), Lit(32)),
                       Col("s_nationkey"))});
  souts.push_back({"s_nationkey", Col("s_nationkey")});
  souts.push_back({"n_name", Col("n_name")});
  supp.Project(std::move(souts), "q5/supp_key");

  // Orders of 1994 with the customer nation attached.
  HashJoinSpec cj;
  cj.build_key = "c_custkey";
  cj.probe_key = "o_custkey";
  cj.build_outputs = {{"c_nationkey", "c_nationkey"}};
  cj.probe_outputs = {"o_orderkey"};
  PlanBuilder orders = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_custkey", "o_orderdate"},
      "q5/orders_scan");
  orders
      .Filter(RangeI64("o_orderdate", Date(1994, 1, 1), Date(1995, 1, 1)),
              "q5/orders")
      .HashJoin(PlanBuilder::Scan(d.customer,
                                  {"c_custkey", "c_nationkey"},
                                  "q5/customer_scan"),
                cj, "q5/orders_customer");

  HashJoinSpec lj;
  lj.build_key = "o_orderkey";
  lj.probe_key = "l_orderkey";
  lj.build_outputs = {{"c_nationkey", "c_nationkey"}};
  lj.probe_outputs = {"l_suppkey", "l_extendedprice", "l_discount"};
  lj.use_bloom = true;

  std::vector<Out> louts;
  louts.push_back({"l_supp_nation",
                   Add(Mul(Col("l_suppkey"), Lit(32)),
                       Col("c_nationkey"))});
  louts.push_back({"l_extendedprice", Col("l_extendedprice")});
  louts.push_back({"l_discount", Col("l_discount")});

  HashJoinSpec fj;
  fj.build_key = "s_supp_nation";
  fj.probe_key = "l_supp_nation";
  fj.build_outputs = {{"n_name", "n_name"},
                      {"s_nationkey", "s_nationkey"}};
  fj.probe_outputs = {"l_extendedprice", "l_discount"};
  fj.use_bloom = true;

  std::vector<Out> outs;
  outs.push_back({"s_nationkey", Col("s_nationkey")});
  outs.push_back({"n_name", Col("n_name")});
  outs.push_back({"revenue", Revenue()});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("revenue"), "revenue"));

  return PlanBuilder::Scan(d.lineitem,
                           {"l_orderkey", "l_suppkey", "l_extendedprice",
                            "l_discount"},
                           "q5/lineitem_scan")
      .HashJoin(std::move(orders), lj, "q5/join_lineitem")
      .Project(std::move(louts), "q5/items_key")
      .HashJoin(std::move(supp), fj, "q5/final_join")
      .Project(std::move(outs), "q5/project")
      .GroupBy({GK{"s_nationkey", 5}}, {"n_name"}, std::move(aggs),
               "q5/agg")
      .Sort({{"revenue", true}})
      .Build();
}

plan::LogicalPlan Q6Plan(const TpchData& d) {
  std::vector<ExprPtr> preds;
  preds.push_back(Ge(Col("l_shipdate"), Lit(Date(1994, 1, 1))));
  preds.push_back(Lt(Col("l_shipdate"), Lit(Date(1995, 1, 1))));
  preds.push_back(Ge(Col("l_discount"), Lit(0.05)));
  preds.push_back(Le(Col("l_discount"), Lit(0.07)));
  preds.push_back(Lt(Col("l_quantity"), Lit(24)));

  std::vector<Out> outs;
  outs.push_back(
      {"revenue", Mul(Col("l_extendedprice"), Col("l_discount"))});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("revenue"), "revenue"));

  return PlanBuilder::Scan(d.lineitem,
                           {"l_shipdate", "l_discount", "l_quantity",
                            "l_extendedprice"},
                           "q6/scan")
      .Filter(AndAll(std::move(preds)), "q6/select")
      .Project(std::move(outs), "q6/project")
      .GroupBy({}, {}, std::move(aggs), "q6/agg")
      .Build();
}

plan::LogicalPlan Q7Plan(const TpchData& d) {
  const i64 fr = NationCode("FRANCE");
  const i64 de = NationCode("GERMANY");

  // Orders annotated with customer nation (FRANCE or GERMANY only).
  // The hash probe emits matches in probe order, so o_orderkey stays
  // ascending into the merge join below.
  HashJoinSpec cj;
  cj.build_key = "c_custkey";
  cj.probe_key = "o_custkey";
  cj.build_outputs = {{"c_nationkey", "cust_nation_code"}};
  cj.probe_outputs = {"o_orderkey"};
  cj.use_bloom = true;
  PlanBuilder cust = PlanBuilder::Scan(
      d.customer, {"c_custkey", "c_nationkey"}, "q7/customer_scan");
  cust.Filter(InI64("c_nationkey", {fr, de}), "q7/customer");
  PlanBuilder orders = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_custkey"}, "q7/orders_scan");
  orders.HashJoin(std::move(cust), cj, "q7/orders_customer");

  // Lineitems shipped 1995-1996; merge join with the annotated orders
  // on the orderkey — Figure 4(c)'s mergejoin instance.
  MergeJoinSpec mj;
  mj.left_key = "o_orderkey";
  mj.right_key = "l_orderkey";
  mj.left_outputs = {{"cust_nation_code", "cust_nation_code"}};
  mj.right_outputs = {{"l_suppkey", "l_suppkey"},
                      {"l_extendedprice", "l_extendedprice"},
                      {"l_discount", "l_discount"},
                      {"l_shipyear", "l_shipyear"}};
  PlanBuilder items = PlanBuilder::Scan(
      d.lineitem,
      {"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
       "l_shipdate", "l_shipyear"},
      "q7/lineitem_scan");
  items.Filter(RangeI64("l_shipdate", Date(1995, 1, 1), Date(1997, 1, 1)),
               "q7/lineitem");
  orders.MergeJoin(std::move(items), mj, "q7/mergejoin");

  // Attach supplier nation.
  HashJoinSpec sj;
  sj.build_key = "s_suppkey";
  sj.probe_key = "l_suppkey";
  sj.build_outputs = {{"s_nationkey", "supp_nation_code"}};
  sj.probe_outputs = {"cust_nation_code", "l_extendedprice", "l_discount",
                      "l_shipyear"};
  sj.use_bloom = true;
  PlanBuilder supp = PlanBuilder::Scan(
      d.supplier, {"s_suppkey", "s_nationkey"}, "q7/supplier_scan");
  supp.Filter(InI64("s_nationkey", {fr, de}), "q7/supplier");
  orders.HashJoin(std::move(supp), sj, "q7/supplier_join");

  // (supp=FR and cust=DE) or (supp=DE and cust=FR).
  std::vector<ExprPtr> c1;
  c1.push_back(Eq(Col("supp_nation_code"), Lit(fr)));
  c1.push_back(Eq(Col("cust_nation_code"), Lit(de)));
  std::vector<ExprPtr> c2;
  c2.push_back(Eq(Col("supp_nation_code"), Lit(de)));
  c2.push_back(Eq(Col("cust_nation_code"), Lit(fr)));
  std::vector<ExprPtr> either;
  either.push_back(AndAll(std::move(c1)));
  either.push_back(AndAll(std::move(c2)));

  std::vector<Out> outs;
  outs.push_back({"supp_nation_code", Col("supp_nation_code")});
  outs.push_back({"cust_nation_code", Col("cust_nation_code")});
  outs.push_back({"l_shipyear", Col("l_shipyear")});
  outs.push_back({"volume", Revenue()});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("volume"), "revenue"));

  return orders.Filter(OrAny(std::move(either)), "q7/nation_pair")
      .Project(std::move(outs), "q7/project")
      .GroupBy({GK{"supp_nation_code", 5}, GK{"cust_nation_code", 5},
                GK{"l_shipyear", 11}},
               {"supp_nation_code", "cust_nation_code", "l_shipyear"},
               std::move(aggs), "q7/agg")
      .Sort({{"supp_nation_code", false},
             {"cust_nation_code", false},
             {"l_shipyear", false}})
      .Build();
}

plan::LogicalPlan Q10Plan(const TpchData& d) {
  // Per-customer revenue over returned items of Q4-1993 orders: the
  // aggregation feeds the customer/nation joins above it, so the staged
  // compiler materializes it and re-scans the intermediate.
  HashJoinSpec oj;
  oj.build_key = "o_orderkey";
  oj.probe_key = "l_orderkey";
  oj.build_outputs = {{"o_custkey", "o_custkey"}};
  oj.probe_outputs = {"l_extendedprice", "l_discount"};
  oj.use_bloom = true;
  PlanBuilder orders = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_custkey", "o_orderdate"},
      "q10/orders_scan");
  orders.Filter(
      RangeI64("o_orderdate", Date(1993, 10, 1), Date(1994, 1, 1)),
      "q10/orders");

  std::vector<Out> outs;
  outs.push_back({"o_custkey", Col("o_custkey")});
  outs.push_back({"revenue", Revenue()});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("revenue"), "revenue"));

  HashJoinSpec cj;
  cj.build_key = "c_custkey";
  cj.probe_key = "o_custkey";
  cj.build_outputs = {{"c_name", "c_name"},
                      {"c_acctbal", "c_acctbal"},
                      {"c_nationkey", "c_nationkey"},
                      {"c_phone", "c_phone"},
                      {"c_address", "c_address"},
                      {"c_comment", "c_comment"}};
  cj.probe_outputs = {"o_custkey", "revenue"};

  HashJoinSpec nj;
  nj.build_key = "n_nationkey";
  nj.probe_key = "c_nationkey";
  nj.build_outputs = {{"n_name", "n_name"}};
  nj.probe_outputs = {"o_custkey", "c_name", "revenue", "c_acctbal",
                      "c_phone", "c_address", "c_comment"};

  return PlanBuilder::Scan(d.lineitem,
                           {"l_orderkey", "l_extendedprice", "l_discount",
                            "l_returnflag_code"},
                           "q10/lineitem_scan")
      .Filter(InI64("l_returnflag_code", {0, 1}),  // 'R' or 'A'
              "q10/returned")
      .HashJoin(std::move(orders), oj, "q10/join")
      .Project(std::move(outs), "q10/project")
      .GroupBy({GK{"o_custkey", 32}}, {"o_custkey"}, std::move(aggs),
               "q10/agg")
      .HashJoin(PlanBuilder::Scan(d.customer,
                                  {"c_custkey", "c_name", "c_acctbal",
                                   "c_nationkey", "c_phone", "c_address",
                                   "c_comment"},
                                  "q10/customer_scan"),
                cj, "q10/customer_join")
      .HashJoin(PlanBuilder::Scan(d.nation, {"n_nationkey", "n_name"},
                                  "q10/nation_scan"),
                nj, "q10/nation_join")
      .Sort({{"revenue", true}}, 20)
      .Build();
}

namespace {

/// Q12's filtered lineitems (MAIL/SHIP, the date sandwich), right side
/// of the merge join with orders on the clustered orderkey.
PlanBuilder Q12Items(const TpchData& d, const std::string& label) {
  std::vector<ExprPtr> preds;
  preds.push_back(InI64("l_shipmode_code",
                        {CodeOf(ShipModes(), "MAIL"),
                         CodeOf(ShipModes(), "SHIP")}));
  preds.push_back(Lt(Col("l_commitdate"), Col("l_receiptdate")));
  preds.push_back(Lt(Col("l_shipdate"), Col("l_commitdate")));
  preds.push_back(Ge(Col("l_receiptdate"), Lit(Date(1994, 1, 1))));
  preds.push_back(Lt(Col("l_receiptdate"), Lit(Date(1995, 1, 1))));
  PlanBuilder items = PlanBuilder::Scan(
      d.lineitem,
      {"l_orderkey", "l_shipmode", "l_shipmode_code", "l_shipdate",
       "l_commitdate", "l_receiptdate"},
      label + "_scan");
  items.Filter(AndAll(std::move(preds)), label);
  return items;
}

}  // namespace

plan::LogicalPlan Q12Plan(const TpchData& d) {
  // high = lines of URGENT/HIGH orders per shipmode: merge join with
  // orders on the ascending orderkey (checked as the merge drains),
  // filter on the fetched priority, count. Becomes the build side.
  MergeJoinSpec mj;
  mj.left_key = "o_orderkey";
  mj.right_key = "l_orderkey";
  mj.left_outputs = {{"o_orderpriority_code", "o_orderpriority_code"}};
  mj.right_outputs = {{"l_shipmode_code", "l_shipmode_code"}};
  std::vector<Agg> ha;
  ha.push_back(MakeAgg("count", nullptr, "high_line_count"));
  PlanBuilder high = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_orderpriority_code"}, "q12/orders_scan");
  high.MergeJoin(Q12Items(d, "q12/select_high"), mj, "q12/mergejoin")
      .Filter(Le(Col("o_orderpriority_code"), Lit(1)), "q12/high")
      .GroupBy({GK{"l_shipmode_code", 3}}, {"l_shipmode_code"},
               std::move(ha), "q12/high_agg");

  // all = every filtered line per shipmode (the FK merge join keeps
  // each line exactly once, so counting the filter output directly is
  // equivalent); probes the high-count build.
  std::vector<Agg> ta;
  ta.push_back(MakeAgg("count", nullptr, "all_count"));

  HashJoinSpec fj;
  fj.build_key = "l_shipmode_code";
  fj.probe_key = "l_shipmode_code";
  fj.build_outputs = {{"high_line_count", "high_line_count"}};
  fj.probe_outputs = {"l_shipmode", "all_count"};

  std::vector<Out> outs;
  outs.push_back({"l_shipmode", Col("l_shipmode")});
  outs.push_back({"high_line_count", Col("high_line_count")});
  outs.push_back({"low_line_count",
                  Sub(Col("all_count"), Col("high_line_count"))});

  return Q12Items(d, "q12/select")
      .GroupBy({GK{"l_shipmode_code", 3}},
               {"l_shipmode", "l_shipmode_code"}, std::move(ta),
               "q12/all_agg")
      .HashJoin(std::move(high), fj, "q12/final_join")
      .Project(std::move(outs), "q12/final")
      .Sort({{"l_shipmode", false}})
      .Build();
}

plan::LogicalPlan Q2Plan(const TpchData& d) {
  // The joined (partsupp x filtered part x European supplier) table.
  // Plans are trees, so the pipeline is built once per use: once under
  // the per-part min aggregation and once as the probe of the
  // min-filter join (same duplication as Q14's base; a shared-subplan
  // node would remove it — ROADMAP).
  auto joined = [&d](const std::string& label) {
    HashJoinSpec sj;
    sj.build_key = "n_nationkey";
    sj.probe_key = "s_nationkey";
    sj.build_outputs = {{"n_name", "n_name"}};
    sj.probe_outputs = {"s_suppkey", "s_name", "s_address", "s_phone",
                        "s_acctbal", "s_comment"};
    PlanBuilder supp = PlanBuilder::Scan(
        d.supplier,
        {"s_suppkey", "s_name", "s_address", "s_phone", "s_acctbal",
         "s_comment", "s_nationkey"},
        label + "/supplier_scan");
    supp.HashJoin(NationsOfRegion(d, "EUROPE", label), sj,
                  label + "/supplier_nation");

    std::vector<ExprPtr> pp;
    pp.push_back(Eq(Col("p_size"), Lit(15)));
    pp.push_back(StrSuffix("p_type", "BRASS"));
    PlanBuilder part = PlanBuilder::Scan(
        d.part, {"p_partkey", "p_mfgr", "p_size", "p_type"},
        label + "/part_scan");
    part.Filter(AndAll(std::move(pp)), label + "/part");

    HashJoinSpec pj;
    pj.build_key = "p_partkey";
    pj.probe_key = "ps_partkey";
    pj.build_outputs = {{"p_mfgr", "p_mfgr"}};
    pj.probe_outputs = {"ps_partkey", "ps_suppkey", "ps_supplycost"};
    pj.use_bloom = true;  // most partsupp rows miss the filtered parts
    PlanBuilder ps = PlanBuilder::Scan(
        d.partsupp, {"ps_partkey", "ps_suppkey", "ps_supplycost"},
        label + "/partsupp_scan");
    ps.HashJoin(std::move(part), pj, label + "/partsupp_part");

    HashJoinSpec ssj;
    ssj.build_key = "s_suppkey";
    ssj.probe_key = "ps_suppkey";
    ssj.build_outputs = {{"s_name", "s_name"},       {"n_name", "n_name"},
                         {"s_address", "s_address"}, {"s_phone", "s_phone"},
                         {"s_acctbal", "s_acctbal"},
                         {"s_comment", "s_comment"}};
    ssj.probe_outputs = {"ps_partkey", "ps_supplycost", "p_mfgr"};
    ps.HashJoin(std::move(supp), ssj, label + "/supplier_partsupp");
    return ps;
  };

  std::vector<Agg> ma;
  ma.push_back(MakeAgg("min", Col("ps_supplycost"), "min_cost"));
  PlanBuilder mins = joined("q2/min");
  mins.GroupBy({GK{"ps_partkey", 40}}, {"ps_partkey"}, std::move(ma),
               "q2/min_agg");

  HashJoinSpec mj;
  mj.build_key = "ps_partkey";
  mj.probe_key = "ps_partkey";
  mj.build_outputs = {{"min_cost", "min_cost"}};
  mj.probe_outputs = {"ps_partkey", "ps_supplycost", "p_mfgr", "s_name",
                      "n_name",     "s_address",     "s_phone",
                      "s_acctbal",  "s_comment"};

  return joined("q2")
      .HashJoin(std::move(mins), mj, "q2/min_join")
      .Filter(Eq(Col("ps_supplycost"), Col("min_cost")), "q2/min_filter")
      .Sort({{"s_acctbal", true},
             {"n_name", false},
             {"s_name", false},
             {"ps_partkey", false}},
            100)
      .Build();
}

plan::LogicalPlan Q11Plan(const TpchData& d) {
  // German partsupp rows with value = cost * availqty, used by both the
  // per-part aggregation and the threshold subquery.
  auto base = [&d](const std::string& label) {
    PlanBuilder supp = PlanBuilder::Scan(
        d.supplier, {"s_suppkey", "s_nationkey"},
        label + "/supplier_scan");
    supp.Filter(Eq(Col("s_nationkey"), Lit(NationCode("GERMANY"))),
                label + "/s_nation");
    HashJoinSpec sj;
    sj.build_key = "s_suppkey";
    sj.probe_key = "ps_suppkey";
    sj.kind = HashJoinSpec::Kind::kSemi;
    PlanBuilder ps = PlanBuilder::Scan(
        d.partsupp,
        {"ps_partkey", "ps_suppkey", "ps_supplycost", "ps_availqty_f"},
        label + "/partsupp_scan");
    ps.HashJoin(std::move(supp), sj, label + "/partsupp_semi");
    std::vector<Out> outs;
    outs.push_back({"ps_partkey", Col("ps_partkey")});
    outs.push_back(
        {"value", Mul(Col("ps_supplycost"), Col("ps_availqty_f"))});
    ps.Project(std::move(outs), label + "/project");
    return ps;
  };

  // threshold = sum(value) * 0.0001 — a scalar subquery folded into the
  // HAVING predicate below.
  std::vector<Agg> ta;
  ta.push_back(MakeAgg("sum", Col("value"), "total"));
  PlanBuilder sub = base("q11/total");
  sub.GroupBy({}, {}, std::move(ta), "q11/total_agg");
  std::vector<Out> th;
  th.push_back({"threshold", Mul(Col("total"), Lit(0.0001))});
  sub.Project(std::move(th), "q11/threshold");

  std::vector<Agg> pa;
  pa.push_back(MakeAgg("sum", Col("value"), "value"));
  return base("q11")
      .GroupBy({GK{"ps_partkey", 40}}, {"ps_partkey"}, std::move(pa),
               "q11/agg")
      .BindScalar("q11_threshold", std::move(sub), "threshold")
      .Filter(Gt(Col("value"), ScalarRef("q11_threshold")), "q11/having")
      .Sort({{"value", true}})
      .Build();
}

plan::LogicalPlan Q13Plan(const TpchData& d) {
  // Orders without "special requests" counted per customer; the LEFT
  // OUTER join patches customers with no such orders back in with a
  // default c_count of 0, replacing the hand-assembled zero bucket.
  PlanBuilder orders = PlanBuilder::Scan(
      d.orders, {"o_custkey", "o_comment"}, "q13/orders_scan");
  std::vector<Agg> ca;
  ca.push_back(MakeAgg("count", nullptr, "c_count"));
  orders
      .Filter(StrNotContains("o_comment", "special requests"),
              "q13/orders")
      .GroupBy({GK{"o_custkey", 32}}, {"o_custkey"}, std::move(ca),
               "q13/per_cust");

  HashJoinSpec lj;
  lj.build_key = "o_custkey";
  lj.probe_key = "c_custkey";
  lj.kind = HashJoinSpec::Kind::kLeftOuter;
  lj.build_outputs = {{"c_count", "c_count"}};
  // No probe outputs: only the (possibly patched) count feeds the
  // histogram.

  std::vector<Agg> ha;
  ha.push_back(MakeAgg("count", nullptr, "custdist"));
  return PlanBuilder::Scan(d.customer, {"c_custkey"}, "q13/customer_scan")
      .HashJoin(std::move(orders), lj, "q13/cust_orders")
      .GroupBy({GK{"c_count", 16}}, {"c_count"}, std::move(ha), "q13/hist")
      .Sort({{"custdist", true}, {"c_count", true}})
      .Build();
}

plan::LogicalPlan Q15Plan(const TpchData& d) {
  // Revenue per supplier over Q1-1996 shipments.
  auto rev = [&d](const std::string& label) {
    PlanBuilder b = PlanBuilder::Scan(
        d.lineitem,
        {"l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"},
        label + "/lineitem_scan");
    std::vector<Out> outs;
    outs.push_back({"l_suppkey", Col("l_suppkey")});
    outs.push_back({"revenue", Revenue()});
    std::vector<Agg> aggs;
    aggs.push_back(MakeAgg("sum", Col("revenue"), "total_revenue"));
    b.Filter(RangeI64("l_shipdate", Date(1996, 1, 1), Date(1996, 4, 1)),
             label + "/select")
        .Project(std::move(outs), label + "/project")
        .GroupBy({GK{"l_suppkey", 24}}, {"l_suppkey"}, std::move(aggs),
                 label + "/agg");
    return b;
  };

  // The top revenue — a scalar subquery folded into the filter (ties
  // all survive, as in the reference SQL's = (select max(...))).
  std::vector<Agg> ma;
  ma.push_back(MakeAgg("max", Col("total_revenue"), "max_revenue"));
  PlanBuilder sub = rev("q15/max");
  sub.GroupBy({}, {}, std::move(ma), "q15/max_agg");

  HashJoinSpec sj;
  sj.build_key = "s_suppkey";
  sj.probe_key = "l_suppkey";
  sj.build_outputs = {{"s_name", "s_name"},
                      {"s_address", "s_address"},
                      {"s_phone", "s_phone"}};
  sj.probe_outputs = {"l_suppkey", "total_revenue"};

  return rev("q15")
      .BindScalar("q15_max", std::move(sub), "max_revenue")
      .Filter(Ge(Col("total_revenue"), ScalarRef("q15_max")), "q15/top")
      .HashJoin(PlanBuilder::Scan(d.supplier,
                                  {"s_suppkey", "s_name", "s_address",
                                   "s_phone"},
                                  "q15/supplier_scan"),
                sj, "q15/supplier_join")
      .Sort({{"l_suppkey", false}})
      .Build();
}

plan::LogicalPlan Q17Plan(const TpchData& d) {
  // Lineitems of the selected brand/container parts.
  auto base = [&d](const std::string& label) {
    std::vector<ExprPtr> pp;
    pp.push_back(Eq(Col("p_brand_code"), Lit((2 - 1) * 5 + (3 - 1))));
    pp.push_back(Eq(Col("p_container_code"),
                    Lit(CodeOf(ContainerSyllable1(), "MED") * 8 +
                        CodeOf(ContainerSyllable2(), "BOX"))));
    PlanBuilder part = PlanBuilder::Scan(
        d.part, {"p_partkey", "p_brand_code", "p_container_code"},
        label + "/part_scan");
    part.Filter(AndAll(std::move(pp)), label + "/part");
    HashJoinSpec pj;
    pj.build_key = "p_partkey";
    pj.probe_key = "l_partkey";
    pj.probe_outputs = {"l_partkey", "l_quantity_f", "l_extendedprice"};
    pj.use_bloom = true;
    PlanBuilder li = PlanBuilder::Scan(
        d.lineitem, {"l_partkey", "l_quantity_f", "l_extendedprice"},
        label + "/lineitem_scan");
    li.HashJoin(std::move(part), pj, label + "/join");
    return li;
  };

  // Per-part average quantity, joined back against the same pipeline
  // (the agg-feeding-join shape; the threshold computes above it).
  std::vector<Agg> aa;
  aa.push_back(MakeAgg("avg", Col("l_quantity_f"), "avg_qty"));
  PlanBuilder avgs = base("q17/avg");
  avgs.GroupBy({GK{"l_partkey", 40}}, {"l_partkey"}, std::move(aa),
               "q17/avg_agg");

  HashJoinSpec bj;
  bj.build_key = "l_partkey";
  bj.probe_key = "l_partkey";
  bj.build_outputs = {{"avg_qty", "avg_qty"}};
  bj.probe_outputs = {"l_quantity_f", "l_extendedprice"};

  std::vector<Out> touts;
  touts.push_back({"l_quantity_f", Col("l_quantity_f")});
  touts.push_back({"l_extendedprice", Col("l_extendedprice")});
  touts.push_back({"threshold", Mul(Col("avg_qty"), Lit(0.2))});

  std::vector<Agg> sa;
  sa.push_back(MakeAgg("sum", Col("l_extendedprice"), "total"));

  std::vector<Out> fouts;
  fouts.push_back({"avg_yearly", Div(Col("total"), Lit(7.0))});

  return base("q17")
      .HashJoin(std::move(avgs), bj, "q17/back_join")
      .Project(std::move(touts), "q17/threshold")
      .Filter(Lt(Col("l_quantity_f"), Col("threshold")),
              "q17/small_orders")
      .GroupBy({}, {}, std::move(sa), "q17/sum")
      .Project(std::move(fouts), "q17/final")
      .Build();
}

plan::LogicalPlan Q22Plan(const TpchData& d) {
  const std::vector<i64> codes = {13, 31, 23, 29, 30, 18, 17};
  // Customers of the selected country codes; the country-code *string*
  // is computed from the phone prefix with a substring projection (the
  // reference SQL's substring(c_phone from 1 for 2)).
  auto cust = [&d, &codes](const std::string& label) {
    PlanBuilder b = PlanBuilder::Scan(
        d.customer,
        {"c_custkey", "c_acctbal", "c_phone", "c_cntrycode_code"},
        label + "/customer_scan");
    b.Filter(InI64("c_cntrycode_code", codes), label + "/cust");
    std::vector<Out> outs;
    outs.push_back({"c_custkey", Col("c_custkey")});
    outs.push_back({"c_acctbal", Col("c_acctbal")});
    outs.push_back({"c_cntrycode_code", Col("c_cntrycode_code")});
    outs.push_back({"c_cntrycode", Substr(Col("c_phone"), 0, 2)});
    b.Project(std::move(outs), label + "/project");
    return b;
  };

  // Average positive balance — the scalar threshold for "rich".
  std::vector<Agg> aa;
  aa.push_back(MakeAgg("avg", Col("c_acctbal"), "avg_bal"));
  PlanBuilder sub = cust("q22/avg");
  sub.Filter(Gt(Col("c_acctbal"), Lit(0.0)), "q22/positive")
      .GroupBy({}, {}, std::move(aa), "q22/avg_agg");

  HashJoinSpec aj;
  aj.build_key = "o_custkey";
  aj.probe_key = "c_custkey";
  aj.kind = HashJoinSpec::Kind::kAnti;

  std::vector<Agg> fa;
  fa.push_back(MakeAgg("count", nullptr, "numcust"));
  fa.push_back(MakeAgg("sum", Col("c_acctbal"), "totacctbal"));

  return cust("q22")
      .BindScalar("q22_avg", std::move(sub), "avg_bal")
      .Filter(Gt(Col("c_acctbal"), ScalarRef("q22_avg")), "q22/rich")
      .HashJoin(PlanBuilder::Scan(d.orders, {"o_custkey"},
                                  "q22/orders_scan"),
                aj, "q22/no_orders")
      .GroupBy({GK{"c_cntrycode_code", 6}}, {"c_cntrycode"},
               std::move(fa), "q22/agg")
      .Sort({{"c_cntrycode", false}})
      .Build();
}

plan::LogicalPlan Q14Plan(const TpchData& d) {
  // promo and total revenue are both single-group aggregates; grouping
  // them on a constant key ("one") makes the pair joinable, and the
  // share computes in the projection above the join — no scalar
  // post-processing outside the plan. The LEFT OUTER join keeps the
  // total when no PROMO row qualifies (promo defaults to 0), the CASE
  // guards the division, and an empty date window has no total row, so
  // it returns no rows.
  //
  // The shipdate-filter + part-join pipeline below both aggregates is
  // written twice; the stage compiler's automatic CSE runs it once.
  auto base = [&d](const std::string& label) {
    HashJoinSpec pj;
    pj.build_key = "p_partkey";
    pj.probe_key = "l_partkey";
    pj.build_outputs = {{"p_type_code", "p_type_code"}};
    pj.probe_outputs = {"l_extendedprice", "l_discount"};
    std::vector<Out> outs;
    outs.push_back({"p_type_code", Col("p_type_code")});
    outs.push_back({"revenue", Revenue()});
    outs.push_back({"one", Add(Mul(Col("p_type_code"), Lit(0)), Lit(1))});
    PlanBuilder b = PlanBuilder::Scan(
        d.lineitem,
        {"l_partkey", "l_extendedprice", "l_discount", "l_shipdate"},
        label + "/lineitem_scan");
    b.Filter(RangeI64("l_shipdate", Date(1995, 9, 1), Date(1995, 10, 1)),
             label + "/select")
        .HashJoin(PlanBuilder::Scan(d.part, {"p_partkey", "p_type_code"},
                                    label + "/part_scan"),
                  pj, label + "/part_join")
        .Project(std::move(outs), label + "/project");
    return b;
  };

  // PROMO types occupy type codes [promo_lo, promo_lo + 25).
  const i64 promo_lo = CodeOf(TypeSyllable1(), "PROMO") * 25;
  std::vector<Agg> pa;
  pa.push_back(MakeAgg("sum", Col("revenue"), "promo"));
  PlanBuilder promo = base("q14/promo");
  promo
      .Filter(RangeI64("p_type_code", promo_lo, promo_lo + 25),
              "q14/promo_filter")
      .GroupBy({GK{"one", 1}}, {"one"}, std::move(pa), "q14/promo_agg");

  std::vector<Agg> ta;
  ta.push_back(MakeAgg("sum", Col("revenue"), "total"));

  HashJoinSpec fj;
  fj.build_key = "one";
  fj.probe_key = "one";
  fj.kind = HashJoinSpec::Kind::kLeftOuter;
  fj.build_outputs = {{"promo", "promo"}};
  fj.probe_outputs = {"total"};

  std::vector<Out> outs;
  outs.push_back({"promo_revenue",
                  Case(Eq(Col("total"), Lit(0.0)), Lit(0.0),
                       Div(Mul(Col("promo"), Lit(100.0)), Col("total")))});

  return base("q14")
      .GroupBy({GK{"one", 1}}, {"one"}, std::move(ta), "q14/total_agg")
      .HashJoin(std::move(promo), fj, "q14/share_join")
      .Project(std::move(outs), "q14/share")
      .Build();
}

plan::LogicalPlan Q8Plan(const TpchData& d) {
  // The hand-built tree aggregated total and BRAZIL volume separately
  // and joined the two single-column results; as a plan, one CASE
  // projection zeroes non-BRAZIL volume so a single aggregation carries
  // both sums and the share divides in the projection above it.
  const i64 steel = CodeOf(TypeSyllable1(), "ECONOMY") * 25 +
                    CodeOf(TypeSyllable2(), "ANODIZED") * 5 +
                    CodeOf(TypeSyllable3(), "STEEL");
  PlanBuilder part = PlanBuilder::Scan(
      d.part, {"p_partkey", "p_type_code"}, "q8/part_scan");
  part.Filter(Eq(Col("p_type_code"), Lit(steel)), "q8/part");
  HashJoinSpec pj;
  pj.build_key = "p_partkey";
  pj.probe_key = "l_partkey";
  pj.probe_outputs = {"l_orderkey", "l_suppkey", "l_extendedprice",
                      "l_discount"};
  pj.use_bloom = true;

  PlanBuilder orders = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_custkey", "o_orderdate", "o_orderyear"},
      "q8/orders_scan");
  orders.Filter(
      RangeI64("o_orderdate", Date(1995, 1, 1), Date(1997, 1, 1)),
      "q8/orders");
  HashJoinSpec oj;
  oj.build_key = "o_orderkey";
  oj.probe_key = "l_orderkey";
  oj.build_outputs = {{"o_custkey", "o_custkey"},
                      {"o_orderyear", "o_orderyear"}};
  oj.probe_outputs = {"l_suppkey", "l_extendedprice", "l_discount"};
  oj.use_bloom = true;

  // Customers in AMERICA; orders of other customers drop in a semi.
  HashJoinSpec cn;
  cn.build_key = "n_nationkey";
  cn.probe_key = "c_nationkey";
  cn.kind = HashJoinSpec::Kind::kSemi;
  PlanBuilder cust = PlanBuilder::Scan(
      d.customer, {"c_custkey", "c_nationkey"}, "q8/customer_scan");
  cust.HashJoin(NationsOfRegion(d, "AMERICA", "q8"), cn,
                "q8/customer_region");
  HashJoinSpec cj;
  cj.build_key = "c_custkey";
  cj.probe_key = "o_custkey";
  cj.kind = HashJoinSpec::Kind::kSemi;

  HashJoinSpec sj;
  sj.build_key = "s_suppkey";
  sj.probe_key = "l_suppkey";
  sj.build_outputs = {{"s_nationkey", "supp_nation_code"}};
  sj.probe_outputs = {"o_orderyear", "l_extendedprice", "l_discount"};

  std::vector<Out> vouts;
  vouts.push_back({"o_orderyear", Col("o_orderyear")});
  vouts.push_back({"volume", Revenue()});
  vouts.push_back(
      {"brazil_volume",
       Case(Eq(Col("supp_nation_code"), Lit(NationCode("BRAZIL"))),
            Revenue(), Lit(0.0))});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("volume"), "total"));
  aggs.push_back(MakeAgg("sum", Col("brazil_volume"), "brazil"));

  std::vector<Out> fouts;
  fouts.push_back({"o_orderyear", Col("o_orderyear")});
  fouts.push_back({"mkt_share", Div(Col("brazil"), Col("total"))});

  return PlanBuilder::Scan(d.lineitem,
                           {"l_partkey", "l_orderkey", "l_suppkey",
                            "l_extendedprice", "l_discount"},
                           "q8/lineitem_scan")
      .HashJoin(std::move(part), pj, "q8/part_join")
      .HashJoin(std::move(orders), oj, "q8/orders_join")
      .HashJoin(std::move(cust), cj, "q8/customer_semi")
      .HashJoin(PlanBuilder::Scan(d.supplier,
                                  {"s_suppkey", "s_nationkey"},
                                  "q8/supplier_scan"),
                sj, "q8/supplier_join")
      .Project(std::move(vouts), "q8/volume")
      .GroupBy({GK{"o_orderyear", 11}}, {"o_orderyear"}, std::move(aggs),
               "q8/agg")
      .Project(std::move(fouts), "q8/share")
      .Sort({{"o_orderyear", false}})
      .Build();
}

plan::LogicalPlan Q9Plan(const TpchData& d) {
  PlanBuilder part = PlanBuilder::Scan(
      d.part, {"p_partkey", "p_name"}, "q9/part_scan");
  part.Filter(StrContains("p_name", "green"), "q9/part");
  HashJoinSpec pj;
  pj.build_key = "p_partkey";
  pj.probe_key = "l_partkey";
  pj.probe_outputs = {"l_orderkey", "l_suppkey", "l_pskey",
                      "l_quantity_f", "l_extendedprice", "l_discount"};
  pj.use_bloom = true;

  HashJoinSpec psj;
  psj.build_key = "ps_pskey";
  psj.probe_key = "l_pskey";
  psj.build_outputs = {{"ps_supplycost", "ps_supplycost"}};
  psj.probe_outputs = {"l_orderkey", "l_suppkey", "l_quantity_f",
                       "l_extendedprice", "l_discount"};

  HashJoinSpec oj;
  oj.build_key = "o_orderkey";
  oj.probe_key = "l_orderkey";
  oj.build_outputs = {{"o_orderyear", "o_orderyear"}};
  oj.probe_outputs = {"l_suppkey", "l_quantity_f", "l_extendedprice",
                      "l_discount", "ps_supplycost"};

  // supplier -> nation name, then onto every line.
  HashJoinSpec nj;
  nj.build_key = "n_nationkey";
  nj.probe_key = "s_nationkey";
  nj.build_outputs = {{"n_name", "n_name"}};
  nj.probe_outputs = {"s_suppkey", "s_nationkey"};
  PlanBuilder supp = PlanBuilder::Scan(
      d.supplier, {"s_suppkey", "s_nationkey"}, "q9/supplier_scan");
  supp.HashJoin(PlanBuilder::Scan(d.nation, {"n_nationkey", "n_name"},
                                  "q9/nation_scan"),
                nj, "q9/supplier_nation");
  HashJoinSpec sj;
  sj.build_key = "s_suppkey";
  sj.probe_key = "l_suppkey";
  sj.build_outputs = {{"s_nationkey", "s_nationkey"},
                      {"n_name", "n_name"}};
  sj.probe_outputs = {"o_orderyear", "l_quantity_f", "l_extendedprice",
                      "l_discount", "ps_supplycost"};

  std::vector<Out> outs;
  outs.push_back({"s_nationkey", Col("s_nationkey")});
  outs.push_back({"n_name", Col("n_name")});
  outs.push_back({"o_orderyear", Col("o_orderyear")});
  outs.push_back({"amount",
                  Sub(Revenue(),
                      Mul(Col("ps_supplycost"), Col("l_quantity_f")))});

  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("amount"), "sum_profit"));

  return PlanBuilder::Scan(d.lineitem,
                           {"l_partkey", "l_orderkey", "l_suppkey",
                            "l_pskey", "l_quantity_f", "l_extendedprice",
                            "l_discount"},
                           "q9/lineitem_scan")
      .HashJoin(std::move(part), pj, "q9/part_join")
      .HashJoin(PlanBuilder::Scan(d.partsupp,
                                  {"ps_pskey", "ps_supplycost"},
                                  "q9/partsupp_scan"),
                psj, "q9/partsupp_join")
      .HashJoin(PlanBuilder::Scan(d.orders, {"o_orderkey", "o_orderyear"},
                                  "q9/orders_scan"),
                oj, "q9/orders_join")
      .HashJoin(std::move(supp), sj, "q9/supplier_join")
      .Project(std::move(outs), "q9/project")
      .GroupBy({GK{"s_nationkey", 5}, GK{"o_orderyear", 11}},
               {"n_name", "o_orderyear"}, std::move(aggs), "q9/agg")
      .Sort({{"n_name", false}, {"o_orderyear", true}})
      .Build();
}

plan::LogicalPlan Q16Plan(const TpchData& d) {
  // Distinct suppliers per (brand, type, size): the dedupe aggregation
  // feeds a re-aggregation that counts its groups — the agg-over-agg
  // shape (staged: two dependent aggregate stages).
  std::vector<ExprPtr> pp;
  pp.push_back(Ne(Col("p_brand_code"),
                  Lit((4 - 1) * 5 + (5 - 1))));  // Brand#45
  pp.push_back(StrNotPrefix("p_type", "MEDIUM POLISHED"));
  pp.push_back(InI64("p_size", {49, 14, 23, 45, 19, 3, 36, 9}));
  PlanBuilder part = PlanBuilder::Scan(
      d.part,
      {"p_partkey", "p_brand", "p_brand_code", "p_type", "p_type_code",
       "p_size"},
      "q16/part_scan");
  part.Filter(AndAll(std::move(pp)), "q16/part");
  HashJoinSpec pj;
  pj.build_key = "p_partkey";
  pj.probe_key = "ps_partkey";
  pj.build_outputs = {{"p_brand", "p_brand"},
                      {"p_brand_code", "p_brand_code"},
                      {"p_type", "p_type"},
                      {"p_type_code", "p_type_code"},
                      {"p_size", "p_size"}};
  pj.probe_outputs = {"ps_suppkey"};
  pj.use_bloom = true;

  // Suppliers with complaints drop in an anti join.
  PlanBuilder bad = PlanBuilder::Scan(
      d.supplier, {"s_suppkey", "s_comment"}, "q16/supplier_scan");
  bad.Filter(StrContains("s_comment", "Customer Complaints"),
             "q16/complaints");
  HashJoinSpec aj;
  aj.build_key = "s_suppkey";
  aj.probe_key = "ps_suppkey";
  aj.kind = HashJoinSpec::Kind::kAnti;

  std::vector<Agg> da;
  da.push_back(MakeAgg("count", nullptr, "dummy"));
  std::vector<Agg> ca;
  ca.push_back(MakeAgg("count", nullptr, "supplier_cnt"));

  return PlanBuilder::Scan(d.partsupp, {"ps_partkey", "ps_suppkey"},
                           "q16/partsupp_scan")
      .HashJoin(std::move(part), pj, "q16/partsupp_join")
      .HashJoin(std::move(bad), aj, "q16/anti")
      .GroupBy({GK{"p_brand_code", 5}, GK{"p_type_code", 8},
                GK{"p_size", 6}, GK{"ps_suppkey", 24}},
               {"p_brand", "p_type", "p_size", "p_brand_code",
                "p_type_code"},
               std::move(da), "q16/dedupe")
      .GroupBy({GK{"p_brand_code", 5}, GK{"p_type_code", 8},
                GK{"p_size", 6}},
               {"p_brand", "p_type", "p_size"}, std::move(ca),
               "q16/count")
      .Sort({{"supplier_cnt", true},
             {"p_brand", false},
             {"p_type", false},
             {"p_size", false}})
      .Build();
}

plan::LogicalPlan Q18Plan(const TpchData& d) {
  // Orders above 300 total quantity: the per-order quantity aggregation
  // (i64 sum, inferred from l_quantity) builds the orders join.
  std::vector<Agg> qa;
  qa.push_back(MakeAgg("sum", Col("l_quantity"), "sum_qty"));
  PlanBuilder big = PlanBuilder::Scan(
      d.lineitem, {"l_orderkey", "l_quantity"}, "q18/lineitem_scan");
  big.GroupBy({GK{"l_orderkey", 36}}, {"l_orderkey"}, std::move(qa),
              "q18/agg")
      .Filter(Gt(Col("sum_qty"), Lit(300)), "q18/having");

  HashJoinSpec oj;
  oj.build_key = "l_orderkey";
  oj.probe_key = "o_orderkey";
  oj.build_outputs = {{"sum_qty", "sum_qty"}};
  oj.probe_outputs = {"o_orderkey", "o_custkey", "o_orderdate",
                      "o_totalprice"};
  oj.use_bloom = true;

  HashJoinSpec cj;
  cj.build_key = "c_custkey";
  cj.probe_key = "o_custkey";
  cj.build_outputs = {{"c_name", "c_name"}};
  cj.probe_outputs = {"o_custkey", "o_orderkey", "o_orderdate",
                      "o_totalprice", "sum_qty"};

  return PlanBuilder::Scan(d.orders,
                           {"o_orderkey", "o_custkey", "o_orderdate",
                            "o_totalprice"},
                           "q18/orders_scan")
      .HashJoin(std::move(big), oj, "q18/orders_join")
      .HashJoin(PlanBuilder::Scan(d.customer, {"c_custkey", "c_name"},
                                  "q18/customer_scan"),
                cj, "q18/customer_join")
      .Sort({{"o_totalprice", true}, {"o_orderdate", false}}, 100)
      .Build();
}

plan::LogicalPlan Q19Plan(const TpchData& d) {
  std::vector<ExprPtr> lp;
  lp.push_back(InI64("l_shipmode_code", {CodeOf(ShipModes(), "AIR"),
                                         CodeOf(ShipModes(),
                                                "REG AIR")}));
  lp.push_back(Eq(Col("l_shipinstruct_code"),
                  Lit(CodeOf(ShipInstructs(), "DELIVER IN PERSON"))));

  HashJoinSpec pj;
  pj.build_key = "p_partkey";
  pj.probe_key = "l_partkey";
  pj.build_outputs = {{"p_brand_code", "p_brand_code"},
                      {"p_container_code", "p_container_code"},
                      {"p_size", "p_size"}};
  pj.probe_outputs = {"l_quantity", "l_extendedprice", "l_discount"};

  auto container_codes = [](std::vector<std::pair<const char*,
                                                  const char*>> pairs) {
    std::vector<i64> codes;
    for (const auto& [a, b] : pairs) {
      codes.push_back(CodeOf(ContainerSyllable1(), a) * 8 +
                      CodeOf(ContainerSyllable2(), b));
    }
    return codes;
  };
  auto branch = [](int brand_m, int brand_n, std::vector<i64> containers,
                   i64 qty_lo, i64 qty_hi, i64 size_hi) {
    std::vector<ExprPtr> preds;
    preds.push_back(Eq(Col("p_brand_code"),
                       Lit((brand_m - 1) * 5 + (brand_n - 1))));
    preds.push_back(InI64("p_container_code", std::move(containers)));
    preds.push_back(Ge(Col("l_quantity"), Lit(qty_lo)));
    preds.push_back(Le(Col("l_quantity"), Lit(qty_hi)));
    preds.push_back(Ge(Col("p_size"), Lit(i64{1})));
    preds.push_back(Le(Col("p_size"), Lit(size_hi)));
    return AndAll(std::move(preds));
  };
  std::vector<ExprPtr> branches;
  branches.push_back(branch(
      1, 2,
      container_codes({{"SM", "CASE"}, {"SM", "BOX"}, {"SM", "PACK"},
                       {"SM", "PKG"}}),
      1, 11, 5));
  branches.push_back(branch(
      2, 3,
      container_codes({{"MED", "BAG"}, {"MED", "BOX"}, {"MED", "PKG"},
                       {"MED", "PACK"}}),
      10, 20, 10));
  branches.push_back(branch(
      3, 4,
      container_codes({{"LG", "CASE"}, {"LG", "BOX"}, {"LG", "PACK"},
                       {"LG", "PKG"}}),
      20, 30, 15));

  std::vector<Out> outs;
  outs.push_back({"revenue", Revenue()});
  std::vector<Agg> aggs;
  aggs.push_back(MakeAgg("sum", Col("revenue"), "revenue"));

  return PlanBuilder::Scan(d.lineitem,
                           {"l_partkey", "l_quantity", "l_extendedprice",
                            "l_discount", "l_shipmode_code",
                            "l_shipinstruct_code"},
                           "q19/lineitem_scan")
      .Filter(AndAll(std::move(lp)), "q19/lineitem")
      .HashJoin(PlanBuilder::Scan(d.part,
                                  {"p_partkey", "p_brand_code",
                                   "p_container_code", "p_size"},
                                  "q19/part_scan"),
                pj, "q19/join")
      .Filter(OrAny(std::move(branches)), "q19/or_filter")
      .Project(std::move(outs), "q19/project")
      .GroupBy({}, {}, std::move(aggs), "q19/agg")
      .Build();
}

plan::LogicalPlan Q20Plan(const TpchData& d) {
  // Quantity shipped in 1994 per (part, supplier) builds the partsupp
  // join; availqty > half the shipped quantity marks excess stock.
  std::vector<Agg> sa;
  sa.push_back(MakeAgg("sum", Col("l_quantity_f"), "sum_qty"));
  PlanBuilder qty = PlanBuilder::Scan(
      d.lineitem, {"l_pskey", "l_quantity_f", "l_shipdate"},
      "q20/lineitem_scan");
  qty.Filter(RangeI64("l_shipdate", Date(1994, 1, 1), Date(1995, 1, 1)),
             "q20/shipped")
      .GroupBy({GK{"l_pskey", 48}}, {"l_pskey"}, std::move(sa),
               "q20/qty_agg");

  HashJoinSpec qj;
  qj.build_key = "l_pskey";
  qj.probe_key = "ps_pskey";
  qj.build_outputs = {{"sum_qty", "sum_qty"}};
  qj.probe_outputs = {"ps_partkey", "ps_suppkey", "ps_availqty_f"};

  std::vector<Out> houts;
  houts.push_back({"ps_partkey", Col("ps_partkey")});
  houts.push_back({"ps_suppkey", Col("ps_suppkey")});
  houts.push_back({"ps_availqty_f", Col("ps_availqty_f")});
  houts.push_back({"half_qty", Mul(Col("sum_qty"), Lit(0.5))});

  // Restrict to forest% parts, dedupe the surviving supplier keys.
  PlanBuilder part = PlanBuilder::Scan(
      d.part, {"p_partkey", "p_name"}, "q20/part_scan");
  part.Filter(StrPrefix("p_name", "forest"), "q20/part");
  HashJoinSpec fj;
  fj.build_key = "p_partkey";
  fj.probe_key = "ps_partkey";
  fj.kind = HashJoinSpec::Kind::kSemi;

  std::vector<Agg> da;
  da.push_back(MakeAgg("count", nullptr, "dummy"));
  PlanBuilder keys = PlanBuilder::Scan(
      d.partsupp,
      {"ps_pskey", "ps_partkey", "ps_suppkey", "ps_availqty_f"},
      "q20/partsupp_scan");
  keys.HashJoin(std::move(qty), qj, "q20/qty_join")
      .Project(std::move(houts), "q20/half")
      .Filter(Gt(Col("ps_availqty_f"), Col("half_qty")), "q20/excess")
      .HashJoin(std::move(part), fj, "q20/forest_semi")
      .GroupBy({GK{"ps_suppkey", 24}}, {"ps_suppkey"}, std::move(da),
               "q20/dedupe");

  // CANADA suppliers among the deduped keys.
  HashJoinSpec sj;
  sj.build_key = "ps_suppkey";
  sj.probe_key = "s_suppkey";
  sj.kind = HashJoinSpec::Kind::kSemi;

  return PlanBuilder::Scan(d.supplier,
                           {"s_suppkey", "s_name", "s_address",
                            "s_nationkey"},
                           "q20/supplier_scan")
      .Filter(Eq(Col("s_nationkey"), Lit(NationCode("CANADA"))),
              "q20/s_nation")
      .HashJoin(std::move(keys), sj, "q20/supplier_semi")
      .Sort({{"s_name", false}})
      .Build();
}

plan::LogicalPlan Q21Plan(const TpchData& d) {
  // The late-lineitem filter (receipt past commit) feeds both the
  // per-order late-supplier count and the main spine — bound once as a
  // shared subplan, so every executor materializes it exactly once and
  // both consumers scan the same result (the DAG shape ARCHITECTURE.md
  // walks through).
  PlanBuilder late_b = PlanBuilder::Scan(
      d.lineitem,
      {"l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate"},
      "q21/late_scan");
  late_b.Filter(Gt(Col("l_receiptdate"), Col("l_commitdate")),
                "q21/late");
  const plan::SharedSubplan late =
      PlanBuilder::BindShared("q21_late", std::move(late_b));

  // Distinct suppliers per order (all lines): agg-over-agg, with the
  // >= 2 filter making it the EXISTS-other-supplier semi build.
  std::vector<Agg> d1;
  d1.push_back(MakeAgg("count", nullptr, "dummy"));
  std::vector<Agg> c1;
  c1.push_back(MakeAgg("count", nullptr, "n_supp"));
  PlanBuilder n_supp = PlanBuilder::Scan(
      d.lineitem, {"l_orderkey", "l_suppkey"}, "q21/pairs_scan");
  n_supp
      .GroupBy({GK{"l_orderkey", 36}, GK{"l_suppkey", 24}},
               {"l_orderkey"}, std::move(d1), "q21/all_pairs")
      .GroupBy({GK{"l_orderkey", 36}}, {"l_orderkey"}, std::move(c1),
               "q21/supp_per_order")
      .Filter(Ge(Col("n_supp"), Lit(i64{2})), "q21/multi");

  // Distinct *late* suppliers per order over the shared late lines;
  // == 1 makes it the NOT-EXISTS-other-late-supplier semi build.
  std::vector<Agg> d2;
  d2.push_back(MakeAgg("count", nullptr, "dummy"));
  std::vector<Agg> c2;
  c2.push_back(MakeAgg("count", nullptr, "n_late_supp"));
  PlanBuilder n_late = PlanBuilder::SharedRef(late, "q21/late_pairs_ref");
  n_late
      .GroupBy({GK{"l_orderkey", 36}, GK{"l_suppkey", 24}},
               {"l_orderkey"}, std::move(d2), "q21/late_pairs")
      .GroupBy({GK{"l_orderkey", 36}}, {"l_orderkey"}, std::move(c2),
               "q21/late_per_order")
      .Filter(Eq(Col("n_late_supp"), Lit(i64{1})), "q21/single_late");

  PlanBuilder saudi = PlanBuilder::Scan(
      d.supplier, {"s_suppkey", "s_name", "s_nationkey"},
      "q21/supplier_scan");
  saudi.Filter(Eq(Col("s_nationkey"), Lit(NationCode("SAUDI ARABIA"))),
               "q21/s_nation");
  HashJoinSpec sj;
  sj.build_key = "s_suppkey";
  sj.probe_key = "l_suppkey";
  sj.build_outputs = {{"s_name", "s_name"}};
  sj.probe_outputs = {"l_orderkey", "l_suppkey"};
  sj.use_bloom = true;

  PlanBuilder orders_f = PlanBuilder::Scan(
      d.orders, {"o_orderkey", "o_orderstatus_code"}, "q21/orders_scan");
  orders_f.Filter(Eq(Col("o_orderstatus_code"), Lit(i64{0})),
                  "q21/orders_f");
  HashJoinSpec ofj;
  ofj.build_key = "o_orderkey";
  ofj.probe_key = "l_orderkey";
  ofj.kind = HashJoinSpec::Kind::kSemi;

  HashJoinSpec mj;
  mj.build_key = "l_orderkey";
  mj.probe_key = "l_orderkey";
  mj.kind = HashJoinSpec::Kind::kSemi;
  HashJoinSpec lj;
  lj.build_key = "l_orderkey";
  lj.probe_key = "l_orderkey";
  lj.kind = HashJoinSpec::Kind::kSemi;

  std::vector<Agg> fa;
  fa.push_back(MakeAgg("count", nullptr, "numwait"));

  return PlanBuilder::SharedRef(late, "q21/late_ref")
      .HashJoin(std::move(saudi), sj, "q21/saudi_join")
      .HashJoin(std::move(orders_f), ofj, "q21/status_semi")
      .HashJoin(std::move(n_supp), mj, "q21/exists_semi")
      .HashJoin(std::move(n_late), lj, "q21/notexists_semi")
      .GroupBy({GK{"l_suppkey", 24}}, {"s_name"}, std::move(fa),
               "q21/agg")
      .Sort({{"numwait", true}, {"s_name", false}}, 100)
      .Build();
}

plan::LogicalPlan PlanForQuery(const TpchData& d, int q) {
  switch (q) {
    case 1: return Q1Plan(d);
    case 2: return Q2Plan(d);
    case 3: return Q3Plan(d);
    case 4: return Q4Plan(d);
    case 5: return Q5Plan(d);
    case 6: return Q6Plan(d);
    case 7: return Q7Plan(d);
    case 8: return Q8Plan(d);
    case 9: return Q9Plan(d);
    case 10: return Q10Plan(d);
    case 11: return Q11Plan(d);
    case 12: return Q12Plan(d);
    case 13: return Q13Plan(d);
    case 14: return Q14Plan(d);
    case 15: return Q15Plan(d);
    case 16: return Q16Plan(d);
    case 17: return Q17Plan(d);
    case 18: return Q18Plan(d);
    case 19: return Q19Plan(d);
    case 20: return Q20Plan(d);
    case 21: return Q21Plan(d);
    case 22: return Q22Plan(d);
    default:
      MA_CHECK(false);  // q outside 1..22
      return plan::LogicalPlan{};
  }
}

}  // namespace ma::tpch
