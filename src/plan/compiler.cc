#include "plan/compiler.h"

#include <algorithm>

#include "exec/op_scan.h"
#include "exec/op_select.h"
#include "exec/op_sort.h"
#include "plan/plan_fingerprint.h"

namespace ma::plan {

namespace {

ExprPtr ScalarLiteral(const Expr& ref, const ScalarBindings& scalars) {
  const auto it = scalars.find(ref.column);
  MA_CHECK(it != scalars.end());  // builder validation guarantees this
  const ScalarValue& v = it->second;
  return v.type == PhysicalType::kF64 ? Expr::LitF64(v.f)
                                      : Expr::LitI64(v.i);
}

/// Rewrites every kScalarRef inside `e` (already a private clone) into
/// its literal, in place.
void SubstituteScalarRefs(Expr* e, const ScalarBindings& scalars) {
  for (ExprPtr& c : e->children) {
    if (c->kind == Expr::Kind::kScalarRef) {
      c = ScalarLiteral(*c, scalars);
    } else {
      SubstituteScalarRefs(c.get(), scalars);
    }
  }
}

}  // namespace

ExprPtr BindScalarRefs(const Expr& expr, const ScalarBindings& scalars) {
  if (expr.kind == Expr::Kind::kScalarRef) {
    return ScalarLiteral(expr, scalars);
  }
  // One deep-copy site (Expr::Clone carries every field); the
  // substitution pass only rewrites the scalar-ref nodes.
  ExprPtr e = expr.Clone();
  SubstituteScalarRefs(e.get(), scalars);
  return e;
}

std::vector<HashAggOperator::AggSpec> CloneAggs(
    const std::vector<HashAggOperator::AggSpec>& aggs,
    const ScalarBindings& scalars) {
  std::vector<HashAggOperator::AggSpec> cloned;
  cloned.reserve(aggs.size());
  for (const auto& a : aggs) {
    cloned.push_back(a.Clone());
    if (cloned.back().arg != nullptr) {
      cloned.back().arg = BindScalarRefs(*a.arg, scalars);
    }
  }
  return cloned;
}

RunResult WithDeclaredSchema(const std::vector<ColumnInfo>& schema,
                             RunResult r) {
  if (!r.status.ok() || r.table == nullptr) return r;
  if (r.table->row_count() != 0) {
    for (const ColumnInfo& c : schema) {
      const Column* col = r.table->FindColumn(c.name);
      MA_CHECK(col != nullptr && col->type() == c.type);
    }
    return r;
  }
  auto t = std::make_unique<Table>("result");
  for (const ColumnInfo& c : schema) t->AddColumn(c.name, c.type);
  t->set_row_count(0);
  r.table = std::move(t);
  return r;
}

Status ReadScalarValue(const Table& t, const std::string& column,
                       PhysicalType type, ScalarValue* out) {
  *out = ScalarValue();
  out->type = type;
  if (t.row_count() > 1) {
    return Status::InvalidArgument(
        "scalar subquery for '" + column + "' produced " +
        std::to_string(t.row_count()) + " rows (expected at most one)");
  }
  if (t.row_count() == 0) return Status::OK();
  const Column* c = t.FindColumn(column);
  if (c == nullptr || c->type() != type || c->size() < 1) {
    return Status::InvalidArgument("scalar subquery column '" + column +
                                   "' is missing or mistyped");
  }
  if (type == PhysicalType::kF64) {
    out->f = c->Get<f64>(0);
  } else {
    out->i = c->Get<i64>(0);
  }
  return Status::OK();
}

namespace {

/// Serial leaf for kSharedScan: scans a shared subplan's materialized
/// result and co-owns it, so the one evaluated table outlives
/// CompileSerial for as long as any consumer in the tree does.
class SharedResultScanOperator : public ScanOperator {
 public:
  SharedResultScanOperator(Engine* engine, std::shared_ptr<Table> table)
      : ScanOperator(engine, table.get()), owned_(std::move(table)) {}

 private:
  std::shared_ptr<Table> owned_;
};

std::vector<ProjectOperator::Output> CloneOutputs(
    const std::vector<ProjectOperator::Output>& outputs,
    const ScalarBindings& scalars) {
  std::vector<ProjectOperator::Output> cloned;
  cloned.reserve(outputs.size());
  for (const auto& o : outputs) {
    cloned.push_back({o.name, BindScalarRefs(*o.expr, scalars)});
  }
  return cloned;
}

/// Scalar names referenced anywhere in `e`.
void CollectScalarRefs(const Expr* e, std::vector<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind == Expr::Kind::kScalarRef) out->push_back(e->column);
  for (const ExprPtr& c : e->children) CollectScalarRefs(c.get(), out);
}

/// Scalar names referenced by the streaming fragment [node..stop):
/// filter predicates and project outputs, following the probe side of
/// hash joins (build sides are stages of their own).
void CollectFragmentScalarRefs(const PlanNode* node, const PlanNode* stop,
                               std::vector<std::string>* out) {
  if (node == nullptr || node == stop) return;
  switch (node->kind) {
    case NodeKind::kFilter:
      CollectScalarRefs(node->predicate.get(), out);
      CollectFragmentScalarRefs(node->children[0].get(), stop, out);
      break;
    case NodeKind::kProject:
      for (const auto& o : node->outputs) {
        CollectScalarRefs(o.expr.get(), out);
      }
      CollectFragmentScalarRefs(node->children[0].get(), stop, out);
      break;
    case NodeKind::kHashJoin:
      CollectFragmentScalarRefs(node->children[1].get(), stop, out);
      break;
    default:
      break;  // scan leaf or breaker boundary
  }
}

/// Counts canonical (label-free) subtree encodings — pass 1 of the
/// compiler's automatic CSE. kSharedScan leaves have no children;
/// shared spec roots are counted as roots of their own.
void CountSubtrees(const PlanNode& n,
                   std::unordered_map<std::string, int>* counts) {
  ++(*counts)[SubtreeCanon(n)];
  for (const auto& c : n.children) CountSubtrees(*c, counts);
}

/// Grows a StagePlan bottom-up: stages are appended children-first, so
/// the stages vector comes out in topological order by construction.
class StageBuilder {
 public:
  explicit StageBuilder(StagePlan* out) : out_(out) {}

  /// Automatic CSE marking: counts every subtree's canonical encoding
  /// across all of `plan`'s roots, then marks the MAXIMAL nodes whose
  /// encoding occurs at least twice (marking stops descending at a
  /// marked node, so inner duplicates merge as part of the outer
  /// subtree, and a marked subtree never contains another marked
  /// node). During stage building every marked occurrence resolves to
  /// one materializing stage, keyed by the canonical encoding.
  void MarkCse(const LogicalPlan& plan) {
    std::unordered_map<std::string, int> counts;
    for (const auto& sp : plan.shared) CountSubtrees(*sp->root, &counts);
    for (const auto& sc : plan.scalars) CountSubtrees(*sc.root, &counts);
    CountSubtrees(*plan.root, &counts);
    for (const auto& sp : plan.shared) MarkSubtrees(*sp->root, counts);
    for (const auto& sc : plan.scalars) MarkSubtrees(*sc.root, counts);
    MarkSubtrees(*plan.root, counts);
  }

  /// Registers `name` as produced by stage `id` (its materialized
  /// single-row intermediate); later stages referencing the scalar get
  /// a dependency edge on it.
  void DefineScalar(const std::string& name, int id) {
    scalar_stage_[name] = id;
  }

  /// The leaf of a streaming fragment: a base-table scan or the
  /// materialized output of a breaker stage, plus the node the leaf
  /// operator replaces and the stages the fragment depends on.
  struct PipelineLeaf {
    StageInput input;
    const PlanNode* stop = nullptr;
    std::vector<int> deps;
  };

  /// Walks a streaming fragment (filters, projects, hash-join probes)
  /// down to its leaf. Join build sides become kJoinBuild stages; a
  /// breaker below becomes a materializing stage whose output the
  /// fragment scans.
  Status CollectPipeline(const PlanNode* node, PipelineLeaf* leaf) {
    // Shared materialization (explicit SharedRef or automatic CSE)
    // terminates the fragment: the node becomes a leaf scanning the
    // single shared intermediate.
    int shared_id = -1;
    MA_RETURN_IF_ERROR(MaybeShared(node, &shared_id));
    if (shared_id >= 0) {
      if (leaf->input.scan != nullptr || leaf->input.from_stage()) {
        return Status::Internal("fragment with two scan leaves");
      }
      leaf->input.stage = shared_id;
      leaf->stop = node;
      leaf->deps.push_back(shared_id);
      return Status::OK();
    }
    switch (node->kind) {
      case NodeKind::kScan:
        if (leaf->input.scan != nullptr || leaf->input.from_stage()) {
          return Status::Internal("fragment with two scan leaves");
        }
        leaf->input.scan = node;
        leaf->stop = node;
        return Status::OK();
      case NodeKind::kSharedScan:
        return Status::Internal("shared scan not resolved to a stage");
      case NodeKind::kFilter:
      case NodeKind::kProject:
        return CollectPipeline(node->children[0].get(), leaf);
      case NodeKind::kHashJoin: {
        // The build side becomes its own stage chain, appended before
        // this fragment's stage so execution order stays dependency-safe.
        int build_id = -1;
        MA_RETURN_IF_ERROR(AddJoinBuild(node, &build_id));
        leaf->deps.push_back(build_id);
        return CollectPipeline(node->children[1].get(), leaf);
      }
      case NodeKind::kGroupBy:
      case NodeKind::kSort:
      case NodeKind::kLimit:
      case NodeKind::kMergeJoin: {
        int stage_id = -1;
        MA_RETURN_IF_ERROR(MaterializeNode(node, &stage_id));
        leaf->input.stage = stage_id;
        leaf->stop = node;
        leaf->deps.push_back(stage_id);
        return Status::OK();
      }
    }
    return Status::Internal("unreachable node kind");
  }

  /// Creates the kJoinBuild stage (and everything its build pipeline
  /// depends on) for `join`'s build side.
  Status AddJoinBuild(const PlanNode* join, int* stage_id) {
    PipelineLeaf bl;
    MA_RETURN_IF_ERROR(CollectPipeline(join->children[0].get(), &bl));
    Stage s;
    s.kind = Stage::Kind::kJoinBuild;
    s.root = join->children[0].get();
    s.stop = bl.stop;
    s.input = bl.input;
    s.join = join;
    s.deps = std::move(bl.deps);
    s.label = join->label;
    *stage_id = Push(std::move(s));
    return Status::OK();
  }

  /// Creates stages computing the subtree rooted at `node` and
  /// materializing its full output into an intermediate.
  Status MaterializeNode(const PlanNode* node, int* stage_id) {
    // A shared/deduplicated subtree is already (or becomes) one
    // materializing stage; reuse it instead of materializing again.
    MA_RETURN_IF_ERROR(MaybeShared(node, stage_id));
    if (*stage_id >= 0) return Status::OK();
    return AddStage(node, /*materialize=*/true, stage_id);
  }

  /// Creates the stage that computes `node`, after the stages it
  /// depends on. `materialize` picks where its output goes: an
  /// intermediate that later stages scan, or (for the plan root) the
  /// query result.
  Status AddStage(const PlanNode* node, bool materialize, int* stage_id) {
    Stage s;
    switch (node->kind) {
      case NodeKind::kGroupBy: {
        // The pipeline below the GroupBy plus the breaker itself
        // (thread-local pre-agg + merge at run time).
        PipelineLeaf pl;
        MA_RETURN_IF_ERROR(CollectPipeline(node->children[0].get(), &pl));
        s.kind = Stage::Kind::kAggregate;
        s.root = node->children[0].get();
        s.stop = pl.stop;
        s.input = pl.input;
        s.agg = node;
        s.deps = std::move(pl.deps);
        break;
      }
      case NodeKind::kSort:
      case NodeKind::kLimit:
        s.kind = Stage::Kind::kSort;
        MA_RETURN_IF_ERROR(
            MaterializeInput(node->children[0].get(), &s.input, &s.deps));
        if (node->kind == NodeKind::kSort) s.sort_keys = node->sort_keys;
        s.limit = node->limit;
        break;
      case NodeKind::kMergeJoin:
        MA_RETURN_IF_ERROR(FillMergeJoin(node, &s));
        break;
      default: {  // streaming chain: one pipeline stage
        PipelineLeaf pl;
        MA_RETURN_IF_ERROR(CollectPipeline(node, &pl));
        s.kind = Stage::Kind::kPipeline;
        s.root = node;
        s.stop = pl.stop;
        s.input = pl.input;
        s.deps = std::move(pl.deps);
        break;
      }
    }
    s.materialize = materialize;
    s.out_schema = node->schema;
    s.label = node->label;
    *stage_id = Push(std::move(s));
    return Status::OK();
  }

  /// Resolves a merge-join (or sort) input: a bare base-table scan is
  /// read directly, anything else is computed by stages of its own.
  Status MaterializeInput(const PlanNode* node, StageInput* ref,
                          std::vector<int>* deps) {
    if (node->kind == NodeKind::kScan) {
      ref->scan = node;
      return Status::OK();
    }
    int id = -1;
    MA_RETURN_IF_ERROR(MaterializeNode(node, &id));
    ref->stage = id;
    deps->push_back(id);
    return Status::OK();
  }

  /// Fills a merge-join stage: each side is a base table or the
  /// stage materializing it. Order is not proven here: the merge
  /// operator rejects a key that goes down while it drains each input,
  /// the same check on the serial and the staged path.
  Status FillMergeJoin(const PlanNode* merge, Stage* s) {
    s->kind = Stage::Kind::kMergeJoin;
    s->merge = merge;
    MA_RETURN_IF_ERROR(MaterializeInput(merge->children[0].get(),
                                        &s->input, &s->deps));
    return MaterializeInput(merge->children[1].get(), &s->right, &s->deps);
  }

  /// Resolves `node` to the id of a shared materializing stage when it
  /// is a kSharedScan leaf (explicit sharing) or a CSE-marked duplicate
  /// subtree (automatic sharing); leaves *stage_id at -1 otherwise. The
  /// first marked occurrence builds the stage with itself exempted, so
  /// the recursive MaterializeNode below doesn't loop straight back
  /// here; inner nodes of a marked subtree are never themselves marked
  /// (maximality), so one exemption pointer suffices.
  Status MaybeShared(const PlanNode* node, int* stage_id) {
    *stage_id = -1;
    if (node->kind == NodeKind::kSharedScan) {
      return SharedStage(node->shared.get(), stage_id);
    }
    if (node == cse_exempt_) return Status::OK();
    const auto it = cse_nodes_.find(node);
    if (it == cse_nodes_.end()) return Status::OK();
    const std::string canon = it->second;
    const auto sit = cse_stage_.find(canon);
    if (sit != cse_stage_.end()) {
      *stage_id = sit->second;
      return Status::OK();
    }
    const PlanNode* saved = cse_exempt_;
    cse_exempt_ = node;
    int id = -1;
    const Status st = MaterializeNode(node, &id);
    cse_exempt_ = saved;
    MA_RETURN_IF_ERROR(st);
    cse_stage_[canon] = id;
    *stage_id = id;
    return Status::OK();
  }

  /// Get-or-create the materializing stage for an explicitly bound
  /// shared subplan. Keyed by spec identity, and unified with the
  /// automatic-CSE stage map so an explicit SharedRef and an inline
  /// duplicate of the same subtree land on one stage.
  Status SharedStage(const SharedSpec* spec, int* stage_id) {
    const auto it = shared_stage_.find(spec);
    if (it != shared_stage_.end()) {
      *stage_id = it->second;
      return Status::OK();
    }
    const std::string canon = SubtreeCanon(*spec->root);
    int id = -1;
    const auto cit = cse_stage_.find(canon);
    if (cit != cse_stage_.end()) {
      id = cit->second;
    } else {
      MA_RETURN_IF_ERROR(MaterializeNode(spec->root.get(), &id));
      cse_stage_[canon] = id;
    }
    shared_stage_[spec] = id;
    *stage_id = id;
    return Status::OK();
  }

  int Push(Stage s) {
    // Scalar dep edges: the fragment's expressions read their scalar
    // values from the producing stages' broadcast intermediates.
    if (s.kind == Stage::Kind::kPipeline ||
        s.kind == Stage::Kind::kJoinBuild ||
        s.kind == Stage::Kind::kAggregate) {
      std::vector<std::string> refs;
      CollectFragmentScalarRefs(s.root, s.stop, &refs);
      if (s.agg != nullptr) {
        for (const auto& a : s.agg->aggs) {
          CollectScalarRefs(a.arg.get(), &refs);
        }
      }
      for (const std::string& name : refs) {
        const auto it = scalar_stage_.find(name);
        if (it != scalar_stage_.end()) s.deps.push_back(it->second);
      }
    }
    s.id = static_cast<int>(out_->stages.size());
    std::sort(s.deps.begin(), s.deps.end());
    s.deps.erase(std::unique(s.deps.begin(), s.deps.end()), s.deps.end());
    out_->stages.push_back(std::move(s));
    return out_->stages.back().id;
  }

 private:
  /// Marks the maximal duplicate subtrees under `n` (pass 2 of MarkCse).
  void MarkSubtrees(const PlanNode& n,
                    const std::unordered_map<std::string, int>& counts) {
    // Bare scans are already shared base tables, and shared scans are
    // refs to a materialization — neither is worth a stage of its own.
    if (n.kind != NodeKind::kScan && n.kind != NodeKind::kSharedScan) {
      std::string canon = SubtreeCanon(n);
      const auto it = counts.find(canon);
      if (it != counts.end() && it->second >= 2) {
        cse_nodes_.emplace(&n, std::move(canon));
        return;  // maximal: inner duplicates merge as part of this one
      }
    }
    for (const auto& c : n.children) MarkSubtrees(*c, counts);
  }

  StagePlan* out_;
  std::unordered_map<std::string, int> scalar_stage_;
  /// Explicitly shared subplans already lowered to a stage.
  std::unordered_map<const SharedSpec*, int> shared_stage_;
  /// CSE-marked duplicate nodes -> their canonical subtree encoding.
  std::unordered_map<const PlanNode*, std::string> cse_nodes_;
  /// Canonical encoding -> the one stage materializing that subtree.
  std::unordered_map<std::string, int> cse_stage_;
  /// The marked node currently being materialized (its own stage build
  /// must not resolve it back to itself).
  const PlanNode* cse_exempt_ = nullptr;
};

const char* StageKindName(Stage::Kind k) {
  switch (k) {
    case Stage::Kind::kPipeline:
      return "pipeline";
    case Stage::Kind::kJoinBuild:
      return "join_build";
    case Stage::Kind::kAggregate:
      return "aggregate";
    case Stage::Kind::kSort:
      return "sort";
    case Stage::Kind::kMergeJoin:
      return "merge_join";
  }
  return "?";
}

void DescribeInput(const StageInput& in, std::string* out) {
  if (in.from_stage()) {
    out->append("stage ").append(std::to_string(in.stage));
  } else if (in.scan != nullptr) {
    out->append("table ").append(in.scan->table != nullptr
                                     ? in.scan->table->name()
                                     : "?");
  }
}

}  // namespace

std::string StagePlan::Describe() const {
  std::string out;
  for (const ScalarStage& sc : scalars) {
    out.append("scalar $").append(sc.name).append(" <- stage ");
    out.append(std::to_string(sc.stage)).append(".").append(sc.column);
    out.append("\n");
  }
  for (const Stage& s : stages) {
    out.append("stage ").append(std::to_string(s.id)).append(": ");
    out.append(StageKindName(s.kind));
    out.append(" <- ");
    DescribeInput(s.input, &out);
    if (s.kind == Stage::Kind::kMergeJoin) {
      out.append(" x ");
      DescribeInput(s.right, &out);
    }
    if (!s.deps.empty()) {
      out.append("  deps[");
      for (size_t i = 0; i < s.deps.size(); ++i) {
        if (i > 0) out.append(",");
        out.append(std::to_string(s.deps[i]));
      }
      out.append("]");
    }
    out.append(s.kind == Stage::Kind::kJoinBuild ? "  -> shared build"
               : s.materialize                    ? "  -> intermediate"
                                                  : "  -> result");
    if (!s.label.empty()) out.append("  [").append(s.label).append("]");
    out.append("\n");
  }
  return out;
}

OperatorPtr Compiler::Lower(const PlanNode* node, LowerEnv* env) {
  if (node == env->stop) return std::move(env->leaf);
  Engine* engine = env->engine;
  const ScalarBindings& scalars = *env->scalars;
  switch (node->kind) {
    case NodeKind::kScan:
      return std::make_unique<ScanOperator>(engine, node->table,
                                            node->columns);
    case NodeKind::kSharedScan: {
      // CompileSerial evaluates specs first; staged fragments stop at
      // every shared scan.
      MA_CHECK(env->shared != nullptr);
      const auto it = env->shared->find(node->shared.get());
      MA_CHECK(it != env->shared->end());
      return std::make_unique<SharedResultScanOperator>(engine, it->second);
    }
    case NodeKind::kFilter:
      return std::make_unique<SelectOperator>(
          engine, Lower(node->children[0].get(), env),
          BindScalarRefs(*node->predicate, scalars), node->label);
    case NodeKind::kProject:
      return std::make_unique<ProjectOperator>(
          engine, Lower(node->children[0].get(), env),
          CloneOutputs(node->outputs, scalars), node->label);
    case NodeKind::kHashJoin: {
      if (env->builds != nullptr) {
        const auto it = env->builds->find(node);
        if (it != env->builds->end()) {
          return std::make_unique<HashJoinOperator>(
              engine, it->second, Lower(node->children[1].get(), env),
              node->hash_spec, node->label);
        }
      }
      return std::make_unique<HashJoinOperator>(
          engine, Lower(node->children[0].get(), env),
          Lower(node->children[1].get(), env), node->hash_spec,
          node->label);
    }
    case NodeKind::kMergeJoin:
      return std::make_unique<MergeJoinOperator>(
          engine, Lower(node->children[0].get(), env),
          Lower(node->children[1].get(), env), node->merge_spec,
          node->label);
    case NodeKind::kGroupBy:
      return std::make_unique<HashAggOperator>(
          engine, Lower(node->children[0].get(), env), node->group_keys,
          node->group_outputs, CloneAggs(node->aggs, scalars), node->label);
    case NodeKind::kSort:
      return std::make_unique<SortOperator>(
          engine, Lower(node->children[0].get(), env), node->sort_keys,
          node->limit);
    case NodeKind::kLimit:
      // A sort with no keys keeps input order; partial_sort then just
      // cuts off after `limit` rows.
      return std::make_unique<SortOperator>(
          engine, Lower(node->children[0].get(), env),
          std::vector<SortKey>{}, node->limit);
  }
  MA_CHECK(false);
  return nullptr;
}

OperatorPtr Compiler::CompileSerial(const LogicalPlan& plan,
                                    Engine* engine) {
  if (!plan.ok()) {
    engine->context()->Fail(plan.status.ok()
                                ? Status::InvalidArgument("empty plan")
                                : plan.status);
    return nullptr;
  }
  // Shared subplans evaluate first — plan.shared is in dependency
  // order, so each spec's own shared refs are already materialized when
  // it runs. Each result table is owned by the map's shared_ptr and
  // co-owned by every consumer operator, so the one materialization
  // outlives this function with the returned tree. Shared subplans
  // cannot reference scalars (builder contract), so they lower against
  // empty bindings.
  ScalarBindings bindings;
  const ScalarBindings no_scalars;
  SharedTables shared_tables;
  auto lower = [&](const PlanNode* root, const ScalarBindings& scalars) {
    LowerEnv env{.engine = engine, .scalars = &scalars,
                 .shared = &shared_tables};
    return Lower(root, &env);
  };
  for (const auto& sp : plan.shared) {
    OperatorPtr sub = lower(sp->root.get(), no_scalars);
    RunResult r = engine->Run(*sub);
    if (!r.status.ok() || r.table == nullptr) {
      engine->context()->Fail(
          r.status.ok() ? Status::Internal("shared subplan produced no "
                                           "result table")
                        : r.status);
      return nullptr;
    }
    shared_tables[sp.get()] = std::shared_ptr<Table>(std::move(r.table));
  }
  // Scalar subqueries run next, in declaration order, on the same
  // engine; their values substitute into the main tree's expressions.
  // Subquery plans cannot reference scalars (builder contract), so
  // they lower against empty bindings (their roots may reference
  // shared subplans).
  for (const ScalarSpec& sc : plan.scalars) {
    OperatorPtr sub = lower(sc.root.get(), no_scalars);
    const RunResult r = engine->Run(*sub);
    if (!r.status.ok() || r.table == nullptr) {
      // Engine::Run already recorded the failure on the context; make
      // sure something is there even for a status-less null table.
      engine->context()->Fail(
          r.status.ok() ? Status::Internal("scalar subquery produced no "
                                           "result table")
                        : r.status);
      return nullptr;
    }
    ScalarValue v;
    Status s = ReadScalarValue(*r.table, sc.column, sc.type, &v);
    if (!s.ok()) {
      engine->context()->Fail(std::move(s));
      return nullptr;
    }
    bindings[sc.name] = v;
  }
  return lower(plan.root.get(), bindings);
}

Status Compiler::BuildStagePlan(const LogicalPlan& plan, StagePlan* out) {
  if (!plan.ok()) {
    return plan.status.ok() ? Status::InvalidArgument("empty plan")
                            : plan.status;
  }
  *out = StagePlan();
  StageBuilder builder(out);

  // Automatic CSE: structurally identical subtrees (label-free canon,
  // table pointers included) materialize once and are scanned by every
  // consumer — the same machinery explicit SharedRefs resolve through.
  builder.MarkCse(plan);

  // Scalar subqueries become stages of their own, ahead of the main
  // spine: each materializes its single-row result, which the stage
  // scheduler reads into the run's ScalarBindings (the broadcast
  // constant later stages' compiled expressions consume).
  for (const ScalarSpec& sc : plan.scalars) {
    int id = -1;
    MA_RETURN_IF_ERROR(builder.MaterializeNode(sc.root.get(), &id));
    out->scalars.push_back({sc.name, sc.column, sc.type, id});
    builder.DefineScalar(sc.name, id);
  }

  // The root becomes the last stage, and its output is the result
  // instead of an intermediate; its sub-breakers and build sides become
  // the stages before it. The root skips MaterializeNode's sharing
  // lookup: a shared stage must keep its intermediate for its other
  // readers, so a shared root gets a stage of its own.
  int root_id = -1;
  MA_RETURN_IF_ERROR(
      builder.AddStage(plan.root.get(), /*materialize=*/false, &root_id));

  for (const Stage& s : out->stages) {
    if (!s.input.from_stage() && s.input.scan == nullptr &&
        s.kind != Stage::Kind::kMergeJoin) {
      return Status::Internal("stage without a scan leaf");
    }
  }
  return Status::OK();
}

}  // namespace ma::plan
