#include "plan/plan_builder.h"

namespace ma::plan {
namespace {

const ColumnInfo* Find(const std::vector<ColumnInfo>& schema,
                       std::string_view name) {
  for (const ColumnInfo& c : schema) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

Status UnknownColumn(std::string_view name) {
  return Status::InvalidArgument("unknown column '" + std::string(name) +
                                 "'");
}

/// Literals and scalar refs both substitute to constants at compile
/// time, so the same placement and coercion rules apply to both.
bool IsConstLike(const Expr& e) {
  return e.kind == Expr::Kind::kLiteral ||
         e.kind == Expr::Kind::kScalarRef;
}

/// Whether a constant of `const_type` may coerce to `target`. Numeric
/// literals coerce freely (the evaluator casts them to the vector
/// side's type); strings never cross the numeric boundary — the
/// evaluator would silently fill 0 / "" instead.
bool ConstCompatible(PhysicalType const_type, PhysicalType target) {
  if (const_type == PhysicalType::kStr ||
      target == PhysicalType::kStr) {
    return const_type == target;
  }
  return true;
}

}  // namespace

Status InferValueType(const Expr& expr,
                      const std::vector<ColumnInfo>& schema,
                      PhysicalType* out,
                      const std::vector<ColumnInfo>* scalars) {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      const ColumnInfo* c = Find(schema, expr.column);
      if (c == nullptr) return UnknownColumn(expr.column);
      *out = c->type;
      return Status::OK();
    }
    case Expr::Kind::kLiteral:
      *out = expr.lit_type;
      return Status::OK();
    case Expr::Kind::kScalarRef: {
      const ColumnInfo* s =
          scalars != nullptr ? Find(*scalars, expr.column) : nullptr;
      if (s == nullptr) {
        return Status::InvalidArgument(
            "unknown scalar '$" + expr.column +
            "' (bind it with BindScalar before use)");
      }
      *out = s->type;
      return Status::OK();
    }
    case Expr::Kind::kArith: {
      const Expr& l = *expr.children[0];
      const Expr& r = *expr.children[1];
      if (IsConstLike(l)) {
        return Status::InvalidArgument(
            "left operand of '" + expr.op +
            "' must not be a constant: " + expr.ToString());
      }
      PhysicalType lt;
      MA_RETURN_IF_ERROR(InferValueType(l, schema, &lt, scalars));
      if (lt == PhysicalType::kStr) {
        return Status::InvalidArgument("arithmetic over string column: " +
                                       expr.ToString());
      }
      if (!IsConstLike(r)) {
        PhysicalType rt;
        MA_RETURN_IF_ERROR(InferValueType(r, schema, &rt, scalars));
        if (rt != lt) {
          return Status::InvalidArgument(
              "type mismatch in '" + expr.ToString() + "': " +
              TypeName(lt) + " vs " + TypeName(rt));
        }
      } else {
        PhysicalType rt;  // the scalar must be bound, the constant
                          // coercible to the vector side
        MA_RETURN_IF_ERROR(InferValueType(r, schema, &rt, scalars));
        if (!ConstCompatible(rt, lt)) {
          return Status::InvalidArgument(
              "type mismatch in '" + expr.ToString() + "': " +
              TypeName(lt) + " vs " + TypeName(rt));
        }
      }
      *out = lt;  // constants coerce to the non-constant side
      return Status::OK();
    }
    case Expr::Kind::kCase: {
      MA_RETURN_IF_ERROR(
          CheckPredicate(*expr.children[0], schema, scalars));
      const Expr& then_v = *expr.children[1];
      const Expr& else_v = *expr.children[2];
      PhysicalType tt, et;
      MA_RETURN_IF_ERROR(InferValueType(then_v, schema, &tt, scalars));
      MA_RETURN_IF_ERROR(InferValueType(else_v, schema, &et, scalars));
      const bool tc = IsConstLike(then_v), ec = IsConstLike(else_v);
      // A constant branch coerces to the non-constant one; two
      // non-constant branches must match exactly; strings never
      // coerce to numerics in any combination.
      const bool compatible =
          (tc || ec) ? ConstCompatible(tc ? tt : et, tc ? et : tt)
                     : tt == et;
      if (!compatible) {
        return Status::InvalidArgument(
            "case branches disagree in '" + expr.ToString() + "': " +
            TypeName(tt) + " vs " + TypeName(et));
      }
      // The non-constant branch's type wins (both constant: the then
      // branch's), mirroring ExprEvaluator::ResolveType.
      *out = tc && !ec ? et : tt;
      return Status::OK();
    }
    case Expr::Kind::kSubstr: {
      const Expr& src = *expr.children[0];
      if (IsConstLike(src)) {
        // The evaluator requires a vector source (a constant substring
        // would just be a shorter literal — write that instead).
        return Status::InvalidArgument(
            "substring source must be a column or string expression: " +
            expr.ToString());
      }
      PhysicalType ct;
      MA_RETURN_IF_ERROR(InferValueType(src, schema, &ct, scalars));
      if (ct != PhysicalType::kStr) {
        return Status::InvalidArgument(
            "substring over non-string expression: " + expr.ToString());
      }
      *out = PhysicalType::kStr;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("not a value expression: " +
                                     expr.ToString());
  }
}

Status CheckPredicate(const Expr& expr,
                      const std::vector<ColumnInfo>& schema,
                      const std::vector<ColumnInfo>* scalars) {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      if (expr.children.empty()) {
        return Status::InvalidArgument("empty AND/OR predicate");
      }
      for (const ExprPtr& child : expr.children) {
        MA_RETURN_IF_ERROR(CheckPredicate(*child, schema, scalars));
      }
      return Status::OK();
    }
    case Expr::Kind::kCompare: {
      const Expr& l = *expr.children[0];
      const Expr& r = *expr.children[1];
      if (IsConstLike(l)) {
        return Status::InvalidArgument(
            "left operand of '" + expr.op +
            "' must not be a constant: " + expr.ToString());
      }
      PhysicalType lt;
      MA_RETURN_IF_ERROR(InferValueType(l, schema, &lt, scalars));
      PhysicalType rt;
      MA_RETURN_IF_ERROR(InferValueType(r, schema, &rt, scalars));
      if (IsConstLike(r) ? !ConstCompatible(rt, lt) : rt != lt) {
        return Status::InvalidArgument(
            "type mismatch in '" + expr.ToString() + "': " +
            TypeName(lt) + " vs " + TypeName(rt));
      }
      return Status::OK();
    }
    case Expr::Kind::kStrPred: {
      const Expr& operand = *expr.children[0];
      if (operand.kind != Expr::Kind::kColumn &&
          operand.kind != Expr::Kind::kSubstr) {
        return Status::InvalidArgument(
            "string predicate requires a column or substring operand: " +
            expr.ToString());
      }
      PhysicalType t;
      MA_RETURN_IF_ERROR(InferValueType(operand, schema, &t, scalars));
      if (t != PhysicalType::kStr) {
        return Status::InvalidArgument(
            "string predicate over " + std::string(TypeName(t)) +
            " operand: " + expr.ToString());
      }
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("not a predicate: " +
                                     expr.ToString());
  }
}

void PlanBuilder::Fail(std::string message) {
  if (status_.ok()) {
    status_ = Status::InvalidArgument(std::move(message));
  }
  root_.reset();
}

PlanNode* PlanBuilder::Push(NodeKind kind, std::string label) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->label = std::move(label);
  if (root_ != nullptr) node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return root_.get();
}

const std::vector<ColumnInfo>& PlanBuilder::schema() const {
  static const std::vector<ColumnInfo> kEmpty;
  return root_ != nullptr ? root_->schema : kEmpty;
}

PlanBuilder PlanBuilder::Scan(const Table* table,
                              std::vector<std::string> columns,
                              std::string label) {
  PlanBuilder b;
  if (table == nullptr) {
    b.status_ = Status::InvalidArgument("scan of null table");
    return b;
  }
  PlanNode* n = b.Push(NodeKind::kScan, std::move(label));
  n->table = table;
  if (columns.empty()) {
    for (size_t i = 0; i < table->num_columns(); ++i) {
      n->schema.push_back(
          {table->column_name(i), table->column(i)->type()});
    }
  } else {
    for (const std::string& name : columns) {
      const Column* c = table->FindColumn(name);
      if (c == nullptr) {
        b.Fail("unknown column '" + name + "' in table '" +
               table->name() + "'");
        return b;
      }
      n->schema.push_back({name, c->type()});
    }
  }
  n->columns = std::move(columns);
  return b;
}

SharedSubplan PlanBuilder::BindShared(std::string name, PlanBuilder sub) {
  SharedSubplan h;
  if (!sub.status_.ok() || sub.root_ == nullptr) {
    h.status_ = sub.status_.ok()
                    ? Status::InvalidArgument("shared subplan '" + name +
                                              "' is empty")
                    : sub.status_;
    return h;
  }
  if (!sub.scalars_.empty()) {
    h.status_ = Status::InvalidArgument(
        "shared subplan '" + name + "' may not bind scalars of its own");
    return h;
  }
  auto spec = std::make_shared<SharedSpec>();
  spec->name = std::move(name);
  spec->root = std::move(sub.root_);
  h.spec_ = std::move(spec);
  return h;
}

PlanBuilder PlanBuilder::SharedRef(const SharedSubplan& shared,
                                   std::string label) {
  PlanBuilder b;
  if (!shared.ok()) {
    b.status_ = !shared.status().ok()
                    ? shared.status()
                    : Status::InvalidArgument("shared ref to unbound subplan");
    return b;
  }
  PlanNode* n = b.Push(NodeKind::kSharedScan, std::move(label));
  n->shared = shared.spec();
  n->schema = shared.spec()->root->schema;
  return b;
}

PlanBuilder& PlanBuilder::Filter(ExprPtr predicate, std::string label) {
  if (!Active()) return *this;
  if (predicate == nullptr) {
    Fail("filter with null predicate");
    return *this;
  }
  const Status s =
      CheckPredicate(*predicate, root_->schema, &scalar_schema_);
  if (!s.ok()) {
    Fail(s.message());
    return *this;
  }
  std::vector<ColumnInfo> schema = root_->schema;  // selection only
  PlanNode* n = Push(NodeKind::kFilter, std::move(label));
  n->predicate = std::move(predicate);
  n->schema = std::move(schema);
  return *this;
}

PlanBuilder& PlanBuilder::Project(
    std::vector<ProjectOperator::Output> outputs, std::string label) {
  if (!Active()) return *this;
  if (outputs.empty()) {
    Fail("project with no outputs");
    return *this;
  }
  std::vector<ColumnInfo> schema;
  for (const auto& o : outputs) {
    if (o.expr == nullptr) {
      Fail("project output '" + o.name + "' has no expression");
      return *this;
    }
    if (o.expr->kind != Expr::Kind::kColumn &&
        o.expr->kind != Expr::Kind::kArith &&
        o.expr->kind != Expr::Kind::kCase &&
        o.expr->kind != Expr::Kind::kSubstr) {
      Fail("project output '" + o.name +
           "' must be a column, arithmetic, case or substring expression");
      return *this;
    }
    PhysicalType t;
    const Status s =
        InferValueType(*o.expr, root_->schema, &t, &scalar_schema_);
    if (!s.ok()) {
      Fail(s.message());
      return *this;
    }
    schema.push_back({o.name, t});
  }
  PlanNode* n = Push(NodeKind::kProject, std::move(label));
  n->outputs = std::move(outputs);
  n->schema = std::move(schema);
  return *this;
}

PlanBuilder& PlanBuilder::HashJoin(PlanBuilder build, HashJoinSpec spec,
                                   std::string label) {
  if (!Active()) return *this;
  if (!build.status_.ok() || build.root_ == nullptr) {
    Fail(build.status_.ok() ? "hash join with empty build side"
                            : build.status_.message());
    return *this;
  }
  if (!AdoptScalars(&build)) return *this;
  const std::vector<ColumnInfo>& bs = build.root_->schema;
  const std::vector<ColumnInfo>& ps = root_->schema;
  const ColumnInfo* bk = Find(bs, spec.build_key);
  if (bk == nullptr) {
    Fail("unknown column '" + spec.build_key + "' (build key)");
    return *this;
  }
  const ColumnInfo* pk = Find(ps, spec.probe_key);
  if (pk == nullptr) {
    Fail("unknown column '" + spec.probe_key + "' (probe key)");
    return *this;
  }
  if (bk->type != PhysicalType::kI64 || pk->type != PhysicalType::kI64) {
    Fail("hash join keys must be i64: " + spec.build_key + "=" +
         spec.probe_key);
    return *this;
  }
  std::vector<ColumnInfo> schema;
  if (spec.kind == HashJoinSpec::Kind::kInner ||
      spec.kind == HashJoinSpec::Kind::kLeftOuter) {
    for (const std::string& name : spec.probe_outputs) {
      const ColumnInfo* c = Find(ps, name);
      if (c == nullptr) {
        Fail("unknown column '" + name + "' (probe output)");
        return *this;
      }
      schema.push_back({name, c->type});
    }
    spec.build_output_types.clear();
    for (const auto& [src, out_name] : spec.build_outputs) {
      const ColumnInfo* c = Find(bs, src);
      if (c == nullptr) {
        Fail("unknown column '" + src + "' (build output)");
        return *this;
      }
      schema.push_back({out_name, c->type});
      // Declared so an empty build side still types its columns (and,
      // for left outer, the default payload row).
      spec.build_output_types.push_back(c->type);
    }
  } else {
    // Semi/anti joins narrow the probe selection; build outputs would
    // be meaningless and probe_outputs are ignored by the operator.
    if (!spec.build_outputs.empty()) {
      Fail("semi/anti hash join cannot materialize build outputs");
      return *this;
    }
    schema = ps;
  }
  PlanNode* probe = root_.release();
  PlanNode* n = Push(NodeKind::kHashJoin, std::move(label));
  n->children.clear();
  n->children.emplace_back(std::move(build.root_));
  n->children.emplace_back(probe);
  n->hash_spec = std::move(spec);
  n->schema = std::move(schema);
  return *this;
}

PlanBuilder& PlanBuilder::MergeJoin(PlanBuilder right, MergeJoinSpec spec,
                                    std::string label) {
  if (!Active()) return *this;
  if (!right.status_.ok() || right.root_ == nullptr) {
    Fail(right.status_.ok() ? "merge join with empty right side"
                            : right.status_.message());
    return *this;
  }
  if (!AdoptScalars(&right)) return *this;
  const std::vector<ColumnInfo>& ls = root_->schema;
  const std::vector<ColumnInfo>& rs = right.root_->schema;
  const ColumnInfo* lk = Find(ls, spec.left_key);
  const ColumnInfo* rk = Find(rs, spec.right_key);
  if (lk == nullptr || rk == nullptr) {
    Fail("unknown column '" +
         (lk == nullptr ? spec.left_key : spec.right_key) +
         "' (merge join key)");
    return *this;
  }
  if (lk->type != PhysicalType::kI64 || rk->type != PhysicalType::kI64) {
    Fail("merge join keys must be i64: " + spec.left_key + "=" +
         spec.right_key);
    return *this;
  }
  std::vector<ColumnInfo> schema;
  for (const auto& [src, out_name] : spec.left_outputs) {
    const ColumnInfo* c = Find(ls, src);
    if (c == nullptr) {
      Fail("unknown column '" + src + "' (merge join left output)");
      return *this;
    }
    schema.push_back({out_name, c->type});
  }
  for (const auto& [src, out_name] : spec.right_outputs) {
    const ColumnInfo* c = Find(rs, src);
    if (c == nullptr) {
      Fail("unknown column '" + src + "' (merge join right output)");
      return *this;
    }
    schema.push_back({out_name, c->type});
  }
  PlanNode* left = root_.release();
  PlanNode* n = Push(NodeKind::kMergeJoin, std::move(label));
  n->children.clear();
  n->children.emplace_back(left);
  n->children.emplace_back(std::move(right.root_));
  n->merge_spec = std::move(spec);
  n->schema = std::move(schema);
  return *this;
}

namespace {

/// True when the plan rooted at `n` is guaranteed to produce at most
/// one row — the static shape check behind BindScalar (a key-less
/// aggregation, a limit-1, or filters/projections over either). The
/// runtime reader treats zero rows as the scalar's 0 default.
bool AtMostOneRow(const PlanNode* n) {
  switch (n->kind) {
    case NodeKind::kGroupBy:
      return n->group_keys.empty();
    case NodeKind::kProject:
    case NodeKind::kFilter:
      return AtMostOneRow(n->children[0].get());
    case NodeKind::kSort:
    case NodeKind::kLimit:
      return n->limit == 1 || AtMostOneRow(n->children[0].get());
    default:
      return false;
  }
}

}  // namespace

bool PlanBuilder::AdoptScalars(PlanBuilder* sub) {
  for (ScalarSpec& s : sub->scalars_) {
    if (Find(scalar_schema_, s.name) != nullptr) {
      Fail("duplicate scalar '" + s.name + "'");
      return false;
    }
    scalar_schema_.push_back({s.name, s.type});
    scalars_.push_back(std::move(s));
  }
  sub->scalars_.clear();
  sub->scalar_schema_.clear();
  return true;
}

PlanBuilder& PlanBuilder::BindScalar(std::string name, PlanBuilder sub,
                                     std::string column) {
  if (!Active()) return *this;
  if (!sub.status_.ok() || sub.root_ == nullptr) {
    Fail(sub.status_.ok() ? "scalar subquery is empty"
                          : sub.status_.message());
    return *this;
  }
  if (!sub.scalars_.empty()) {
    Fail("scalar subquery '" + name +
         "' may not reference scalars of its own");
    return *this;
  }
  if (Find(scalar_schema_, name) != nullptr) {
    Fail("duplicate scalar '" + name + "'");
    return *this;
  }
  if (!AtMostOneRow(sub.root_.get())) {
    Fail("scalar subquery '" + name +
         "' must produce a single row (end it in a key-less GroupBy "
         "or a Limit of 1)");
    return *this;
  }
  const ColumnInfo* c = Find(sub.root_->schema, column);
  if (c == nullptr) {
    Fail("unknown column '" + column + "' (scalar subquery result)");
    return *this;
  }
  if (c->type != PhysicalType::kI64 && c->type != PhysicalType::kF64) {
    Fail("scalar '" + name + "' must be i64 or f64, got " +
         TypeName(c->type));
    return *this;
  }
  ScalarSpec s;
  s.column = std::move(column);
  s.type = c->type;
  s.root = std::move(sub.root_);
  scalar_schema_.push_back({name, c->type});
  s.name = std::move(name);
  scalars_.push_back(std::move(s));
  return *this;
}

PlanBuilder& PlanBuilder::GroupBy(
    std::vector<HashAggOperator::GroupKey> group_keys,
    std::vector<std::string> group_outputs,
    std::vector<HashAggOperator::AggSpec> aggs, std::string label) {
  if (!Active()) return *this;
  if (group_keys.empty() && aggs.empty()) {
    Fail("GroupBy needs a group key or an aggregate");
    return *this;
  }
  int total_bits = 0;
  for (const auto& k : group_keys) {
    const ColumnInfo* c = Find(root_->schema, k.column);
    if (c == nullptr) {
      Fail("unknown column '" + k.column + "' (group key)");
      return *this;
    }
    if (c->type != PhysicalType::kI64) {
      Fail("group key '" + k.column + "' must be i64, got " +
           TypeName(c->type));
      return *this;
    }
    if (k.bits <= 0 || k.bits > 63) {
      Fail("group key '" + k.column + "' has invalid bit width");
      return *this;
    }
    total_bits += k.bits;
  }
  if (total_bits > 63) {
    Fail("group key bit widths exceed 63 bits total");
    return *this;
  }
  std::vector<ColumnInfo> schema;
  for (const std::string& name : group_outputs) {
    const ColumnInfo* c = Find(root_->schema, name);
    if (c == nullptr) {
      Fail("unknown column '" + name + "' (group output)");
      return *this;
    }
    schema.push_back({name, c->type});
  }
  for (auto& a : aggs) {
    if (a.fn != "sum" && a.fn != "min" && a.fn != "max" &&
        a.fn != "count" && a.fn != "avg") {
      Fail("unknown aggregate function '" + a.fn + "'");
      return *this;
    }
    PhysicalType arg_type = PhysicalType::kI64;
    if (a.arg != nullptr) {
      const Status s =
          InferValueType(*a.arg, root_->schema, &arg_type, &scalar_schema_);
      if (!s.ok()) {
        Fail(s.message());
        return *this;
      }
      if (arg_type == PhysicalType::kStr ||
          arg_type == PhysicalType::kI8) {
        Fail("aggregate '" + a.out_name + "' over unsupported type " +
             TypeName(arg_type));
        return *this;
      }
    } else if (a.fn != "count") {
      Fail("aggregate '" + a.fn + "' requires an argument");
      return *this;
    }
    // Pin the hint to the inferred type so an executor that never sees
    // a row (a starved parallel worker) still types its accumulator
    // like every other one, and make f64 sums order-independent — the
    // plan contract that serial and parallel execution agree
    // bit-for-bit.
    a.type_hint = arg_type;
    a.exact_f64_sum = true;
    const PhysicalType out_type =
        a.fn == "avg"
            ? PhysicalType::kF64
            : (a.fn == "count"
                   ? PhysicalType::kI64
                   : (arg_type == PhysicalType::kF64 ? PhysicalType::kF64
                                                     : PhysicalType::kI64));
    schema.push_back({a.out_name, out_type});
  }
  PlanNode* n = Push(NodeKind::kGroupBy, std::move(label));
  n->group_keys = std::move(group_keys);
  n->group_outputs = std::move(group_outputs);
  n->aggs = std::move(aggs);
  n->schema = std::move(schema);
  return *this;
}

PlanBuilder& PlanBuilder::Sort(std::vector<SortKey> keys, size_t limit,
                               std::string label) {
  if (!Active()) return *this;
  for (const SortKey& k : keys) {
    const ColumnInfo* c = Find(root_->schema, k.column);
    if (c == nullptr) {
      Fail("unknown column '" + k.column + "' (sort key)");
      return *this;
    }
    if (c->type == PhysicalType::kI8) {
      Fail("sort key '" + k.column + "' has unsupported type i8");
      return *this;
    }
  }
  std::vector<ColumnInfo> schema = root_->schema;
  PlanNode* n = Push(NodeKind::kSort, std::move(label));
  n->sort_keys = std::move(keys);
  n->limit = limit;
  n->schema = std::move(schema);
  return *this;
}

PlanBuilder& PlanBuilder::Limit(size_t n_rows, std::string label) {
  if (!Active()) return *this;
  std::vector<ColumnInfo> schema = root_->schema;
  PlanNode* n = Push(NodeKind::kLimit, std::move(label));
  n->limit = n_rows;
  n->schema = std::move(schema);
  return *this;
}

namespace {

/// Collects every SharedSpec referenced under `n` into `out` in
/// dependency order (a spec's own references first), deduplicated by
/// identity. Acyclic by construction: a spec can only reference specs
/// bound before it existed.
void CollectShared(const PlanNode* n,
                   std::vector<std::shared_ptr<const SharedSpec>>* out) {
  if (n->kind == NodeKind::kSharedScan && n->shared != nullptr) {
    for (const auto& s : *out) {
      if (s == n->shared) return;
    }
    CollectShared(n->shared->root.get(), out);
    out->push_back(n->shared);
    return;
  }
  for (const auto& c : n->children) CollectShared(c.get(), out);
}

}  // namespace

LogicalPlan PlanBuilder::Build() {
  LogicalPlan plan;
  plan.status = status_;
  if (status_.ok() && root_ == nullptr) {
    plan.status = Status::InvalidArgument("empty plan");
  }
  plan.root = std::move(root_);
  plan.scalars = std::move(scalars_);
  if (plan.root != nullptr) {
    for (const ScalarSpec& s : plan.scalars) {
      CollectShared(s.root.get(), &plan.shared);
    }
    CollectShared(plan.root.get(), &plan.shared);
  }
  return plan;
}

}  // namespace ma::plan
