#include "xpath/profiler.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>

#include "xpath/plan.h"

namespace secview {

namespace {

using OpCode = CompiledPlan::OpCode;

std::string OpSignature(const CompiledPlan& plan, const CompiledPlan::Op& op) {
  switch (op.code) {
    case OpCode::kEmptySet:
      return "empty";
    case OpCode::kEpsilon:
      return "self::.";
    case OpCode::kLabel:
      return "child::" + plan.labels[op.label];
    case OpCode::kWildcard:
      return "child::*";
    case OpCode::kSlash:
      return "compose";
    case OpCode::kDescOrSelf: {
      // Named after the step under '//', looking through a qualifier:
      // '//patient[q]' is "descendant::patient".
      const CompiledPlan::Op* inner = &plan.ops[op.left];
      if (inner->code == OpCode::kQualified) inner = &plan.ops[inner->left];
      if (inner->code == OpCode::kLabel) {
        return "descendant::" + plan.labels[inner->label];
      }
      if (inner->code == OpCode::kWildcard) return "descendant::*";
      return "descendant::(path)";
    }
    case OpCode::kUnion:
      return "union";
    case OpCode::kQualified:
      return "filter";
  }
  return "unknown";
}

/// Axis per OpCode, and signature per QualKind, in declaration order.
constexpr const char* kOpAxes[] = {
    "empty", "self", "child", "child", "compose", "descendant", "union",
    "filter"};
constexpr const char* kQualSignatures[] = {
    "pred::path", "pred::eq",    "pred::and",     "pred::or",
    "pred::not",  "pred::true",  "pred::false",   "pred::attr-eq",
    "pred::attr-exists"};
static_assert(std::size(kOpAxes) ==
              static_cast<size_t>(OpCode::kQualified) + 1);
static_assert(std::size(kQualSignatures) ==
              static_cast<size_t>(QualKind::kAttrExists) + 1);

/// The children of a plan position in evaluation order: an op's left
/// and right operands and its filter, a qualifier's path and its left
/// and right operands. Absent children have id -1.
std::array<PlanProfiler::Position, 3> Children(
    const CompiledPlan& plan, PlanProfiler::Position at) {
  if (at.qual) {
    const CompiledPlan::Qual& q = plan.quals[at.id];
    return {{{false, q.path}, {true, q.left}, {true, q.right}}};
  }
  const CompiledPlan::Op& op = plan.ops[at.id];
  return {{{false, op.left}, {false, op.right}, {true, op.qual}}};
}

std::unique_ptr<StepProfile> MakeRoot() {
  auto root = std::make_unique<StepProfile>();
  root->signature = "query";
  root->axis = "query";
  return root;
}

}  // namespace

PlanProfiler::PlanProfiler()
    : root_(MakeRoot()), track_alloc_(AllocTrackingAvailable()) {}

PlanProfiler::~PlanProfiler() = default;

void PlanProfiler::Begin(const CompiledPlan& plan) {
  op_cells_.assign(plan.ops.size(), StepCosts{});
  qual_cells_.assign(plan.quals.size(), StepCosts{});
}

PlanProfiler::Mark PlanProfiler::Start(const EvalCounters& counters) const {
  Mark mark;
  mark.counters = counters;
  mark.start = std::chrono::steady_clock::now();
  if (track_alloc_) mark.alloc = ThreadAllocCounts();
  return mark;
}

void PlanProfiler::Add(Position at, const Mark& mark,
                       const EvalCounters& counters, size_t in, size_t out) {
  StepCosts& cell = at.qual ? qual_cells_[at.id] : op_cells_[at.id];
  cell.total_nanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - mark.start)
          .count());
  if (track_alloc_) {
    const AllocCounts alloc = ThreadAllocCounts();
    cell.alloc_bytes += alloc.bytes - mark.alloc.bytes;
    cell.alloc_count += alloc.count - mark.alloc.count;
  }
  cell.invocations += 1;
  cell.in_cardinality += static_cast<uint64_t>(in);
  cell.out_cardinality += static_cast<uint64_t>(out);
  cell.nodes_touched += counters.nodes_touched - mark.counters.nodes_touched;
  cell.predicate_evals +=
      counters.predicate_evals - mark.counters.predicate_evals;
  cell.sort_skips += counters.sort_skips - mark.counters.sort_skips;
}

void PlanProfiler::Fold(const CompiledPlan& plan) {
  const Position root{false, plan.root};
  if (CellAt(root).invocations > 0) {
    root_->children.push_back(FoldStep(plan, root));
  }
}

std::unique_ptr<StepProfile> PlanProfiler::FoldStep(const CompiledPlan& plan,
                                                    Position at) const {
  auto step = std::make_unique<StepProfile>();
  static_cast<StepCosts&>(*step) = CellAt(at);
  if (at.qual) {
    step->signature = kQualSignatures[static_cast<int>(plan.quals[at.id].kind)];
    step->axis = "predicate";
  } else {
    step->signature = OpSignature(plan, plan.ops[at.id]);
    step->axis = kOpAxes[static_cast<int>(plan.ops[at.id].code)];
  }
  // Children run strictly inside their parent's invocations, so the
  // parent's inclusive cell minus its children's is its exclusive cost,
  // and the self costs of the whole tree telescope to the aggregates.
  step->self_nanos = step->total_nanos;
  for (Position child : Children(plan, at)) {
    if (child.id < 0 || CellAt(child).invocations == 0) continue;
    const StepCosts& nested = CellAt(child);
    step->nodes_touched -= nested.nodes_touched;
    step->predicate_evals -= nested.predicate_evals;
    step->sort_skips -= nested.sort_skips;
    step->self_nanos -= std::min(step->self_nanos, nested.total_nanos);
    step->alloc_bytes -= std::min(step->alloc_bytes, nested.alloc_bytes);
    step->alloc_count -= std::min(step->alloc_count, nested.alloc_count);
    step->children.push_back(FoldStep(plan, child));
  }
  return step;
}

std::unique_ptr<StepProfile> PlanProfiler::TakeRoot() {
  auto taken = std::move(root_);
  root_ = MakeRoot();
  return taken;
}

namespace {

void SumTotals(const StepProfile& step, EvalCounters* totals) {
  totals->nodes_touched += step.nodes_touched;
  totals->predicate_evals += step.predicate_evals;
  totals->sort_skips += step.sort_skips;
  for (const auto& child : step.children) SumTotals(*child, totals);
}

void FindHottest(const StepProfile& step, const StepProfile** best) {
  if (*best == nullptr || step.nodes_touched > (*best)->nodes_touched ||
      (step.nodes_touched == (*best)->nodes_touched &&
       step.self_nanos > (*best)->self_nanos)) {
    *best = &step;
  }
  for (const auto& child : step.children) FindHottest(*child, best);
}

}  // namespace

EvalCounters ProfileTotals(const StepProfile& root) {
  EvalCounters totals;
  SumTotals(root, &totals);
  return totals;
}

const StepProfile* HottestStep(const StepProfile& root) {
  const StepProfile* best = nullptr;
  for (const auto& child : root.children) FindHottest(*child, &best);
  return best;
}

std::string HotStepLine(const StepProfile& root) {
  const StepProfile* hot = HottestStep(root);
  if (hot == nullptr) return "";
  return hot->signature + " nodes=" + std::to_string(hot->nodes_touched);
}

namespace {

void AppendStepRow(const StepProfile& step, int depth, std::string& out) {
  std::string name(static_cast<size_t>(depth) * 2, ' ');
  name += step.signature;
  if (name.size() < 28) name.resize(28, ' ');
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s inv=%" PRIu64 " in=%" PRIu64 " out=%" PRIu64
                " nodes=%" PRIu64 " preds=%" PRIu64 " skips=%" PRIu64
                " self_us=%.1f total_us=%.1f",
                name.c_str(), step.invocations, step.in_cardinality,
                step.out_cardinality, step.nodes_touched, step.predicate_evals,
                step.sort_skips,
                static_cast<double>(step.self_nanos) / 1e3,
                static_cast<double>(step.total_nanos) / 1e3);
  out += buf;
  if (step.alloc_bytes > 0 || step.alloc_count > 0) {
    std::snprintf(buf, sizeof(buf), " alloc=%" PRIu64 "B/%" PRIu64,
                  step.alloc_bytes, step.alloc_count);
    out += buf;
  }
  out += "\n";
  for (const auto& child : step.children) {
    AppendStepRow(*child, depth + 1, out);
  }
}

}  // namespace

std::string StepProfileText(const StepProfile& root) {
  const EvalCounters totals = ProfileTotals(root);
  std::string out = "plan profile (exclusive per-step costs; totals: nodes=" +
                    std::to_string(totals.nodes_touched) +
                    " preds=" + std::to_string(totals.predicate_evals) + ")\n";
  std::string hot = HotStepLine(root);
  if (!hot.empty()) out += "hot step: " + hot + "\n";
  for (const auto& child : root.children) {
    AppendStepRow(*child, 1, out);
  }
  return out;
}

obs::Json StepProfileJson(const StepProfile& step) {
  obs::Json j = obs::Json::Object();
  j.Set("step", obs::Json(step.signature));
  j.Set("axis", obs::Json(step.axis));
  j.Set("invocations", obs::Json(step.invocations));
  j.Set("in", obs::Json(step.in_cardinality));
  j.Set("out", obs::Json(step.out_cardinality));
  j.Set("nodes", obs::Json(step.nodes_touched));
  j.Set("preds", obs::Json(step.predicate_evals));
  j.Set("sort_skips", obs::Json(step.sort_skips));
  j.Set("self_nanos", obs::Json(step.self_nanos));
  j.Set("total_nanos", obs::Json(step.total_nanos));
  j.Set("alloc_bytes", obs::Json(step.alloc_bytes));
  j.Set("alloc_count", obs::Json(step.alloc_count));
  obs::Json children = obs::Json::Array();
  for (const auto& child : step.children) {
    children.Append(StepProfileJson(*child));
  }
  j.Set("children", std::move(children));
  return j;
}

obs::Json ProfileLineJson(const StepProfile& root, std::string_view policy,
                          std::string_view query, int64_t unix_micros) {
  const EvalCounters totals = ProfileTotals(root);
  obs::Json doc = obs::Json::Object();
  doc.Set("schema", obs::Json(obs::kProfileSchema));
  doc.Set("unix_micros", obs::Json(static_cast<int64_t>(unix_micros)));
  doc.Set("policy", obs::Json(std::string(policy)));
  doc.Set("query", obs::Json(std::string(query)));
  doc.Set("hot_step", obs::Json(HotStepLine(root)));
  obs::Json counters = obs::Json::Object();
  counters.Set("nodes_touched", obs::Json(totals.nodes_touched));
  counters.Set("predicate_evals", obs::Json(totals.predicate_evals));
  counters.Set("sort_skips", obs::Json(totals.sort_skips));
  doc.Set("counters", std::move(counters));
  obs::Json plan = obs::Json::Array();
  for (const auto& child : root.children) {
    plan.Append(StepProfileJson(*child));
  }
  doc.Set("plan", std::move(plan));
  return doc;
}

namespace {

void FlattenInto(const StepProfile& step,
                 std::map<std::string, obs::PlanStepRecord>& by_signature) {
  obs::PlanStepRecord& rec = by_signature[step.signature];
  if (rec.signature.empty()) {
    rec.signature = step.signature;
    rec.axis = step.axis;
  }
  rec.invocations += step.invocations;
  rec.in_cardinality += step.in_cardinality;
  rec.out_cardinality += step.out_cardinality;
  rec.nodes_touched += step.nodes_touched;
  rec.predicate_evals += step.predicate_evals;
  rec.sort_skips += step.sort_skips;
  rec.self_nanos += step.self_nanos;
  rec.total_nanos += step.total_nanos;
  rec.alloc_bytes += step.alloc_bytes;
  rec.alloc_count += step.alloc_count;
  for (const auto& child : step.children) FlattenInto(*child, by_signature);
}

}  // namespace

std::vector<obs::PlanStepRecord> FlattenStepProfile(const StepProfile& root) {
  std::map<std::string, obs::PlanStepRecord> by_signature;
  for (const auto& child : root.children) FlattenInto(*child, by_signature);
  std::vector<obs::PlanStepRecord> out;
  out.reserve(by_signature.size());
  for (auto& [signature, rec] : by_signature) {
    (void)signature;
    rec.queries = 1;
    out.push_back(std::move(rec));
  }
  return out;
}

namespace {

struct AxisTotals {
  uint64_t nodes = 0;
  uint64_t nanos = 0;
};

void CollectAxis(const StepProfile& step,
                 std::map<std::string, AxisTotals>& by_axis,
                 obs::MetricsRegistry& metrics) {
  AxisTotals& totals = by_axis[step.axis];
  totals.nodes += step.nodes_touched;
  totals.nanos += step.self_nanos;
  metrics.GetHistogram("eval.axis." + step.axis + ".step_micros")
      .Observe(step.self_nanos / 1000);
  for (const auto& child : step.children) {
    CollectAxis(*child, by_axis, metrics);
  }
}

}  // namespace

void FlushStepProfileMetrics(const StepProfile& root,
                             obs::MetricsRegistry& metrics) {
  std::map<std::string, AxisTotals> by_axis;
  for (const auto& child : root.children) {
    CollectAxis(*child, by_axis, metrics);
  }
  for (const auto& [axis, totals] : by_axis) {
    metrics.GetCounter("eval.axis." + axis + ".nodes").Add(totals.nodes);
    metrics.GetCounter("eval.axis." + axis + ".micros")
        .Add(totals.nanos / 1000);
  }
}

}  // namespace secview
