#include "xpath/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "xpath/ast.h"

namespace secview {

namespace {

/// The label part of a '//p' step: p itself, or p's base when the step
/// is qualified — as the plan compiler peels it for index scans.
const PathExpr* DescendantInner(const PathExpr* p) {
  const PathExpr* step = p->left.get();
  if (step != nullptr && step->kind == PathKind::kQualified) {
    step = step->left.get();
  }
  return step;
}

}  // namespace

std::string StepSignature(const PathExpr* p) {
  switch (p->kind) {
    case PathKind::kEmptySet:
      return "empty";
    case PathKind::kEpsilon:
      return "self::.";
    case PathKind::kLabel:
      return "child::" + p->label;
    case PathKind::kWildcard:
      return "child::*";
    case PathKind::kSlash:
      return "compose";
    case PathKind::kDescOrSelf: {
      const PathExpr* inner = DescendantInner(p);
      if (inner != nullptr && inner->kind == PathKind::kLabel) {
        return "descendant::" + inner->label;
      }
      if (inner != nullptr && inner->kind == PathKind::kWildcard) {
        return "descendant::*";
      }
      return "descendant::(path)";
    }
    case PathKind::kUnion:
      return "union";
    case PathKind::kQualified:
      return "filter";
  }
  return "unknown";
}

std::string StepAxis(const PathExpr* p) {
  switch (p->kind) {
    case PathKind::kEmptySet:
      return "empty";
    case PathKind::kEpsilon:
      return "self";
    case PathKind::kLabel:
    case PathKind::kWildcard:
      return "child";
    case PathKind::kSlash:
      return "compose";
    case PathKind::kDescOrSelf:
      return "descendant";
    case PathKind::kUnion:
      return "union";
    case PathKind::kQualified:
      return "filter";
  }
  return "unknown";
}

std::string StepSignature(const Qualifier* q) {
  switch (q->kind) {
    case QualKind::kPath:
      return "pred::path";
    case QualKind::kPathEqConst:
      return "pred::eq";
    case QualKind::kAnd:
      return "pred::and";
    case QualKind::kOr:
      return "pred::or";
    case QualKind::kNot:
      return "pred::not";
    case QualKind::kTrue:
      return "pred::true";
    case QualKind::kFalse:
      return "pred::false";
    case QualKind::kAttrEq:
      return "pred::attr-eq";
    case QualKind::kAttrExists:
      return "pred::attr-exists";
  }
  return "pred::unknown";
}

PlanProfiler::PlanProfiler()
    : root_(std::make_unique<StepProfile>()),
      track_alloc_(AllocTrackingAvailable()) {
  root_->signature = "query";
  root_->axis = "query";
  stack_.reserve(16);
}

PlanProfiler::~PlanProfiler() = default;

StepProfile* PlanProfiler::ChildFor(const void* ast, std::string signature,
                                    std::string axis) {
  StepProfile* parent = stack_.empty() ? root_.get() : stack_.back().node;
  for (const auto& child : parent->children) {
    if (child->ast == ast) return child.get();
  }
  auto child = std::make_unique<StepProfile>();
  child->ast = ast;
  child->signature = std::move(signature);
  child->axis = std::move(axis);
  parent->children.push_back(std::move(child));
  return parent->children.back().get();
}

void PlanProfiler::Enter(StepProfile* node, const EvalCounters& counters,
                         size_t context_size) {
  Frame frame;
  frame.node = node;
  frame.enter = counters;
  frame.start = std::chrono::steady_clock::now();
  if (track_alloc_) frame.alloc_enter = ThreadAllocCounts();
  stack_.push_back(std::move(frame));
  node->invocations += 1;
  node->in_cardinality += static_cast<uint64_t>(context_size);
}

void PlanProfiler::EnterPath(const PathExpr* p, const EvalCounters& counters,
                             size_t context_size) {
  // The mirror lookup is positional (parent-scoped, keyed by AST node
  // identity), so the signature is only derived when the position is
  // first visited.
  StepProfile* parent = stack_.empty() ? root_.get() : stack_.back().node;
  StepProfile* node = nullptr;
  for (const auto& child : parent->children) {
    if (child->ast == p) {
      node = child.get();
      break;
    }
  }
  if (node == nullptr) node = ChildFor(p, StepSignature(p), StepAxis(p));
  Enter(node, counters, context_size);
}

void PlanProfiler::EnterQual(const Qualifier* q, const EvalCounters& counters) {
  StepProfile* parent = stack_.empty() ? root_.get() : stack_.back().node;
  StepProfile* node = nullptr;
  for (const auto& child : parent->children) {
    if (child->ast == q) {
      node = child.get();
      break;
    }
  }
  if (node == nullptr) node = ChildFor(q, StepSignature(q), "predicate");
  Enter(node, counters, /*context_size=*/1);
}

void PlanProfiler::Exit(const EvalCounters& counters, size_t out_size) {
  if (stack_.empty()) return;  // unbalanced Exit: drop rather than crash
  Frame frame = std::move(stack_.back());
  stack_.pop_back();

  const auto now = std::chrono::steady_clock::now();
  const uint64_t incl_nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - frame.start)
          .count());
  uint64_t incl_alloc_bytes = 0;
  uint64_t incl_alloc_count = 0;
  if (track_alloc_) {
    const AllocCounts alloc = ThreadAllocCounts();
    incl_alloc_bytes = alloc.bytes - frame.alloc_enter.bytes;
    incl_alloc_count = alloc.count - frame.alloc_enter.count;
  }

  // Inclusive deltas over this frame's lifetime; exclusive = inclusive
  // minus the closed child frames' inclusive totals. The counters are
  // monotone and child frames nest strictly inside this one, so the
  // subtraction never underflows — and the telescoping sum is what makes
  // tree-wide self totals reproduce the evaluator's aggregates exactly.
  const uint64_t nodes = counters.nodes_touched - frame.enter.nodes_touched;
  const uint64_t preds = counters.predicate_evals - frame.enter.predicate_evals;
  const uint64_t scans = counters.index_scans - frame.enter.index_scans;
  const uint64_t skips = counters.sort_skips - frame.enter.sort_skips;

  StepProfile* node = frame.node;
  node->out_cardinality += static_cast<uint64_t>(out_size);
  node->nodes_touched += nodes - frame.child.nodes_touched;
  node->predicate_evals += preds - frame.child.predicate_evals;
  node->index_scans += scans - frame.child.index_scans;
  node->sort_skips += skips - frame.child.sort_skips;
  node->total_nanos += incl_nanos;
  node->self_nanos += incl_nanos - std::min(incl_nanos, frame.child_nanos);
  node->alloc_bytes +=
      incl_alloc_bytes - std::min(incl_alloc_bytes, frame.child_alloc_bytes);
  node->alloc_count +=
      incl_alloc_count - std::min(incl_alloc_count, frame.child_alloc_count);

  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child.nodes_touched += nodes;
    parent.child.predicate_evals += preds;
    parent.child.index_scans += scans;
    parent.child.sort_skips += skips;
    parent.child_nanos += incl_nanos;
    parent.child_alloc_bytes += incl_alloc_bytes;
    parent.child_alloc_count += incl_alloc_count;
  }
}

std::unique_ptr<StepProfile> PlanProfiler::TakeRoot() {
  auto taken = std::move(root_);
  Reset();
  return taken;
}

void PlanProfiler::Reset() {
  root_ = std::make_unique<StepProfile>();
  root_->signature = "query";
  root_->axis = "query";
  stack_.clear();
}

namespace {

void SumTotals(const StepProfile& step, EvalCounters* totals) {
  totals->nodes_touched += step.nodes_touched;
  totals->predicate_evals += step.predicate_evals;
  totals->index_scans += step.index_scans;
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
                " nodes=%" PRIu64 " preds=%" PRIu64 " iscans=%" PRIu64
                " skips=%" PRIu64 " self_us=%.1f total_us=%.1f",
                name.c_str(), step.invocations, step.in_cardinality,
                step.out_cardinality, step.nodes_touched, step.predicate_evals,
                step.index_scans, step.sort_skips,
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
                    " preds=" + std::to_string(totals.predicate_evals) +
                    " iscans=" + std::to_string(totals.index_scans) + ")\n";
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
  j.Set("index_scans", obs::Json(step.index_scans));
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
  doc.Set("schema", obs::Json("secview.profile.v1"));
  doc.Set("unix_micros", obs::Json(static_cast<int64_t>(unix_micros)));
  doc.Set("policy", obs::Json(std::string(policy)));
  doc.Set("query", obs::Json(std::string(query)));
  doc.Set("hot_step", obs::Json(HotStepLine(root)));
  obs::Json counters = obs::Json::Object();
  counters.Set("nodes_touched", obs::Json(totals.nodes_touched));
  counters.Set("predicate_evals", obs::Json(totals.predicate_evals));
  counters.Set("index_scans", obs::Json(totals.index_scans));
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
  rec.index_scans += step.index_scans;
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
