#include "xpath/plan.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace secview {

namespace {

/// Lowers one AST into the flat arrays. Children are compiled before
/// their parent is appended, so every index reference points backwards
/// and the entry op is the last element.
class PlanBuilder {
 public:
  int32_t CompilePath(const PathPtr& p) {
    CompiledPlan::Op op;
    switch (p->kind) {
      case PathKind::kEmptySet:
        op.code = CompiledPlan::OpCode::kEmptySet;
        break;
      case PathKind::kEpsilon:
        op.code = CompiledPlan::OpCode::kEpsilon;
        break;
      case PathKind::kLabel:
        op.code = CompiledPlan::OpCode::kLabel;
        op.label = InternLabel(p->label);
        break;
      case PathKind::kWildcard:
        op.code = CompiledPlan::OpCode::kWildcard;
        break;
      case PathKind::kSlash:
        op.code = CompiledPlan::OpCode::kSlash;
        op.left = CompilePath(p->left);
        op.right = CompilePath(p->right);
        break;
      case PathKind::kDescOrSelf:
        op.code = CompiledPlan::OpCode::kDescOrSelf;
        op.left = CompilePath(p->left);
        break;
      case PathKind::kUnion:
        op.code = CompiledPlan::OpCode::kUnion;
        op.left = CompilePath(p->left);
        op.right = CompilePath(p->right);
        break;
      case PathKind::kQualified:
        op.code = CompiledPlan::OpCode::kQualified;
        op.left = CompilePath(p->left);
        op.qual = CompileQual(p->qualifier);
        break;
    }
    plan_.ops.push_back(op);
    return static_cast<int32_t>(plan_.ops.size()) - 1;
  }

  int32_t CompileQual(const QualPtr& q) {
    CompiledPlan::Qual qual;
    qual.kind = q->kind;
    switch (q->kind) {
      case QualKind::kTrue:
      case QualKind::kFalse:
        break;
      case QualKind::kPath:
        qual.path = CompilePath(q->path);
        break;
      case QualKind::kPathEqConst:
        qual.path = CompilePath(q->path);
        qual.constant = InternConst(q->constant, q->is_param);
        break;
      case QualKind::kAttrEq:
        qual.attr = InternAttr(q->attr);
        qual.constant = InternConst(q->constant, /*is_param=*/false);
        break;
      case QualKind::kAttrExists:
        qual.attr = InternAttr(q->attr);
        break;
      case QualKind::kAnd:
      case QualKind::kOr:
        qual.left = CompileQual(q->left);
        qual.right = CompileQual(q->right);
        break;
      case QualKind::kNot:
        qual.left = CompileQual(q->left);
        break;
    }
    plan_.quals.push_back(qual);
    return static_cast<int32_t>(plan_.quals.size()) - 1;
  }

  CompiledPlan Take() { return std::move(plan_); }

 private:
  int32_t InternLabel(const std::string& label) {
    auto [it, inserted] =
        label_ids_.emplace(label, static_cast<int32_t>(plan_.labels.size()));
    if (inserted) plan_.labels.push_back(label);
    return it->second;
  }

  int32_t InternConst(const std::string& value, bool is_param) {
    plan_.consts.push_back({value, is_param});
    return static_cast<int32_t>(plan_.consts.size()) - 1;
  }

  int32_t InternAttr(const std::string& attr) {
    plan_.attrs.push_back(attr);
    return static_cast<int32_t>(plan_.attrs.size()) - 1;
  }

  CompiledPlan plan_;
  std::unordered_map<std::string, int32_t> label_ids_;
};

size_t StringBytes(const std::string& s) {
  // Heap payload only when the string outgrew the small-string buffer.
  return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
}

size_t PlanBytes(const CompiledPlan& plan) {
  size_t bytes = sizeof(CompiledPlan);
  bytes += plan.ops.capacity() * sizeof(CompiledPlan::Op);
  bytes += plan.quals.capacity() * sizeof(CompiledPlan::Qual);
  bytes += plan.labels.capacity() * sizeof(std::string);
  bytes += plan.consts.capacity() * sizeof(CompiledPlan::Const);
  bytes += plan.attrs.capacity() * sizeof(std::string);
  for (const std::string& s : plan.labels) bytes += StringBytes(s);
  for (const CompiledPlan::Const& c : plan.consts) bytes += StringBytes(c.value);
  for (const std::string& s : plan.attrs) bytes += StringBytes(s);
  return bytes;
}

}  // namespace

std::shared_ptr<const CompiledPlan> CompilePlan(const PathPtr& p) {
  if (!p) return nullptr;
  PlanBuilder builder;
  int32_t root = builder.CompilePath(p);
  auto plan = std::make_shared<CompiledPlan>(builder.Take());
  plan->root = root;
  plan->ops.shrink_to_fit();
  plan->quals.shrink_to_fit();
  plan->labels.shrink_to_fit();
  plan->consts.shrink_to_fit();
  plan->attrs.shrink_to_fit();
  plan->byte_size_ = PlanBytes(*plan);
  return plan;
}

bool BindPlanConsts(
    const CompiledPlan& plan,
    const std::vector<std::pair<std::string, std::string>>& bindings,
    std::vector<const std::string*>* slots) {
  for (const CompiledPlan::Const& c : plan.consts) {
    const std::string* value = c.is_param ? nullptr : &c.value;
    for (size_t i = 0; value == nullptr && i < bindings.size(); ++i) {
      if (bindings[i].first == c.value) value = &bindings[i].second;
    }
    if (value == nullptr) return false;
    if (slots != nullptr) slots->push_back(value);
  }
  return true;
}

EvalScratch& EvalScratch::ThreadLocal() {
  static thread_local EvalScratch scratch;
  return scratch;
}

namespace {

/// Registry of live scratch arenas, so the memory ledger can sum every
/// thread's pooled capacity. Leaked: thread_local scratches unregister
/// during static/thread destruction and must find the registry alive.
struct ScratchRegistry {
  std::mutex mu;
  std::vector<const EvalScratch*> scratches;
};

ScratchRegistry& TheScratchRegistry() {
  static ScratchRegistry* registry = new ScratchRegistry();
  return *registry;
}

}  // namespace

EvalScratch::EvalScratch() {
  ScratchRegistry& registry = TheScratchRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.scratches.push_back(this);
}

EvalScratch::~EvalScratch() {
  ScratchRegistry& registry = TheScratchRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.scratches.erase(std::remove(registry.scratches.begin(),
                                       registry.scratches.end(), this),
                           registry.scratches.end());
}

size_t EvalScratch::FootprintBytes() const {
  size_t total =
      owned_.capacity() * sizeof(std::unique_ptr<std::vector<NodeId>>) +
      free_.capacity() * sizeof(std::vector<NodeId>*) +
      label_slots_.capacity() * sizeof(int) +
      const_slots_.capacity() * sizeof(const std::string*);
  for (const auto& set : owned_) {
    total += sizeof(std::vector<NodeId>) + set->capacity() * sizeof(NodeId);
  }
  return total;
}

size_t EvalScratch::TotalPublishedBytes() {
  ScratchRegistry& registry = TheScratchRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  size_t total = 0;
  for (const EvalScratch* scratch : registry.scratches) {
    total += scratch->published_bytes_.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace secview
