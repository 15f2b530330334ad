#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/plan.h"

/// Differential fuzzer for the compiled-plan VM (xpath/vm.cc): every
/// query the parser accepts is lowered with CompilePlan and executed on
/// the VM over a fixed hospital document — plain and under a node
/// budget small enough to trip mid-query — and compared with the
/// reference walk (EvaluateAtRoot), which shares no code with the VM.
/// Any difference in status code or result NodeSet traps; the budgeted
/// run may instead refuse the query with ResourceExhausted, but never
/// return a partial set. A query s/rest
/// also runs `rest` from a caller-supplied context, the reference answer
/// of its first step s: as given when it has two or more nodes, and with
/// every node duplicated, so that {a, a} meets a path-summary extent
/// {a, b} of the same count. Its answer must be exactly the union of
/// EvaluateAtNode over that context, which the VM takes as a set. The
/// seeds whose qualifiers the VM decides per summary class (semi-joins)
/// or walks per node are named semijoin_*. The deterministic
/// companion is tests/plan_test.cc; the seed corpus is shared with
/// fuzz_xpath (tests/corpus/xpath/).

namespace {

constexpr char kDoc[] = R"(
  <hospital>
    <dept id="1">
      <clinicalTrial>
        <patientInfo>
          <patient vip="y"><name>carol</name><wardNo>3</wardNo>
            <treatment><trial><bill>900</bill></trial></treatment>
          </patient>
        </patientInfo>
        <test>blood</test>
      </clinicalTrial>
      <patientInfo>
        <patient><name>dave</name><wardNo>4</wardNo>
          <treatment><regular><bill>120</bill><medication>m</medication></regular></treatment>
        </patient>
      </patientInfo>
      <staffInfo><staff><nurse>sue</nurse></staff></staffInfo>
    </dept>
    <dept id="2">
      <patientInfo>
        <patient><name>erin</name><wardNo>3</wardNo>
          <treatment><regular><bill>55</bill></regular></treatment>
        </patient>
      </patientInfo>
    </dept>
  </hospital>
)";

struct Answer {
  secview::Status status = secview::Status::OK();
  secview::NodeSet nodes;
};

const std::vector<std::pair<std::string, std::string>>& Bindings() {
  static const auto* bindings =
      new std::vector<std::pair<std::string, std::string>>{
          {"w", "3"}, {"name", "carol"}};
  return *bindings;
}

Answer RunReference(const secview::XmlTree& doc, const secview::PathPtr& p) {
  auto result =
      secview::EvaluateAtRoot(doc, secview::BindParams(p, Bindings()));
  Answer answer;
  answer.status = result.status();
  if (result.ok()) answer.nodes = std::move(result).value();
  return answer;
}

Answer RunVm(const secview::XmlTree& doc, const secview::CompiledPlan& plan,
             const secview::BudgetLimits& limits) {
  secview::XPathEvaluator evaluator(doc);
  secview::QueryBudget budget(limits, secview::CancelToken());
  if (budget.active()) evaluator.set_budget(&budget);
  auto result = evaluator.EvaluateCompiled(plan, doc.root(), Bindings());
  Answer answer;
  answer.status = result.status();
  if (result.ok()) answer.nodes = std::move(result).value();
  return answer;
}

void CheckSame(const Answer& reference, const Answer& vm) {
  if (reference.status.code() != vm.status.code()) __builtin_trap();
  if (reference.nodes != vm.nodes) __builtin_trap();
}

/// Splits `p` into its first step (the leftmost operand of its top-level
/// '/' chain) and the rest; the rest is null when `p` is one step.
std::pair<secview::PathPtr, secview::PathPtr> SplitFirstStep(
    const secview::PathPtr& p) {
  if (p->kind != secview::PathKind::kSlash) return {p, nullptr};
  auto [first, rest] = SplitFirstStep(p->left);
  return {first, rest == nullptr ? p->right
                                 : secview::MakeSlash(rest, p->right)};
}

/// Runs `bound` compiled from `context` and traps unless its answer is
/// the union of the reference walk's answers at each context node.
void CheckFromContext(const secview::XmlTree& doc,
                      const secview::PathPtr& bound,
                      const secview::NodeSet& context) {
  std::set<secview::NodeId> expected;
  for (secview::NodeId v : context) {
    auto at = secview::EvaluateAtNode(doc, bound, v);
    if (!at.ok()) __builtin_trap();  // the root run succeeded
    expected.insert(at->begin(), at->end());
  }
  auto plan = secview::CompilePlan(bound);
  if (plan == nullptr) __builtin_trap();
  secview::XPathEvaluator evaluator(doc);
  auto result = evaluator.EvaluateCompiled(*plan, context);
  if (!result.ok()) __builtin_trap();
  const secview::NodeSet& nodes = *result;
  if (!std::equal(nodes.begin(), nodes.end(), expected.begin(),
                  expected.end())) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const secview::XmlTree* doc = [] {
    auto parsed = secview::ParseXml(kDoc);
    if (!parsed.ok()) __builtin_trap();
    return new secview::XmlTree(std::move(parsed).value());
  }();

  std::string_view input(reinterpret_cast<const char*>(data), size);
  secview::XPathParseLimits limits;
  limits.max_depth = 64;
  limits.max_tokens = 4096;
  auto parsed = secview::ParseXPath(input, limits);
  if (!parsed.ok()) return 0;
  secview::PathPtr p = std::move(parsed).value();

  auto plan = secview::CompilePlan(p);
  if (plan == nullptr) __builtin_trap();  // parser accepted, compiler must too

  const Answer reference = RunReference(*doc, p);
  secview::BudgetLimits unlimited;
  CheckSame(reference, RunVm(*doc, *plan, unlimited));

  // A budget small enough that hostile closures trip mid-evaluation:
  // the VM refuses the whole query or returns exactly the reference.
  secview::BudgetLimits tight;
  tight.max_nodes = 64;
  const Answer budgeted = RunVm(*doc, *plan, tight);
  if (budgeted.status.code() == secview::StatusCode::kResourceExhausted) {
    if (!budgeted.nodes.empty()) __builtin_trap();
  } else {
    CheckSame(reference, budgeted);
  }

  if (!reference.status.ok()) return 0;
  auto [first, rest] = SplitFirstStep(secview::BindParams(p, Bindings()));
  if (rest == nullptr) return 0;
  auto context = secview::EvaluateAtRoot(*doc, first);
  if (!context.ok() || context->empty()) return 0;
  if (context->size() >= 2) {
    CheckFromContext(*doc, rest, *context);
  }
  secview::NodeSet duplicated;
  for (secview::NodeId v : *context) duplicated.insert(duplicated.end(), 2, v);
  CheckFromContext(*doc, rest, duplicated);
  return 0;
}
