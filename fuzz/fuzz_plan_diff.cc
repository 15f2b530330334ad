#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "xml/label_index.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/plan.h"

/// Differential fuzzer for the compiled-plan VM (xpath/vm.cc): every
/// query the parser accepts is lowered with CompilePlan and executed on
/// the VM over a fixed hospital document — plain, with a label index,
/// and under a node budget small enough to trip mid-query — and
/// compared with the reference walk (EvaluateAtRoot), which shares no
/// code with the VM. Any difference in status code or result NodeSet
/// traps; the budgeted run may instead refuse the query with
/// ResourceExhausted, but never return a partial set. The deterministic
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

Answer RunVm(const secview::XmlTree& doc, const secview::LabelIndex* index,
             const secview::CompiledPlan& plan,
             const secview::BudgetLimits& limits) {
  secview::XPathEvaluator evaluator = index != nullptr
                                          ? secview::XPathEvaluator(doc, index)
                                          : secview::XPathEvaluator(doc);
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

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const secview::XmlTree* doc = [] {
    auto parsed = secview::ParseXml(kDoc);
    if (!parsed.ok()) __builtin_trap();
    return new secview::XmlTree(std::move(parsed).value());
  }();
  static const secview::LabelIndex* index = new secview::LabelIndex(*doc);

  std::string_view input(reinterpret_cast<const char*>(data), size);
  secview::XPathParseLimits limits;
  limits.max_depth = 64;
  limits.max_tokens = 4096;
  auto parsed = secview::ParseXPath(input, limits);
  if (!parsed.ok()) return 0;
  secview::PathPtr p = std::move(parsed).value();

  auto plan = secview::CompilePlan(p);
  if (plan == nullptr) __builtin_trap();  // parser accepted, compiler must too
  secview::PlanCompileOptions indexed_options;
  indexed_options.use_index = true;
  auto indexed_plan = secview::CompilePlan(p, indexed_options);
  if (indexed_plan == nullptr) __builtin_trap();

  const Answer reference = RunReference(*doc, p);
  secview::BudgetLimits unlimited;
  CheckSame(reference, RunVm(*doc, nullptr, *plan, unlimited));
  // The reference has no index: the indexed plan must match it too.
  CheckSame(reference, RunVm(*doc, index, *indexed_plan, unlimited));

  // A budget small enough that hostile closures trip mid-evaluation:
  // the VM refuses the whole query or returns exactly the reference.
  secview::BudgetLimits tight;
  tight.max_nodes = 64;
  const Answer budgeted = RunVm(*doc, nullptr, *plan, tight);
  if (budgeted.status.code() == secview::StatusCode::kResourceExhausted) {
    if (!budgeted.nodes.empty()) __builtin_trap();
  } else {
    CheckSame(reference, budgeted);
  }
  return 0;
}
