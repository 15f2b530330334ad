#ifndef SECVIEW_TESTS_PROFILER_CORPUS_H_
#define SECVIEW_TESTS_PROFILER_CORPUS_H_

#include <string>
#include <vector>

namespace secview {

/// The 17-query corpus shared by profiler_test and plan_test: child
/// chains, both descendant shapes, wildcards, unions, and predicates
/// (path, equality, boolean connectives) — one query per VM dispatch
/// arm. Every query is $parameter-free.
inline const std::vector<std::string>& ProfilerCorpus() {
  static const std::vector<std::string>* corpus = new std::vector<std::string>{
      "dept",
      "dept/patientInfo/patient",
      "dept/patientInfo/patient/name",
      "//patient",
      "//patient/name",
      "//bill",
      "dept//bill",
      "*/*",
      "//patient[wardNo = \"3\"]",
      "//patient[wardNo = \"3\"]/name",
      "//patient[treatment/regular]",
      "//patient[wardNo = \"3\" and treatment/regular]/name",
      "//patient[wardNo = \"9\" or name]",
      "//bill | //medication",
      "dept/patientInfo/patient | //nurse",
      ".",
      "dept/.",
  };
  return *corpus;
}

}  // namespace secview

#endif  // SECVIEW_TESTS_PROFILER_CORPUS_H_
