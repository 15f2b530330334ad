#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "common/failpoint.h"
#include "obs/audit.h"
#include "obs/json.h"
#include "obs/plan_profile.h"
#include "obs/trace.h"
#include "obs/trace_store.h"

namespace secview {
namespace {

constexpr char kHospitalDtdText[] = R"(
  <!ELEMENT hospital (dept)*>
  <!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
  <!ELEMENT clinicalTrial (patientInfo, test)>
  <!ELEMENT patientInfo (patient)*>
  <!ELEMENT patient (name, wardNo, treatment)>
  <!ELEMENT treatment (trial | regular)>
  <!ELEMENT trial (bill)>
  <!ELEMENT regular (bill, medication)>
  <!ELEMENT staffInfo (staff)*>
  <!ELEMENT staff (doctor | nurse)>
  <!ELEMENT name (#PCDATA)>
  <!ELEMENT wardNo (#PCDATA)>
  <!ELEMENT test (#PCDATA)>
  <!ELEMENT bill (#PCDATA)>
  <!ELEMENT medication (#PCDATA)>
  <!ELEMENT doctor (#PCDATA)>
  <!ELEMENT nurse (#PCDATA)>
)";

constexpr char kNurseSpecText[] = R"(
  ann(hospital, dept) = [*/patient/wardNo = $wardNo]
  ann(dept, clinicalTrial) = N
  ann(clinicalTrial, patientInfo) = Y
  ann(treatment, trial) = N
  ann(treatment, regular) = N
  ann(trial, bill) = Y
  ann(regular, bill) = Y
  ann(regular, medication) = Y
)";

constexpr char kDocText[] = R"(
  <hospital>
    <dept>
      <clinicalTrial>
        <patientInfo>
          <patient><name>carol</name><wardNo>3</wardNo>
            <treatment><trial><bill>900</bill></trial></treatment>
          </patient>
        </patientInfo>
        <test>blood</test>
      </clinicalTrial>
      <patientInfo>
        <patient><name>dave</name><wardNo>3</wardNo>
          <treatment><regular><bill>120</bill><medication>m</medication></regular></treatment>
        </patient>
      </patientInfo>
      <staffInfo/>
    </dept>
  </hospital>
)";

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/secview_cli";
    WriteFile("hospital.dtd", kHospitalDtdText);
    WriteFile("nurse.spec", kNurseSpecText);
    WriteFile("doc.xml", kDocText);
  }

  void WriteFile(const std::string& name, const std::string& content) {
    std::string path = Path(name);
    // TempDir exists; create our subdirectory lazily via ofstream by
    // writing into TempDir directly (flat names). Write to a
    // process-unique temp name and rename into place: ctest runs each
    // case as its own process, and a plain truncate-rewrite lets a
    // concurrent case read a half-written fixture.
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::binary);
      ASSERT_TRUE(out.is_open()) << tmp;
      out << content;
    }
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0) << path;
  }

  std::string Path(const std::string& name) {
    return testing::TempDir() + "/secview_cli_" + name;
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, Help) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpListsObservabilityFlags) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("--stats"), std::string::npos);
  EXPECT_NE(text.find("--trace-json"), std::string::npos);
}

TEST_F(CliTest, QueryStats) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--stats"}),
            0);
  std::string text = out_.str();
  // Nonzero counters for the rewrite, optimize, and evaluate phases.
  EXPECT_NE(text.find("# stats:"), std::string::npos) << text;
  // One preparation per execution: the query is rewritten once.
  EXPECT_NE(text.find("rewrite.queries = 1"), std::string::npos) << text;
  EXPECT_NE(text.find("optimize.queries = 1"), std::string::npos) << text;
  EXPECT_NE(text.find("eval.nodes_touched = "), std::string::npos);
  EXPECT_EQ(text.find("eval.nodes_touched = 0"), std::string::npos);
  EXPECT_NE(text.find("phase.evaluate.micros count=1"), std::string::npos);
}

TEST_F(CliTest, QueryTraceJson) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--trace-json",
                 Path("trace.json")}),
            0);
  std::ifstream in(Path("trace.json"), std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto trace = obs::Json::Parse(buffer.str());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  // The span tree must contain at least 4 distinct pipeline phases.
  std::function<void(const obs::Json&, std::set<std::string>&)> collect =
      [&](const obs::Json& span, std::set<std::string>& names) {
        if (const obs::Json* name = span.Find("name")) {
          names.insert(name->AsString());
        }
        if (const obs::Json* children = span.Find("children")) {
          for (const obs::Json& child : children->items()) {
            collect(child, names);
          }
        }
      };
  std::set<std::string> names;
  collect(*trace, names);
  int phases = 0;
  for (const char* phase :
       {"parse", "rewrite", "optimize", "bind", "evaluate", "unfold"}) {
    if (names.count(phase)) ++phases;
  }
  EXPECT_GE(phases, 4) << "phases seen: " << names.size();
}

TEST_F(CliTest, QueryTraceJsonToStdout) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--trace-json",
                 "-"}),
            0);
  EXPECT_NE(out_.str().find("\"name\": \"execute\""), std::string::npos);
}

TEST_F(CliTest, QueryStatsWithSavedView) {
  ASSERT_EQ(Run({"derive", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--out", Path("nurse.view")}),
            0);
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--view",
                 Path("nurse.view"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--stats",
                 "--trace-json", "-"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("rewrite.queries = 1"), std::string::npos) << text;
  EXPECT_NE(text.find("eval.nodes_touched = "), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"evaluate\""), std::string::npos);
}

TEST_F(CliTest, QueryProfilePrintsStepTable) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--profile"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("hot step:"), std::string::npos) << text;
  // The view rewrite replaces descendant steps with explicit child chains,
  // so the plan is all child/compose/union steps.
  EXPECT_NE(text.find("child::bill"), std::string::npos) << text;
  EXPECT_NE(text.find("self_us"), std::string::npos) << text;
  // Profiling must not change the answer relative to a plain run.
  std::string results_line = text.substr(text.find("# results:"));
  results_line = results_line.substr(0, results_line.find('\n'));
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3"}),
            0);
  EXPECT_NE(out_.str().find(results_line), std::string::npos);
}

TEST_F(CliTest, QueryProfileJsonValidatesAndAggregates) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--profile-json",
                 Path("profile.jsonl")}),
            0);
  std::ifstream in(Path("profile.jsonl"), std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Status valid = obs::ValidateProfileLine(
      buffer.str().substr(0, buffer.str().find('\n')));
  EXPECT_TRUE(valid.ok()) << valid.message();

  // profile-top renders the aggregated hottest steps off the same file.
  EXPECT_EQ(Run({"profile-top", "--in", Path("profile.jsonl"), "--k", "3"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("plan profile:"), std::string::npos) << text;
  EXPECT_NE(text.find("1 profiled query(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("nodes="), std::string::npos);
}

TEST_F(CliTest, QueryProfileJsonToStdout) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--profile-json",
                 "-"}),
            0);
  EXPECT_NE(out_.str().find("\"schema\":\"secview.profile.v1\""),
            std::string::npos)
      << out_.str();
}

TEST_F(CliTest, QueryProfileWithSavedView) {
  ASSERT_EQ(Run({"derive", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--out", Path("nurse.view")}),
            0);
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--view",
                 Path("nurse.view"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--profile"}),
            0);
  EXPECT_NE(out_.str().find("hot step:"), std::string::npos) << out_.str();
}

TEST_F(CliTest, ProfileTopRejectsCorruptInput) {
  WriteFile("bad_profile.jsonl", "{\"schema\":\"secview.profile.v1\"}\n");
  EXPECT_EQ(Run({"profile-top", "--in", Path("bad_profile.jsonl")}), 1);
  EXPECT_NE(err_.str().find("line 1"), std::string::npos) << err_.str();
}

TEST_F(CliTest, UnknownCommand) {
  EXPECT_EQ(Run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, RetiredFlagIsRejectedWithoutSwallowingTheNext) {
  // --no-compiled is gone; it must not take --no-optimize as its value.
  EXPECT_EQ(Run({"rewrite", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query", "//patient", "--no-compiled",
                 "--no-optimize"}),
            2);
  EXPECT_NE(err_.str().find("unknown flag '--no-compiled'"),
            std::string::npos)
      << err_.str();

  // Nor --heap-sample, retired with the sampled heap profiler.
  EXPECT_EQ(Run({"serve", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"),
                 "--heap-sample", "4096", "--no-optimize"}),
            2);
  EXPECT_NE(err_.str().find("unknown flag '--heap-sample'"),
            std::string::npos)
      << err_.str();

  // The profiler's offline renderer went with it.
  EXPECT_EQ(Run({"heap-export", "--in", Path("doc.xml")}), 2);
  EXPECT_NE(err_.str().find("unknown command 'heap-export'"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, MisspeltFlagIsRejected) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--qeury",
                 "//patient"}),
            2);
  EXPECT_NE(err_.str().find("unknown flag '--qeury'"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, MissingFlags) {
  EXPECT_EQ(Run({"validate", "--dtd", Path("hospital.dtd")}), 2);
  EXPECT_NE(err_.str().find("--xml"), std::string::npos);
}

TEST_F(CliTest, Validate) {
  EXPECT_EQ(Run({"validate", "--dtd", Path("hospital.dtd"), "--xml",
                 Path("doc.xml")}),
            0);
  EXPECT_NE(out_.str().find("valid"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsNonConforming) {
  WriteFile("bad.xml", "<hospital><bogus/></hospital>");
  EXPECT_EQ(Run({"validate", "--dtd", Path("hospital.dtd"), "--xml",
                 Path("bad.xml")}),
            1);
}

TEST_F(CliTest, DeriveShowsViewDtd) {
  EXPECT_EQ(Run({"derive", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec")}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("<!ELEMENT hospital"), std::string::npos) << text;
  EXPECT_EQ(text.find("clinicalTrial"), std::string::npos);
  EXPECT_EQ(text.find("sigma"), std::string::npos);
}

TEST_F(CliTest, DeriveShowSigma) {
  EXPECT_EQ(Run({"derive", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--show-sigma"}),
            0);
  EXPECT_NE(out_.str().find("sigma("), std::string::npos);
  EXPECT_NE(out_.str().find("clinicalTrial"), std::string::npos);
}

TEST_F(CliTest, RewriteQuery) {
  EXPECT_EQ(Run({"rewrite", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query", "//patient//bill"}),
            0);
  EXPECT_NE(out_.str().find("trial"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("$wardNo"), std::string::npos);
}

TEST_F(CliTest, QueryWithBindings) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name", "--bind", "wardNo=3"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("# results: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("carol"), std::string::npos);
}

TEST_F(CliTest, QueryWithoutBindingFails) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name"}),
            1);
  EXPECT_NE(err_.str().find("unbound"), std::string::npos);
}

TEST_F(CliTest, QueryExtract) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient", "--bind", "wardNo=3", "--extract"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("<results>"), std::string::npos) << text;
  EXPECT_NE(text.find("dummy"), std::string::npos);
  EXPECT_EQ(text.find("<trial"), std::string::npos);
}

TEST_F(CliTest, Materialize) {
  EXPECT_EQ(Run({"materialize", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--bind",
                 "wardNo=3"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("<hospital>"), std::string::npos) << text;
  EXPECT_EQ(text.find("clinicalTrial"), std::string::npos);
  EXPECT_NE(text.find("carol"), std::string::npos);
}

TEST_F(CliTest, GenerateProducesValidDocument) {
  EXPECT_EQ(Run({"generate", "--dtd", Path("hospital.dtd"), "--bytes",
                 "5000", "--seed", "7"}),
            0);
  WriteFile("generated.xml", out_.str());
  EXPECT_EQ(Run({"validate", "--dtd", Path("hospital.dtd"), "--xml",
                 Path("generated.xml")}),
            0);
}

TEST_F(CliTest, GenerateDeterministicPerSeed) {
  ASSERT_EQ(Run({"generate", "--dtd", Path("hospital.dtd"), "--seed", "5"}),
            0);
  std::string first = out_.str();
  ASSERT_EQ(Run({"generate", "--dtd", Path("hospital.dtd"), "--seed", "5"}),
            0);
  EXPECT_EQ(out_.str(), first);
  ASSERT_EQ(Run({"generate", "--dtd", Path("hospital.dtd"), "--seed", "6"}),
            0);
  EXPECT_NE(out_.str(), first);
}


TEST_F(CliTest, DeriveOutAndViewRoundTrip) {
  // derive --out saves the definition; rewrite/query --view load it.
  EXPECT_EQ(Run({"derive", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--out", Path("nurse.view")}),
            0);
  EXPECT_NE(out_.str().find("wrote view definition"), std::string::npos);

  EXPECT_EQ(Run({"rewrite", "--dtd", Path("hospital.dtd"), "--view",
                 Path("nurse.view"), "--query", "//patient//bill"}),
            0);
  std::string via_view = out_.str();
  EXPECT_EQ(Run({"rewrite", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query", "//patient//bill"}),
            0);
  EXPECT_EQ(out_.str(), via_view);

  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--view",
                 Path("nurse.view"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name", "--bind", "wardNo=3"}),
            0);
  EXPECT_NE(out_.str().find("# results: 2"), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, ViewFileErrorsSurface) {
  WriteFile("broken.view", "not a view definition");
  EXPECT_EQ(Run({"rewrite", "--dtd", Path("hospital.dtd"), "--view",
                 Path("broken.view"), "--query", "//bill"}),
            1);
}


TEST_F(CliTest, NonNormalFormDtdEndToEnd) {
  // A real-world-style DTD with ?, +, and groups: the CLI normalizes the
  // DTD, rewrites the document to match (aux wrappers), and the whole
  // pipeline works on top.
  WriteFile("book.dtd", R"(
    <!ELEMENT book (title, (chapter | appendix)+, price?)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT chapter (title, para*)>
    <!ELEMENT appendix (para+)>
    <!ELEMENT para (#PCDATA)>
    <!ELEMENT price (#PCDATA)>
  )");
  WriteFile("book.xml",
            "<book><title>t</title>"
            "<chapter><title>c1</title><para>p1</para></chapter>"
            "<appendix><para>ap</para></appendix>"
            "<price>9.99</price></book>");
  WriteFile("book.spec", "ann(book, price) = N\n");

  EXPECT_EQ(Run({"validate", "--dtd", Path("book.dtd"), "--xml",
                 Path("book.xml")}),
            0);
  EXPECT_NE(out_.str().find("auxiliary"), std::string::npos) << out_.str();

  EXPECT_EQ(Run({"query", "--dtd", Path("book.dtd"), "--spec",
                 Path("book.spec"), "--xml", Path("book.xml"), "--query",
                 "//para"}),
            0);
  EXPECT_NE(out_.str().find("# results: 2"), std::string::npos)
      << out_.str();

  // The hidden price is unreachable.
  EXPECT_EQ(Run({"query", "--dtd", Path("book.dtd"), "--spec",
                 Path("book.spec"), "--xml", Path("book.xml"), "--query",
                 "//price"}),
            0);
  EXPECT_NE(out_.str().find("# results: 0"), std::string::npos)
      << out_.str();

  EXPECT_EQ(Run({"materialize", "--dtd", Path("book.dtd"), "--spec",
                 Path("book.spec"), "--xml", Path("book.xml")}),
            0);
  EXPECT_EQ(out_.str().find("price"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("c1"), std::string::npos);
}

TEST_F(CliTest, DeriveWarnsAboutIncompletePolicies) {
  WriteFile("choice.dtd",
            "<!ELEMENT r (x | y)> <!ELEMENT x (#PCDATA)>"
            "<!ELEMENT y (#PCDATA)>");
  WriteFile("choice.spec", "ann(r, y) = N\n");
  EXPECT_EQ(Run({"derive", "--dtd", Path("choice.dtd"), "--spec",
                 Path("choice.spec")}),
            0);
  EXPECT_NE(out_.str().find("warning:"), std::string::npos) << out_.str();
}

TEST_F(CliTest, MissingFilesReported) {
  EXPECT_EQ(Run({"derive", "--dtd", "/nonexistent.dtd", "--spec",
                 Path("nurse.spec")}),
            1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

TEST_F(CliTest, QueryAuditLogRecordsOkAndDeniedThenVerifies) {
  std::string log = Path("audit.jsonl");
  std::remove(log.c_str());

  // A successful query appends an "ok" record and reports the count.
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name", "--bind", "wardNo=3", "--audit-log", log}),
            0);
  EXPECT_NE(out_.str().find("# audit: 1 event(s) appended to"),
            std::string::npos)
      << out_.str();

  // A denied query (missing binding) still exits 1 AND lands in the same
  // log as an "error" record.
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name", "--audit-log", log}),
            1);

  std::ifstream in(log, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string trail = buffer.str();
  EXPECT_NE(trail.find("\"outcome\":\"ok\""), std::string::npos) << trail;
  EXPECT_NE(trail.find("\"outcome\":\"denied\""), std::string::npos);
  EXPECT_NE(trail.find("\"schema\":\"secview.audit.v1\""), std::string::npos);

  EXPECT_EQ(Run({"audit-verify", "--log", log}), 0);
  EXPECT_NE(out_.str().find("ok: 2 audit events validated"),
            std::string::npos)
      << out_.str();
}

TEST_F(CliTest, AuditVerifyRejectsCorruptLogs) {
  WriteFile("bad_audit.jsonl", "{\"schema\":\"secview.audit.v1\"}\n");
  EXPECT_EQ(Run({"audit-verify", "--log", Path("bad_audit.jsonl")}), 1);
  EXPECT_NE(err_.str().find(":1:"), std::string::npos) << err_.str();
}

TEST_F(CliTest, AuditLogRequiresEnginePath) {
  ASSERT_EQ(Run({"derive", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--out", Path("nurse.view")}),
            0);
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--view",
                 Path("nurse.view"), "--xml", Path("doc.xml"), "--query",
                 "//bill", "--bind", "wardNo=3", "--audit-log",
                 Path("nope.jsonl")}),
            1);
  EXPECT_NE(err_.str().find("--spec"), std::string::npos) << err_.str();
}

TEST_F(CliTest, ExplainTextNamesSigmaAndPrunes) {
  EXPECT_EQ(Run({"explain", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query",
                 "dept/patientInfo/patient/name | //clinicalTrial"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("explain secview.explain.v1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("[rewrite/sigma]"), std::string::npos) << text;
  EXPECT_NE(text.find("$wardNo"), std::string::npos);
  EXPECT_NE(text.find("[rewrite/prune]"), std::string::npos);
  EXPECT_NE(text.find("nonexistence"), std::string::npos);
  EXPECT_NE(text.find("final query"), std::string::npos);
}

TEST_F(CliTest, ExplainJsonParses) {
  EXPECT_EQ(Run({"explain", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query", "//patient//bill",
                 "--json"}),
            0);
  auto parsed = obs::Json::Parse(out_.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("schema")->AsString(), "secview.explain.v1");
  ASSERT_NE(parsed->Find("rewrite"), nullptr);
  EXPECT_NE(parsed->Find("rewrite")->Find("dp_cells"), nullptr);
}

TEST_F(CliTest, ExplainIsDeterministic) {
  ASSERT_EQ(Run({"explain", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query", "//patient//bill"}),
            0);
  std::string first = out_.str();
  ASSERT_EQ(Run({"explain", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--query", "//patient//bill"}),
            0);
  EXPECT_EQ(out_.str(), first);
}

TEST_F(CliTest, QueryMetricsPromToStdout) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name", "--bind", "wardNo=3", "--metrics-prom",
                 "-"}),
            0);
  std::string text = out_.str();
  EXPECT_NE(text.find("# TYPE secview_engine_queries counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("secview_engine_queries_total 1"), std::string::npos);
  EXPECT_NE(text.find("secview_phase_evaluate_micros_bucket"),
            std::string::npos);
}

TEST_F(CliTest, QueryMetricsSnapshotDir) {
  std::string dir = testing::TempDir() + "/secview_cli_snapdir";
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient/name", "--bind", "wardNo=3",
                 "--metrics-snapshot-dir", dir}),
            0);
  EXPECT_NE(out_.str().find("# metrics snapshot: " + dir),
            std::string::npos)
      << out_.str();
  std::ifstream prom(dir + "/metrics.prom");
  EXPECT_TRUE(prom.good());
  std::ifstream json(dir + "/metrics.json");
  EXPECT_TRUE(json.good());
}

TEST_F(CliTest, HelpListsAuditAndExplain) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("--audit-log"), std::string::npos);
  EXPECT_NE(text.find("audit-verify"), std::string::npos);
  EXPECT_NE(text.find("explain"), std::string::npos);
  EXPECT_NE(text.find("--metrics-prom"), std::string::npos);
  EXPECT_NE(text.find("--metrics-snapshot-dir"), std::string::npos);
}

TEST_F(CliTest, BadBindSyntax) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//name", "--bind", "wardNo"}),
            2);
}

TEST_F(CliTest, BenchServeReportsThroughputAndCacheHits) {
  WriteFile("bench_queries.txt",
            "# mixed serving workload\n"
            "//name\n"
            "//patient\n"
            "//patient/wardNo\n"
            "\n"
            "  //bill  \n");
  EXPECT_EQ(Run({"bench-serve", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--queries",
                 Path("bench_queries.txt"), "--threads", "2", "--repeat", "3",
                 "--bind", "wardNo=3"}),
            0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("threads: 2"), std::string::npos) << text;
  EXPECT_NE(text.find("queries: 4 (4 ok, 0 failing), repeated 3x"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("queries/sec"), std::string::npos);
  // The warm-up batch populates the cache (one entry per query); the 3
  // measured batches hit.
  EXPECT_NE(text.find("cache: 12 hits, 4 misses"), std::string::npos) << text;
}

TEST_F(CliTest, BenchServeRejectsEmptyQueriesFile) {
  WriteFile("empty.txt", "# only comments\n\n");
  EXPECT_EQ(Run({"bench-serve", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--queries",
                 Path("empty.txt"), "--threads", "1"}),
            1);
}

TEST_F(CliTest, HelpListsBenchServe) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("bench-serve"), std::string::npos);
  EXPECT_NE(text.find("--threads"), std::string::npos);
  EXPECT_NE(text.find("--queries"), std::string::npos);
}

// --- Defensive serving flags (docs/robustness.md) ---

TEST_F(CliTest, HelpListsDefensiveServingFlags) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("--deadline-ms"), std::string::npos);
  EXPECT_NE(text.find("--max-nodes"), std::string::npos);
  EXPECT_NE(text.find("--max-parse-depth"), std::string::npos);
  EXPECT_NE(text.find("--queue-cap"), std::string::npos);
}

TEST_F(CliTest, QueryZeroLimitsMeanUnlimited) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--deadline-ms", "0",
                 "--max-nodes", "0", "--max-parse-depth", "0"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("900"), std::string::npos);
}

TEST_F(CliTest, QueryNodeBudgetExhaustionExitsFive) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--max-nodes", "1"}),
            5);
  EXPECT_NE(err_.str().find("node-visit budget exhausted"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, QueryDeadlineExceededExitsFour) {
  // A generated multi-megabyte document makes the evaluate phase far
  // exceed a 1 ms wall-clock deadline; the stride-checked budget turns
  // that into a clean DeadlineExceeded instead of an unbounded stall.
  ASSERT_EQ(Run({"generate", "--dtd", Path("hospital.dtd"), "--bytes",
                 "4000000", "--seed", "7"}),
            0);
  WriteFile("big.xml", out_.str());
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("big.xml"), "--query",
                 "//dept//patient//bill", "--bind", "wardNo=3",
                 "--deadline-ms", "1"}),
            4);
  EXPECT_NE(err_.str().find("deadline of 1 ms exceeded"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, QueryMaxParseDepthBoundsDocumentNesting) {
  // The fixture document nests eight elements deep; a limit of 4 must
  // reject it at parse time with OutOfRange (generic failure, exit 1).
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--max-parse-depth",
                 "4"}),
            1);
  EXPECT_NE(err_.str().find("XML limit exceeded"), std::string::npos)
      << err_.str();
}

TEST_F(CliTest, QueryMaxParseDepthBoundsQueryNesting) {
  // Depth 10 admits the document (depth 8) but not a query whose
  // qualifiers nest eleven deep, so the rejection is the XPath parser's.
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//dept[patientInfo[patient[name[a[b[c[d[e[f[g]]]]]]]]]]",
                 "--bind", "wardNo=3", "--max-parse-depth", "10"}),
            1);
  EXPECT_NE(err_.str().find("XPath nesting depth exceeds limit"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, QueryRejectsNonNumericLimitFlag) {
  EXPECT_NE(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//patient//bill", "--bind", "wardNo=3", "--deadline-ms",
                 "garbage"}),
            0);
  EXPECT_NE(err_.str().find("--deadline-ms needs a non-negative integer"),
            std::string::npos)
      << err_.str();
}

TEST_F(CliTest, BenchServeQueueCapShedsAndReportsRejections) {
  // One worker and a queue cap of 1: each 6-query batch admits one
  // query and sheds five, deterministically (the whole batch is
  // enqueued under a single lock hold; see docs/robustness.md).
  WriteFile("six.txt",
            "//name\n//patient\n//bill\n//wardNo\n//patient/name\n"
            "//patient/wardNo\n");
  EXPECT_EQ(Run({"bench-serve", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--queries",
                 Path("six.txt"), "--threads", "1", "--queue-cap", "1",
                 "--repeat", "1", "--bind", "wardNo=3"}),
            0)
      << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("queries: 6 (1 ok, 5 failing)"), std::string::npos)
      << text;
  // Warm-up plus one measured round: 5 shed in each.
  EXPECT_NE(text.find("rejected: 10 shed, 0 deadline, 0 budget"),
            std::string::npos)
      << text;
}

// --- Live telemetry endpoint (docs/observability.md) ---

TEST_F(CliTest, HelpListsTelemetryCommands) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("serve"), std::string::npos);
  EXPECT_NE(text.find("scrape"), std::string::npos);
  EXPECT_NE(text.find("--telemetry-addr"), std::string::npos);
  EXPECT_NE(text.find("--port-file"), std::string::npos);
  EXPECT_NE(text.find("--slow-query-micros"), std::string::npos);
  EXPECT_NE(text.find("--validate-prom"), std::string::npos);
  EXPECT_NE(text.find("/metrics"), std::string::npos);
}

TEST_F(CliTest, ScrapeRequiresAddress) {
  EXPECT_EQ(Run({"scrape"}), 1);
  EXPECT_NE(err_.str().find("--addr"), std::string::npos) << err_.str();
}

TEST_F(CliTest, BenchServeStartsTelemetryWhenRequested) {
  WriteFile("telemetry_queries.txt", "//name\n//patient\n");
  std::string port_file = Path("bench.port");
  std::remove(port_file.c_str());
  EXPECT_EQ(Run({"bench-serve", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--queries",
                 Path("telemetry_queries.txt"), "--threads", "2", "--repeat",
                 "2", "--bind", "wardNo=3", "--telemetry-addr", "127.0.0.1:0",
                 "--port-file", port_file}),
            0)
      << err_.str();
  std::string text = out_.str();
  // The bound (ephemeral) address is announced up front and the summary
  // reports the window the live endpoints were serving from.
  EXPECT_NE(text.find("# telemetry: http://127.0.0.1:"), std::string::npos)
      << text;
  EXPECT_NE(text.find("window(60s)"), std::string::npos) << text;
  std::ifstream in(port_file);
  int port = 0;
  ASSERT_TRUE(in >> port);
  EXPECT_GT(port, 0);
  EXPECT_LE(port, 65535);
  std::remove(port_file.c_str());
}

// --- trace-export ---

std::string TwoTraceJsonl() {
  obs::RequestTraceStore::Options options;
  options.sample_every = 1;
  obs::RequestTraceStore store(options);
  for (const char* q : {"//patient//bill", "//name"}) {
    obs::Trace trace("secview.request");
    {
      obs::ScopedSpan span(&trace, "evaluate");
      span.SetAttr("nodes_touched", 42);
    }
    store.Offer("nurse", q, Status::OK(), 120, trace);
  }
  return store.SnapshotJsonl();
}

TEST_F(CliTest, TraceExportValidateReportsCount) {
  WriteFile("traces.jsonl", TwoTraceJsonl());
  EXPECT_EQ(Run({"trace-export", "--in", Path("traces.jsonl"), "--validate"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("ok: 2 trace(s) validated"), std::string::npos)
      << out_.str();
}

TEST_F(CliTest, TraceExportChromeWritesLoadableJson) {
  WriteFile("traces.jsonl", TwoTraceJsonl());
  std::string out_path = Path("chrome.json");
  EXPECT_EQ(Run({"trace-export", "--in", Path("traces.jsonl"), "--chrome",
                 "--out", out_path}),
            0)
      << err_.str();
  std::ifstream in(out_path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  auto chrome = obs::Json::Parse(buf.str());
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  const obs::Json* events = chrome->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 2 traces x (metadata + root + evaluate child) = 6 events.
  EXPECT_EQ(events->items().size(), 6u);
  for (const obs::Json& ev : events->items()) {
    const obs::Json* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_TRUE(ph->AsString() == "M" || ph->AsString() == "X");
  }
  std::remove(out_path.c_str());
}

TEST_F(CliTest, TraceExportRejectsCorruptInput) {
  std::string jsonl = TwoTraceJsonl();
  WriteFile("bad.jsonl", jsonl + "{\"schema\":\"nope\"}\n");
  EXPECT_EQ(Run({"trace-export", "--in", Path("bad.jsonl"), "--validate"}), 1);
  EXPECT_NE(err_.str().find("schema"), std::string::npos) << err_.str();
  // Neither flag: the command refuses to silently do nothing.
  WriteFile("ok.jsonl", jsonl);
  EXPECT_EQ(Run({"trace-export", "--in", Path("ok.jsonl")}), 1);
}

TEST_F(CliTest, HelpListsTraceExport) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("trace-export"), std::string::npos);
  EXPECT_NE(text.find("--trace-sample"), std::string::npos);
  EXPECT_NE(text.find("--chrome"), std::string::npos);
}

TEST_F(CliTest, ServeExposesLiveEndpointsEndToEnd) {
  WriteFile("live_queries.txt", "//name\n//patient//bill\n");
  std::string port_file = Path("serve.port");
  std::remove(port_file.c_str());

  // `serve` blocks until --max-seconds, so it runs on its own thread
  // with its own streams while this thread scrapes it over HTTP.
  std::ostringstream serve_out;
  std::ostringstream serve_err;
  int serve_rc = -1;
  std::thread server([&] {
    serve_rc = RunCli(
        {"serve", "--dtd", Path("hospital.dtd"), "--spec",
         Path("nurse.spec"), "--xml", Path("doc.xml"), "--queries",
         Path("live_queries.txt"), "--bind", "wardNo=3", "--replay-delay-ms",
         "10", "--max-seconds", "3", "--slow-query-micros", "0",
         "--trace-sample", "1", "--port-file", port_file},
        serve_out, serve_err);
  });

  // The port file is written atomically once the listener is up.
  int port = 0;
  for (int i = 0; i < 200 && port == 0; ++i) {
    std::ifstream in(port_file);
    if (!(in >> port)) {
      port = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
  ASSERT_GT(port, 0) << serve_err.str();
  std::string port_text = std::to_string(port);

  // The engine is sealed by the worker pool, so /healthz reports ready
  // once the replay loop is serving.
  int health_rc = 1;
  for (int i = 0; i < 100; ++i) {
    health_rc =
        Run({"scrape", "--port", port_text, "--path", "/healthz"});
    if (health_rc == 0 && out_.str().find("ok") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(health_rc, 0) << err_.str();

  // A validated /metrics scrape shows live engine series.
  EXPECT_EQ(Run({"scrape", "--port", port_text, "--validate-prom"}), 0)
      << err_.str();
  std::string metrics = out_.str();
  EXPECT_NE(metrics.find("secview_engine_queries_total"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("secview_build_info{"), std::string::npos);

  // /statusz folds in the sliding window and the slow-query ring (the
  // zero threshold logs every replayed query).
  EXPECT_EQ(Run({"scrape", "--port", port_text, "--path", "/statusz"}), 0)
      << err_.str();
  std::string statusz = out_.str();
  EXPECT_NE(statusz.find("ready: yes"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("last 10s:"), std::string::npos);
  EXPECT_NE(statusz.find("query=//name"), std::string::npos) << statusz;

  // /varz serves the same document schema the snapshot writer emits.
  EXPECT_EQ(Run({"scrape", "--port", port_text, "--path", "/varz"}), 0);
  auto varz = obs::Json::Parse(out_.str());
  ASSERT_TRUE(varz.ok()) << varz.status().ToString();
  EXPECT_EQ(varz->Find("schema")->AsString(), "secview.metrics.v1");
  ASSERT_NE(varz->Find("policy_stats"), nullptr) << out_.str();
  EXPECT_NE(varz->Find("policy_stats")->Find("policy"), nullptr);

  // --trace-sample 1 traces every replayed query: the human page lists
  // them and the JSONL page round-trips through trace-export.
  EXPECT_EQ(Run({"scrape", "--port", port_text, "--path", "/tracez"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("request traces:"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("evaluate"), std::string::npos);
  EXPECT_EQ(
      Run({"scrape", "--port", port_text, "--path", "/tracez?format=json"}),
      0)
      << err_.str();
  std::string jsonl = out_.str();
  EXPECT_NE(jsonl.find("secview.trace.v1"), std::string::npos) << jsonl;
  WriteFile("live.jsonl", jsonl);
  EXPECT_EQ(Run({"trace-export", "--in", Path("live.jsonl"), "--validate"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("trace(s) validated"), std::string::npos);
  EXPECT_EQ(Run({"trace-export", "--in", Path("live.jsonl"), "--chrome"}), 0)
      << err_.str();
  auto chrome = obs::Json::Parse(out_.str());
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  EXPECT_FALSE(chrome->Find("traceEvents")->items().empty());

  server.join();
  EXPECT_EQ(serve_rc, 0) << serve_err.str();
  EXPECT_NE(serve_out.str().find("# served"), std::string::npos)
      << serve_out.str();
  std::remove(port_file.c_str());
}

TEST_F(CliTest, ServeRemovesPortFileOnGracefulShutdownAndOverwritesStale) {
  std::string port_file = Path("stale.port");
  // A stale file from a dead process: the restarted server must replace
  // it with its own port (overwrite, not append) and delete it again on
  // graceful shutdown so nothing ever scrapes a dead port.
  WriteFile("stale.port", "65000\n");

  std::ostringstream serve_out;
  std::ostringstream serve_err;
  int serve_rc = -1;
  std::thread server([&] {
    serve_rc = RunCli({"serve", "--dtd", Path("hospital.dtd"), "--spec",
                       Path("nurse.spec"), "--xml", Path("doc.xml"),
                       "--max-seconds", "1", "--port-file", port_file},
                      serve_out, serve_err);
  });
  int port = 0;
  bool replaced = false;
  for (int i = 0; i < 200 && !replaced; ++i) {
    std::ifstream in(port_file);
    if (in >> port && port != 65000) {
      replaced = true;
      // Overwritten, not appended: the file holds exactly one port.
      int second = 0;
      EXPECT_FALSE(in >> second) << "port file has more than one line";
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  server.join();
  EXPECT_EQ(serve_rc, 0) << serve_err.str();
  EXPECT_TRUE(replaced) << "server never overwrote the stale port file";
  EXPECT_GT(port, 0);
  // Graceful shutdown removed the file.
  std::ifstream after(port_file);
  EXPECT_FALSE(after.good()) << "port file survived graceful shutdown";
}

TEST_F(CliTest, FailpointsFlagRejectsBadSpecAsUsageError) {
  EXPECT_EQ(Run({"help", "--failpoints", "no-equals-sign"}), 2);
  EXPECT_NE(err_.str().find("--failpoints"), std::string::npos) << err_.str();
  EXPECT_EQ(Run({"help", "--failpoints", "audit.write=banana"}), 2);
  EXPECT_EQ(Run({"help", "--failpoints", "audit.write=every:0"}), 2);
  // A well-formed spec arms fine for any command.
  EXPECT_EQ(Run({"help", "--failpoints", "audit.write=off"}), 0);
}

TEST_F(CliTest, HelpDocumentsFailpoints) {
  EXPECT_EQ(Run({"help"}), 0);
  std::string text = out_.str();
  EXPECT_NE(text.find("--failpoints"), std::string::npos);
  EXPECT_NE(text.find("SECVIEW_FAILPOINTS"), std::string::npos);
  EXPECT_NE(text.find("--retries"), std::string::npos);
  EXPECT_NE(text.find("--audit-log"), std::string::npos);
}

TEST_F(CliTest, QueryWithInjectedAllocFaultDegradesNotCrashes) {
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//name", "--bind", "wardNo=3", "--failpoints",
                 "alloc.evaluate=every:1"}),
            5);  // ResourceExhausted maps to the budget-exhausted code
  EXPECT_NE(err_.str().find("injected"), std::string::npos) << err_.str();
  // The arming was scoped to that invocation: the same query now runs
  // clean in this process.
  EXPECT_EQ(Run({"query", "--dtd", Path("hospital.dtd"), "--spec",
                 Path("nurse.spec"), "--xml", Path("doc.xml"), "--query",
                 "//name", "--bind", "wardNo=3"}),
            0)
      << err_.str();
}

TEST_F(CliTest, AuditVerifyReportsSeqGapsFromDroppedEvents) {
  std::string log_path = Path("gapped.jsonl");
  std::remove(log_path.c_str());
  {
    obs::JsonlAuditLog::Options options;
    options.retry_backoff_micros = 1;
    options.retry_backoff_cap_micros = 2;
    auto log = obs::JsonlAuditLog::Open(log_path, options);
    ASSERT_TRUE(log.ok()) << log.status();
    obs::AuditEvent event;
    event.unix_micros = obs::AuditEvent::NowUnixMicros();
    event.policy = "nurse";
    event.query = "//name";
    event.rewritten = "//name";
    event.evaluated = "//name";
    (*log)->Record(event);  // seq 1, written
    ASSERT_TRUE(FailPointRegistry::Instance()
                    .ArmFromSpec("audit.write=every:1")
                    .ok());
    (*log)->Record(event);  // seq 2, dropped after retries
    FailPointRegistry::Instance().DisarmAll();
    (*log)->Record(event);  // seq 3, written
    EXPECT_EQ((*log)->events(), 2u);
    EXPECT_EQ((*log)->dropped(), 1u);
  }
  EXPECT_EQ(Run({"audit-verify", "--log", log_path}), 0) << err_.str();
  std::string text = out_.str();
  EXPECT_NE(text.find("2 audit events validated"), std::string::npos) << text;
  EXPECT_NE(text.find("1 dropped across 1 seq gap(s)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("seq jumps 1 -> 3"), std::string::npos) << text;
  std::remove(log_path.c_str());
}

TEST_F(CliTest, ServeWritesAuditTrailWithSummary) {
  WriteFile("audit_queries.txt", "//name\n");
  std::string log_path = Path("serve_audit.jsonl");
  std::remove(log_path.c_str());
  std::ostringstream serve_out;
  std::ostringstream serve_err;
  int serve_rc = -1;
  std::thread server([&] {
    serve_rc = RunCli({"serve", "--dtd", Path("hospital.dtd"), "--spec",
                       Path("nurse.spec"), "--xml", Path("doc.xml"),
                       "--queries", Path("audit_queries.txt"), "--bind",
                       "wardNo=3", "--replay-delay-ms", "10", "--max-seconds",
                       "1", "--audit-log", log_path},
                      serve_out, serve_err);
  });
  server.join();
  ASSERT_EQ(serve_rc, 0) << serve_err.str();
  EXPECT_NE(serve_out.str().find("# audit:"), std::string::npos)
      << serve_out.str();
  EXPECT_EQ(Run({"audit-verify", "--log", log_path}), 0) << err_.str();
  EXPECT_NE(out_.str().find("audit events validated"), std::string::npos);
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace secview
