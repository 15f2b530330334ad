// Input generator for the end-to-end benchmark (perfbench/README.md).
//
//   perfbench_gen --workload NAME --seed N --out DIR
//
// Writes one workload's inputs as plain text: the document DTD, one
// access specification per policy, the documents as XML, and the request
// lists (warm-up, timed sequence, untimed checks). The timed process
// (perfbench_run) only reads these files, through the engine's public
// parse functions, so generation cost and memory never show in its
// metrics. The same seed always writes the same bytes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dtd/normalizer.h"
#include "security/derive.h"
#include "security/spec_parser.h"
#include "workload/adex.h"
#include "workload/auction.h"
#include "workload/generator.h"
#include "workload/hospital.h"
#include "workload/synthetic.h"
#include "xml/serializer.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace secview {
namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_gen: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

/// One request line: policy, document index, optimize flag, bindings
/// ("-" for none, else "name=value"), query text. Lines of checked.tsv
/// carry a sixth field: "no_nodes" when the optimizer must reduce the
/// query to one that touches no node, else "-".
struct Request {
  std::string policy;
  int doc = 0;
  bool optimize = true;
  std::string bindings = "-";
  std::string query;
  bool no_nodes = false;
};

struct Inputs {
  Dtd dtd;
  std::vector<std::pair<std::string, std::string>> policies;  // name, spec
  std::vector<XmlTree> docs;
  std::vector<Request> warmup;
  std::vector<Request> requests;
  std::vector<Request> checked;
};

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) Die("cannot write " + path.string());
}

std::string RequestLines(const std::vector<Request>& requests,
                         bool expectations = false) {
  std::string out;
  for (const Request& r : requests) {
    out += r.policy + "\t" + std::to_string(r.doc) + "\t" +
           (r.optimize ? "1" : "0") + "\t" + r.bindings + "\t" + r.query;
    if (expectations) out += r.no_nodes ? "\tno_nodes" : "\t-";
    out += "\n";
  }
  return out;
}

/// The DTD and specifications travel as text; refuse to write inputs
/// whose text form does not parse back to the same schema.
void CheckRoundTrip(const Inputs& in) {
  std::string text = in.dtd.ToString();
  NormalizeResult back = Must(ParseAndNormalizeDtd(text), "reparse DTD");
  if (!back.aux_types.empty() || back.dtd.ToString() != text) {
    Die("DTD text does not round-trip");
  }
  for (const auto& [name, spec] : in.policies) {
    AccessSpec parsed = Must(ParseAccessSpec(back.dtd, spec), "spec " + name);
    if (parsed.ToString() != spec) Die("spec " + name + " does not round-trip");
  }
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

/// The 10-query serving mix of bench/bench_concurrent.cc.
const std::vector<std::string> kServeMix = {
    "//patient//bill",
    "//patient//bill",
    "//patient//bill",
    "//patient",
    "//patient/name",
    "//bill",
    "patientInfo/patient/name",
    "//patient[wardNo = \"3\"]",
    "//regular/medication",
    "//patient//bill | //medication",
};

constexpr size_t kHospitalBytes = 16'000;

Inputs HospitalBase(uint64_t seed) {
  Inputs in{MakeHospitalDtd(), {}, {}, {}, {}, {}};
  in.policies.push_back(
      {"nurse", Must(MakeNurseSpec(in.dtd), "nurse spec").ToString()});
  in.docs.push_back(Must(
      GenerateDocument(in.dtd, HospitalGeneratorOptions(seed, kHospitalBytes)),
      "hospital document"));
  return in;
}

std::string Ward(int w) { return "wardNo=" + std::to_string(w); }

Inputs ServeHot(uint64_t seed) {
  Inputs in = HospitalBase(seed);
  Rng rng(seed * 2 + 1);
  std::set<std::pair<std::string, std::string>> warmed;
  for (int copy = 0; copy < 50; ++copy) {
    for (const std::string& q : kServeMix) {
      for (int w = 1; w <= 8; ++w) {
        in.requests.push_back({"nurse", 0, true, Ward(w), q});
      }
    }
  }
  Shuffle(in.requests, rng);
  for (const Request& r : in.requests) {
    if (warmed.insert({r.query, r.bindings}).second) in.warmup.push_back(r);
  }
  return in;
}

Inputs PrepareCold(uint64_t seed) {
  constexpr size_t kWarmup = 1024;
  constexpr size_t kTimed = 20'000;
  Inputs in = HospitalBase(seed);
  AccessSpec spec = Must(MakeNurseSpec(in.dtd), "nurse spec");
  SecurityView view = Must(DeriveSecurityView(spec), "nurse view");
  Rng rng(seed * 2 + 1);
  std::set<std::string> seen;
  size_t attempts = 0;
  while (seen.size() < kWarmup + kTimed) {
    if (++attempts > 50 * (kWarmup + kTimed)) Die("too few distinct queries");
    PathPtr q =
        MakeRandomViewQuery(view, rng, 1 + static_cast<int>(rng.Below(5)));
    std::string text = ToXPathString(q);
    if (!ParseXPath(text).ok()) Die("unparsable generated query " + text);
    if (!seen.insert(text).second) continue;
    Request r{"nurse", 0, true, Ward(1 + static_cast<int>(rng.Below(8))), text};
    (seen.size() <= kWarmup ? in.warmup : in.requests).push_back(r);
  }
  return in;
}

Inputs Table1Scan(uint64_t seed) {
  // A 0.4 MB document (about 1.3 MB as a tree) stays cache-resident.
  // The paper's D1 (3.2 MB) and D2 (16.7 MB) sizes are DRAM-bound on a
  // shared 4-vCPU host, and their throughput swung up to 2x between
  // runs with other tenants' memory traffic, too wide to gate on.
  Inputs in{MakeAdexDtd(), {}, {}, {}, {}, {}};
  in.policies.push_back(
      {"adex", Must(MakeAdexSpec(in.dtd), "adex spec").ToString()});
  in.docs.push_back(Must(
      GenerateDocument(in.dtd, AdexGeneratorOptions(seed, 400'000, 3)),
      "adex document"));
  AdexQueries q = Must(MakeAdexQueries(), "adex queries");
  // Timed: the cells that evaluate over the whole document.
  Request q2{"adex", 0, true, "-", ToXPathString(q.q2)};
  Request q4_rewrite{"adex", 0, false, "-", ToXPathString(q.q4)};
  for (int i = 0; i < 32; ++i) {
    in.requests.push_back(q2);
    in.requests.push_back(q4_rewrite);
  }
  Rng rng(seed * 2 + 1);
  Shuffle(in.requests, rng);
  in.warmup = {q2, q4_rewrite};
  // Checked, not timed: every Table 1 cell, optimize on and off. The
  // optimizer proves Q4 empty from the DTD alone (Section 6).
  for (const auto& [name, path] : q.All()) {
    for (bool optimize : {true, false}) {
      in.checked.push_back({"adex", 0, optimize, "-", ToXPathString(path),
                            optimize && std::string(name) == "Q4"});
    }
  }
  return in;
}

Inputs RecursiveHeight(uint64_t seed) {
  Inputs in{MakeAuctionDtd(), {}, {}, {}, {}, {}};
  in.policies.push_back(
      {"bidder", Must(MakeBidderSpec(in.dtd), "bidder spec").ToString()});
  in.policies.push_back(
      {"auditor", Must(MakeAuditorSpec(in.dtd), "auditor spec").ToString()});
  // Documents of different heights: the description/parlist recursion
  // depth bounds each one's height, and each height is its own unfolding.
  // At 0.1 MB each the three stay cache-resident (see Table1Scan).
  for (int i = 0; i < 3; ++i) {
    GeneratorOptions options = AuctionGeneratorOptions(seed + i, 100'000);
    options.max_depth = 10 + 2 * i;
    in.docs.push_back(
        Must(GenerateDocument(in.dtd, options), "auction document"));
  }
  const std::vector<std::pair<std::string, std::string>> mix = {
      {"bidder", "//description"},
      {"bidder", "//listitem//text"},
      {"bidder", "//open_auction//text"},
      {"bidder", "//parlist/listitem/description"},
      {"bidder", "//item-desc//listitem"},
      {"bidder", "//description[parlist]"},
      {"bidder", "//bid/bidder"},
      {"auditor", "//description"},
      {"auditor", "//closed_auction/price"},
      {"auditor", "//bid/amount"},
      {"auditor", "//closed-item//text"},
      {"auditor", "//listitem[description/text]"},
  };
  for (int copy = 0; copy < 20; ++copy) {
    for (const auto& [policy, query] : mix) {
      for (int d = 0; d < static_cast<int>(in.docs.size()); ++d) {
        in.requests.push_back({policy, d, true, "-", query});
      }
    }
  }
  Rng rng(seed * 2 + 1);
  Shuffle(in.requests, rng);
  std::set<std::tuple<std::string, std::string, int>> warmed;
  for (const Request& r : in.requests) {
    if (warmed.insert({r.policy, r.query, r.doc}).second) {
      in.warmup.push_back(r);
    }
  }
  return in;
}

int Main(int argc, char** argv) {
  std::string workload, out;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--out") {
      out = argv[i + 1];
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (workload.empty() || out.empty() || !have_seed) {
    Die("usage: perfbench_gen --workload NAME --seed N --out DIR");
  }
  Inputs in;
  if (workload == "serve_hot") {
    in = ServeHot(seed);
  } else if (workload == "table1_scan") {
    in = Table1Scan(seed);
  } else if (workload == "prepare_cold") {
    in = PrepareCold(seed);
  } else if (workload == "recursive_height") {
    in = RecursiveHeight(seed);
  } else {
    Die("unknown workload " + workload);
  }
  CheckRoundTrip(in);

  // Write into a sibling directory and rename, so a reader never sees a
  // half-written input set.
  namespace fs = std::filesystem;
  fs::path final_dir(out);
  fs::path tmp = final_dir;
  tmp += ".tmp";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  WriteFile(tmp / "dtd.txt", in.dtd.ToString());
  std::string manifest;
  for (const auto& [name, spec] : in.policies) {
    WriteFile(tmp / ("policy." + name + ".spec"), spec);
    manifest += "policy\t" + name + "\tpolicy." + name + ".spec\n";
  }
  for (size_t i = 0; i < in.docs.size(); ++i) {
    std::string file = "doc." + std::to_string(i) + ".xml";
    WriteFile(tmp / file, ToXmlString(in.docs[i]));
    manifest += "doc\t" + file + "\n";
  }
  WriteFile(tmp / "manifest.tsv", manifest);
  WriteFile(tmp / "warmup.tsv", RequestLines(in.warmup));
  WriteFile(tmp / "requests.tsv", RequestLines(in.requests));
  WriteFile(tmp / "checked.tsv", RequestLines(in.checked, true));
  fs::remove_all(final_dir);
  fs::rename(tmp, final_dir);
  return 0;
}

}  // namespace
}  // namespace secview

int main(int argc, char** argv) { return secview::Main(argc, argv); }
