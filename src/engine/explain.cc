#include "engine/explain.h"

#include <optional>

#include "rewrite/unfold.h"
#include "xpath/parser.h"
#include "xpath/printer.h"

namespace secview {

namespace {

void AppendIndented(std::string& out, const std::string& text,
                    const char* indent) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out += indent;
    out.append(text, start, end - start);
    out += '\n';
    start = end + 1;
  }
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace

std::string QueryExplain::ToText() const {
  std::string out;
  out += "explain secview.explain.v1\n";
  out += "policy: " + (policy.empty() ? std::string("-") : policy) + "\n";
  out += "query: " + query + "\n";
  out += "view: " + std::to_string(view_types.size()) +
         " types, recursive=" + (view_recursive ? "yes" : "no") + "\n";
  if (view_recursive) {
    out += "unfold: depth=" + std::to_string(unfold_depth) +
           (depth_defaulted ? " (default)" : " (document height)") + "\n";
  }

  out += "rewrite:\n";
  out += "  dp: " + std::to_string(rewrite.dp_path_nodes) + " subqueries, " +
         std::to_string(rewrite.dp_entries) + " (subquery, view type) cells\n";
  out += "  sigma annotations fired (" +
         std::to_string(rewrite.sigma_firings.size()) + "):\n";
  for (const RewriteStats::SigmaFiring& f : rewrite.sigma_firings) {
    out += "    [rewrite/sigma] step '" + f.step + "' at '" + f.at + "' -> '" +
           f.child + "' via " + f.sigma + "\n";
  }
  out += "  prunes (" + std::to_string(rewrite.prunes.size()) + "):\n";
  for (const RewriteStats::Prune& p : rewrite.prunes) {
    out += "    [rewrite/prune] step '" + p.step + "' at '" + p.at + "': " +
           p.reason + "\n";
  }
  out += "  dp cells (" + std::to_string(rewrite.dp_cells.size()) + "):\n";
  for (const RewriteStats::DpCell& c : rewrite.dp_cells) {
    out += "    rw(" + c.subquery + ", " + c.view_type + ") -> {" +
           JoinNames(c.targets) + "}\n";
  }
  out += "rewritten query (size " + std::to_string(rewrite.output_size) +
         "):\n";
  out += "  " + rewritten_xpath + "\n";

  if (!optimize_requested) {
    out += "optimize: skipped (not requested)\n";
  } else if (!optimizer_available) {
    out += "optimize: skipped (document DTD is recursive; prunes happen at "
           "the rewrite level above)\n";
  } else {
    out += "optimize:\n";
    out += "  dp: " + std::to_string(optimize.dp_path_nodes) +
           " subqueries, " + std::to_string(optimize.dp_entries) +
           " (subquery, type) cells\n";
    out += "  counts: nonexistence=" +
           std::to_string(optimize.nonexistence_prunes) +
           " simulation_tests=" + std::to_string(optimize.simulation_tests) +
           " union=" + std::to_string(optimize.union_prunes) + "\n";
    out += "  prunes (" + std::to_string(optimize.prune_trail.size()) + "):\n";
    for (const OptimizeStats::Prune& p : optimize.prune_trail) {
      out += "    [optimize/" + p.kind + "] at '" + p.at + "': " + p.detail +
             "\n";
    }
  }

  const int final_size =
      optimize_ran() ? optimize.output_size : rewrite.output_size;
  out += "final query (size " + std::to_string(final_size) + "):\n";
  out += "  " + final_xpath + "\n";
  out += "view dtd:\n";
  AppendIndented(out, view_dtd, "  ");
  return out;
}

obs::Json QueryExplain::ToJson() const {
  obs::Json j = obs::Json::Object();
  j.Set("schema", obs::Json("secview.explain.v1"));
  j.Set("policy", policy);
  j.Set("query", query);

  obs::Json view = obs::Json::Object();
  view.Set("recursive", view_recursive);
  view.Set("num_types", static_cast<uint64_t>(view_types.size()));
  obs::Json types = obs::Json::Array();
  for (const std::string& name : view_types) types.Append(obs::Json(name));
  view.Set("types", std::move(types));
  view.Set("dtd", view_dtd);
  j.Set("view", std::move(view));

  if (view_recursive) {
    j.Set("unfold", obs::Json::Object()
                        .Set("depth", unfold_depth)
                        .Set("defaulted", depth_defaulted));
  }

  obs::Json rw = obs::Json::Object();
  rw.Set("dp_path_nodes", static_cast<uint64_t>(rewrite.dp_path_nodes));
  rw.Set("dp_entries", static_cast<uint64_t>(rewrite.dp_entries));
  rw.Set("output_size", rewrite.output_size);
  obs::Json firings = obs::Json::Array();
  for (const RewriteStats::SigmaFiring& f : rewrite.sigma_firings) {
    firings.Append(obs::Json::Object()
                       .Set("step", f.step)
                       .Set("at", f.at)
                       .Set("child", f.child)
                       .Set("sigma", f.sigma));
  }
  rw.Set("sigma_firings", std::move(firings));
  obs::Json rprunes = obs::Json::Array();
  for (const RewriteStats::Prune& p : rewrite.prunes) {
    rprunes.Append(obs::Json::Object()
                       .Set("step", p.step)
                       .Set("at", p.at)
                       .Set("reason", p.reason));
  }
  rw.Set("prunes", std::move(rprunes));
  obs::Json cells = obs::Json::Array();
  for (const RewriteStats::DpCell& c : rewrite.dp_cells) {
    obs::Json targets = obs::Json::Array();
    for (const std::string& t : c.targets) targets.Append(obs::Json(t));
    cells.Append(obs::Json::Object()
                     .Set("at", c.view_type)
                     .Set("subquery", c.subquery)
                     .Set("targets", std::move(targets)));
  }
  rw.Set("dp_cells", std::move(cells));
  j.Set("rewrite", std::move(rw));
  j.Set("rewritten", rewritten_xpath);

  obs::Json opt = obs::Json::Object();
  opt.Set("available", optimizer_available);
  opt.Set("requested", optimize_requested);
  opt.Set("ran", optimize_ran());
  if (optimize_ran()) {
    opt.Set("dp_path_nodes", static_cast<uint64_t>(optimize.dp_path_nodes));
    opt.Set("dp_entries", static_cast<uint64_t>(optimize.dp_entries));
    opt.Set("nonexistence_prunes",
            static_cast<uint64_t>(optimize.nonexistence_prunes));
    opt.Set("simulation_tests",
            static_cast<uint64_t>(optimize.simulation_tests));
    opt.Set("union_prunes", static_cast<uint64_t>(optimize.union_prunes));
    opt.Set("output_size", optimize.output_size);
    obs::Json oprunes = obs::Json::Array();
    for (const OptimizeStats::Prune& p : optimize.prune_trail) {
      oprunes.Append(obs::Json::Object()
                         .Set("kind", p.kind)
                         .Set("at", p.at)
                         .Set("detail", p.detail));
    }
    opt.Set("prunes", std::move(oprunes));
  }
  j.Set("optimize", std::move(opt));
  j.Set("final", final_xpath);
  return j;
}

Result<QueryExplain> ExplainQuery(const SecurityView& view,
                                  std::string_view query_text,
                                  const ExplainOptions& options,
                                  const QueryRewriter* rewriter,
                                  const QueryOptimizer* optimizer) {
  QueryExplain out;
  out.query = std::string(query_text);
  out.optimize_requested = options.optimize;
  SECVIEW_ASSIGN_OR_RETURN(PathPtr query, ParseXPath(query_text));

  out.view_recursive = view.IsRecursive();
  const SecurityView* effective = &view;
  std::optional<SecurityView> unfolded;
  if (out.view_recursive) {
    out.depth_defaulted = options.doc_height <= 0;
    out.unfold_depth =
        out.depth_defaulted ? kDefaultExplainUnfoldDepth : options.doc_height;
    SECVIEW_ASSIGN_OR_RETURN(SecurityView u,
                             UnfoldView(view, out.unfold_depth));
    unfolded.emplace(std::move(u));
    effective = &*unfolded;
  }
  out.view_dtd = effective->ViewDtdString();
  out.view_types.reserve(effective->NumTypes());
  for (ViewTypeId id = 0; id < effective->NumTypes(); ++id) {
    out.view_types.push_back(effective->TypeName(id));
  }

  out.rewrite.collect_explain = true;
  PathPtr rewritten;
  // Recursive views have no prepared rewriter: they are rewritten over
  // the per-depth unfolded view built above.
  if (rewriter != nullptr) {
    SECVIEW_ASSIGN_OR_RETURN(rewritten, rewriter->Rewrite(query, &out.rewrite));
  } else {
    SECVIEW_ASSIGN_OR_RETURN(QueryRewriter unfolded_rewriter,
                             QueryRewriter::Create(*effective));
    SECVIEW_ASSIGN_OR_RETURN(rewritten,
                             unfolded_rewriter.Rewrite(query, &out.rewrite));
  }
  out.rewritten_xpath = ToXPathString(rewritten);
  out.final_xpath = out.rewritten_xpath;

  out.optimizer_available = optimizer != nullptr;
  if (out.optimize_ran()) {
    out.optimize.collect_explain = true;
    SECVIEW_ASSIGN_OR_RETURN(PathPtr optimized,
                             optimizer->Optimize(rewritten, &out.optimize));
    out.final_xpath = ToXPathString(optimized);
  }
  return out;
}

}  // namespace secview
