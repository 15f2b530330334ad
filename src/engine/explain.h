#ifndef SECVIEW_ENGINE_EXPLAIN_H_
#define SECVIEW_ENGINE_EXPLAIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/json.h"
#include "optimize/optimizer.h"
#include "rewrite/rewriter.h"
#include "security/security_view.h"

namespace secview {

/// Unfolding depth used by EXPLAIN for recursive views when the caller
/// does not supply a document height: deep enough to show the per-level
/// structure, small enough to keep the plan readable.
inline constexpr int kDefaultExplainUnfoldDepth = 4;

struct ExplainOptions {
  /// Also run (and explain) the DTD-based optimizer. Silently skipped —
  /// and reported as skipped — when the document DTD is recursive.
  bool optimize = true;
  /// Height of the target document, selecting the unfolding depth for
  /// recursive views; <= 0 picks kDefaultExplainUnfoldDepth. Ignored for
  /// non-recursive views.
  int doc_height = 0;
};

/// The rewrite decision trail for one query against one policy, without
/// evaluating anything: the (unfolded) view the query was rewritten
/// over, which σ annotations fired at which steps, which sub-queries
/// were pruned and why (at the rewrite level and, for non-recursive
/// DTDs, the optimizer level), and the resulting document queries.
///
/// Deliberately deterministic — no timestamps, durations, or pointers —
/// so the same engine state explains the same query byte-identically
/// (explain_test.cc relies on this).
struct QueryExplain {
  /// Policy name, set by SecureQueryEngine::Explain.
  std::string policy;
  std::string query;

  bool view_recursive = false;
  /// Unfolding depth used (0 for non-recursive views).
  int unfold_depth = 0;
  /// True when unfold_depth fell back to kDefaultExplainUnfoldDepth.
  bool depth_defaulted = false;

  /// Type names of the (unfolded) view, in view-type-id order.
  std::vector<std::string> view_types;
  /// The (unfolded) view DTD as published to users.
  std::string view_dtd;

  /// Rewrite DP sizes plus the full decision trail (collect_explain).
  RewriteStats rewrite;
  std::string rewritten_xpath;

  bool optimizer_available = false;
  bool optimize_requested = true;
  /// Meaningful iff optimize_ran().
  OptimizeStats optimize;
  /// The query that would be evaluated (== rewritten_xpath when the
  /// optimizer did not run).
  std::string final_xpath;

  bool optimize_ran() const { return optimize_requested && optimizer_available; }

  /// Indented text plan (the `secview explain` default rendering).
  std::string ToText() const;
  /// The secview.explain.v1 document.
  obs::Json ToJson() const;
};

/// Explains how `query_text` would be enforced against `view`: parses,
/// unfolds recursive views, rewrites with the trail enabled, and
/// optionally optimizes. Nothing is evaluated and no engine cache is
/// touched. SecureQueryEngine::Explain is the caller: it passes the very
/// objects its Prepare path runs with, so EXPLAIN describes what Execute
/// does. `rewriter` is the policy's prepared rewriter, null for
/// recursive views (those are rewritten over a per-depth unfolding built
/// here). `optimizer` is the engine's, null when the document DTD is
/// recursive; its presence defines optimizer availability. Both are
/// const and stateless per call, so explaining while serving is safe.
Result<QueryExplain> ExplainQuery(const SecurityView& view,
                                  std::string_view query_text,
                                  const ExplainOptions& options,
                                  const QueryRewriter* rewriter,
                                  const QueryOptimizer* optimizer);

}  // namespace secview

#endif  // SECVIEW_ENGINE_EXPLAIN_H_
