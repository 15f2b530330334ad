#include "optimize/image_graph.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>

namespace secview {

namespace {

/// Type-level reachability of a path over the DTD graph, ignoring
/// qualifiers (image emptiness only depends on reachable structure).
/// Memoized per (sub-path, type): the paths asked about must outlive the
/// object, which is why one lives only as long as one image build.
class TypeReach {
 public:
  explicit TypeReach(const DtdGraph& graph) : graph_(graph) {}

  /// The types reached from `t` via `p`, sorted and distinct.
  const std::vector<TypeId>& Reach(const PathExpr& p, TypeId t) {
    auto [it, inserted] = memo_.try_emplace({&p, t});
    // References into the map stay valid while the recursion below
    // inserts more entries.
    std::vector<TypeId>& out = it->second;
    if (!inserted) return out;
    switch (p.kind) {
      case PathKind::kEmptySet:
        break;
      case PathKind::kEpsilon:
        out.push_back(t);
        break;
      case PathKind::kLabel: {
        TypeId c = graph_.dtd().FindType(p.label);
        if (c != kNullType && graph_.dtd().HasChild(t, c)) out.push_back(c);
        break;
      }
      case PathKind::kWildcard:
        out = graph_.Children(t);
        break;
      case PathKind::kSlash:
        for (TypeId m : Reach(*p.left, t)) {
          const std::vector<TypeId>& right = Reach(*p.right, m);
          out.insert(out.end(), right.begin(), right.end());
        }
        break;
      case PathKind::kDescOrSelf:
        for (TypeId b : graph_.DescendantsOrSelf(t)) {
          const std::vector<TypeId>& inner = Reach(*p.left, b);
          out.insert(out.end(), inner.begin(), inner.end());
        }
        break;
      case PathKind::kUnion: {
        const std::vector<TypeId>& left = Reach(*p.left, t);
        const std::vector<TypeId>& right = Reach(*p.right, t);
        out.insert(out.end(), left.begin(), left.end());
        out.insert(out.end(), right.begin(), right.end());
        break;
      }
      case PathKind::kQualified:
        // Qualifiers do not affect structural reachability (a constant
        // false qualifier is folded upstream).
        out = Reach(*p.left, t);
        break;
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

 private:
  struct KeyHash {
    size_t operator()(const std::pair<const PathExpr*, TypeId>& key) const {
      return std::hash<const PathExpr*>()(key.first) * 31 +
             static_cast<size_t>(key.second);
    }
  };

  const DtdGraph& graph_;
  std::unordered_map<std::pair<const PathExpr*, TypeId>, std::vector<TypeId>,
                     KeyHash>
      memo_;
};

/// Builds one image graph. Frontier lists live in scratch vectors that
/// are recycled for the whole build instead of being allocated per step.
class Builder {
 public:
  explicit Builder(const DtdGraph& graph)
      : graph_(graph), type_reach_(graph) {
    // Room for a typical image (the nurse policy's random queries
    // average 27 nodes) without regrowing.
    g_.nodes.reserve(32);
    epochs_.reserve(32);
  }

  ImageGraph BuildPath(const PathPtr& p, TypeId a) {
    int root = NewNode(a);
    g_.root = root;
    Build(*p, {&root, 1}, g_.frontier);
    if (g_.frontier.empty()) {
      // p reaches nothing from A: the image is empty.
      g_ = ImageGraph{};
    }
    for (int n : g_.frontier) g_.nodes[n].is_frontier = true;
    return std::move(g_);
  }

  ImageGraph BuildQual(const QualPtr& q, TypeId a) {
    // A wrapper node labeled A carrying the qualifier as '[]' children;
    // comparing two such wrappers with the simulation relation tests
    // qualifier implication directly (the '[]' direction flip).
    int root = NewNode(a);
    g_.root = root;
    AttachQual(*q, root);
    g_.frontier.clear();
    return std::move(g_);
  }

 private:
  int NewNode(int label) {
    ImageGraph::Node node;
    node.label = label;
    g_.nodes.push_back(std::move(node));
    epochs_.push_back(epoch_);
    return static_cast<int>(g_.nodes.size() - 1);
  }

  /// Child of `parent` with DTD type `type`: reuses a same-epoch,
  /// qualifier-free existing child (layer merging), otherwise creates one.
  int GetChild(int parent, TypeId type) {
    for (int c : g_.nodes[parent].children) {
      if (g_.nodes[c].label == type && epochs_[c] == epoch_ &&
          g_.nodes[c].qual_children.empty()) {
        return c;
      }
    }
    int child = NewNode(type);
    g_.nodes[parent].children.push_back(child);
    return child;
  }

  /// A cleared vector from the recycled pool.
  std::vector<int> Acquire() {
    if (pool_.empty()) return {};
    std::vector<int> v = std::move(pool_.back());
    pool_.pop_back();
    v.clear();
    return v;
  }

  void Release(std::vector<int> v) { pool_.push_back(std::move(v)); }

  /// Drops repeats from out[start..], keeping first occurrences in order.
  void Dedup(std::vector<int>& out, size_t start) {
    if (out.size() - start < 2) return;
    seen_.resize(g_.nodes.size(), 0);
    ++stamp_;
    size_t kept = start;
    for (size_t k = start; k < out.size(); ++k) {
      int n = out[k];
      if (seen_[n] == stamp_) continue;
      seen_[n] = stamp_;
      out[kept++] = n;
    }
    out.resize(kept);
  }

  /// Builds the image of `p` starting from the graph nodes `ctx` and
  /// appends its frontier to `out` (deduplicated, order of first reach).
  /// `ctx` must not point into `out`.
  void Build(const PathExpr& p, std::span<const int> ctx,
             std::vector<int>& out) {
    const size_t start = out.size();
    switch (p.kind) {
      case PathKind::kEmptySet:
        break;
      case PathKind::kEpsilon:
        out.insert(out.end(), ctx.begin(), ctx.end());
        break;
      case PathKind::kLabel: {
        TypeId c = graph_.dtd().FindType(p.label);
        if (c == kNullType) break;
        for (int n : ctx) {
          if (graph_.dtd().HasChild(g_.nodes[n].label, c)) {
            out.push_back(GetChild(n, c));
          }
        }
        break;
      }
      case PathKind::kWildcard:
        for (int n : ctx) {
          for (TypeId c : graph_.Children(g_.nodes[n].label)) {
            out.push_back(GetChild(n, c));
          }
        }
        break;
      case PathKind::kSlash: {
        // ((s1/s2)/...)/sk is built step by step along its left spine,
        // so a long label path does not recurse once per step.
        const size_t base = spine_.size();
        const PathExpr* first = &p;
        while (first->kind == PathKind::kSlash) {
          spine_.push_back(first->right.get());  // sk, ..., s2
          first = first->left.get();
        }
        std::vector<int> cur = Acquire();
        Build(*first, ctx, cur);
        for (size_t k = spine_.size() - 1; k > base; --k) {
          std::vector<int> next = Acquire();
          Build(*spine_[k], cur, next);
          Release(std::move(cur));
          cur = std::move(next);
        }
        Build(*spine_[base], cur, out);
        Release(std::move(cur));
        spine_.resize(base);
        break;
      }
      case PathKind::kDescOrSelf:
        for (int n : ctx) BuildDescLayer(n, *p.left, out);
        break;
      case PathKind::kUnion: {
        // Distinct epochs per branch: nodes from different branches are
        // never merged, so branch-local qualifiers stay branch-local.
        int saved = epoch_;
        epoch_ = ++epoch_counter_;
        Build(*p.left, ctx, out);
        epoch_ = ++epoch_counter_;
        Build(*p.right, ctx, out);
        epoch_ = saved;
        break;
      }
      case PathKind::kQualified: {
        // Normalized input has qualifiers on epsilon steps only, but a
        // general p[q] is handled by qualifying p's frontier.
        Build(*p.left, ctx, out);
        for (size_t k = start; k < out.size(); ++k) {
          AttachQual(*p.qualifier, out[k]);
        }
        break;
      }
    }
    Dedup(out, start);
  }

  /// The '//' layer below node `n`: the sub-DAG of DTD types between
  /// n's type and every descendant-or-self B where `inner` reaches
  /// something, followed by the image of `inner` grafted at those B's,
  /// appended to `out`.
  void BuildDescLayer(int n, const PathExpr& inner, std::vector<int>& out) {
    const TypeId t = g_.nodes[n].label;
    const std::vector<TypeId>& below = graph_.DescendantsOrSelf(t);
    // Relevant endpoints: B in descOrSelf(t) with non-empty inner image.
    std::vector<int> endpoints = Acquire();
    for (TypeId b : below) {
      if (!type_reach_.Reach(inner, b).empty()) endpoints.push_back(b);
    }
    if (endpoints.empty()) {
      Release(std::move(endpoints));
      return;
    }

    // Path subgraph: types on some path t ->* B, t first.
    std::vector<int> layer = Acquire();
    for (TypeId x : below) {
      for (TypeId b : endpoints) {
        if (graph_.Reachable(x, b)) {
          layer.push_back(x);
          break;
        }
      }
    }

    // Instantiate one node per type in this layer (below n), wiring DTD
    // edges inside the subgraph. n itself represents type t.
    if (instance_.empty()) instance_.assign(graph_.dtd().NumTypes(), -1);
    for (TypeId x : layer) instance_[x] = x == t ? n : NewNode(x);
    for (TypeId x : layer) {
      std::vector<int>& children = g_.nodes[instance_[x]].children;
      for (TypeId c : graph_.Children(x)) {
        int child = instance_[c];
        if (child == -1) continue;
        if (std::find(children.begin(), children.end(), child) ==
            children.end()) {
          children.push_back(child);
        }
      }
    }

    // The endpoints' instances are the context of `inner`. Clear the
    // instance table first: `inner` may open '//' layers of its own.
    for (int& b : endpoints) b = instance_[b];
    for (TypeId x : layer) instance_[x] = -1;
    Release(std::move(layer));
    Build(inner, endpoints, out);
    Release(std::move(endpoints));
  }

  /// Attaches the qualifier structure to node `n` as '[]' children, one
  /// per conjunct. Disjunction/negation have no sound structural image;
  /// they are folded upstream where possible and otherwise skipped, which
  /// is conservative for the G2 (container) side and marks the graph
  /// imprecise for the G1 side via `has_opaque_qual`.
  void AttachQual(const Qualifier& q, int n) {
    if (epochs_[n] != epoch_ && !g_.nodes[n].qual_children.empty()) {
      // Attaching to a node shared with another union branch would turn
      // branch-disjoint qualifiers into a conjunction.
      g_.imprecise = true;
    }
    switch (q.kind) {
      case QualKind::kTrue:
        return;
      case QualKind::kFalse:
        // Folded upstream; structurally treated as opaque.
        g_.imprecise = true;
        return;
      case QualKind::kAnd:
        AttachQual(*q.left, n);
        AttachQual(*q.right, n);
        return;
      case QualKind::kPath:
      case QualKind::kPathEqConst: {
        // The '[]' node stands for the context node, so it keeps the
        // context's DTD type as its label (needed both to build the
        // qualifier path below it and to align '[]' comparisons during
        // simulation); is_qual distinguishes it from ordinary nodes.
        int qual = NewNode(g_.nodes[n].label);
        g_.nodes[qual].is_qual = true;
        if (q.kind == QualKind::kPathEqConst) {
          g_.nodes[qual].tag = (q.is_param ? "$" : "=") + q.constant;
        }
        std::vector<int> frontier = Acquire();
        Build(*q.path, {&qual, 1}, frontier);
        Release(std::move(frontier));
        g_.nodes[n].qual_children.push_back(qual);
        return;
      }
      case QualKind::kOr:
      case QualKind::kNot:
      case QualKind::kAttrEq:
      case QualKind::kAttrExists:
        // No sound structural representation; treated as opaque.
        g_.imprecise = true;
        return;
    }
  }

  const DtdGraph& graph_;
  TypeReach type_reach_;
  ImageGraph g_;
  std::vector<int> epochs_;
  int epoch_ = 0;
  int epoch_counter_ = 0;
  std::vector<std::vector<int>> pool_;  // recycled frontier vectors
  std::vector<const PathExpr*> spine_;  // kSlash: right steps, reversed
  std::vector<uint32_t> seen_;          // Dedup marks, by node
  uint32_t stamp_ = 0;
  std::vector<int> instance_;  // BuildDescLayer: type -> node, else -1
};

}  // namespace

std::vector<TypeId> TypeLevelReach(const DtdGraph& graph, const PathPtr& p,
                                   TypeId t) {
  return TypeReach(graph).Reach(*p, t);
}

ImageGraph BuildImageGraph(const DtdGraph& graph, const PathPtr& p, TypeId a) {
  return Builder(graph).BuildPath(p, a);
}

ImageGraph BuildQualifierImage(const DtdGraph& graph, const QualPtr& q,
                               TypeId a) {
  return Builder(graph).BuildQual(q, a);
}

std::string ToDebugString(const ImageGraph& g, const Dtd& dtd) {
  std::string out;
  if (g.empty()) return "(empty image)\n";
  for (int i = 0; i < g.size(); ++i) {
    const ImageGraph::Node& n = g.nodes[i];
    out += "#" + std::to_string(i) + " ";
    if (n.is_qual) out += "[]";
    out += dtd.TypeName(n.label);
    if (!n.tag.empty()) out += n.tag;
    if (i == g.root) out += " (root)";
    out += " ->";
    for (int c : n.children) out += " #" + std::to_string(c);
    for (int c : n.qual_children) out += " [#" + std::to_string(c) + "]";
    out += "\n";
  }
  return out;
}

}  // namespace secview
