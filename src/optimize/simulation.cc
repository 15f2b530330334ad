#include "optimize/simulation.h"

#include <cstdint>
#include <vector>

namespace secview {

namespace {

/// Can node `a` be simulated by node `b`? Labels and kinds must agree.
/// For '[]' nodes, simu(a, b) witnesses "b's constraint implies a's", so
/// an equality tag on `a` must be matched exactly by `b`, while a bare
/// existence `a` is implied by any tag on `b`. A result (frontier) node
/// can only be simulated by a result node — '//.' and '//*' share DTD
/// paths but not result sets.
bool LabelsCompatible(const ImageGraph::Node& a, const ImageGraph::Node& b) {
  if (a.label != b.label || a.is_qual != b.is_qual) return false;
  if (!(a.tag == b.tag || (a.is_qual && a.tag.empty()))) return false;
  if (a.is_frontier && !b.is_frontier) return false;
  return true;
}

/// The two mutually-recursive relations, evaluated on demand from the
/// root pair: fwd — a node of g1 simulated by a node of g2; rev — a node
/// of g2 simulated by a node of g1 (needed because '[]' children flip
/// direction). Each pair's verdict is computed at most once and kept in
/// one flat array: fwd(i, j) at i*n2 + j, rev(j, i) at n1*n2 + j*n1 + i.
class Simulation {
 public:
  Simulation(const ImageGraph& g1, const ImageGraph& g2)
      : g1_(g1),
        g2_(g2),
        verdicts_(2 * static_cast<size_t>(g1.size()) * g2.size(), kOpen) {}

  /// Is node `a` simulated by node `b`? With `forward`, `a` is a node of
  /// g1 and `b` one of g2; otherwise the roles are swapped.
  bool Simulated(bool forward, int a, int b) {
    const ImageGraph& ga = forward ? g1_ : g2_;
    const ImageGraph& gb = forward ? g2_ : g1_;
    const size_t n1 = g1_.nodes.size();
    const size_t n2 = g2_.nodes.size();
    uint8_t& verdict =
        verdicts_[forward ? a * n2 + b : n1 * n2 + a * n1 + b];
    if (verdict != kOpen) return verdict == kTrue;
    // Until this pair is decided, a cycle back to it reads "not proven".
    verdict = kFalse;
    const ImageGraph::Node& na = ga.nodes[a];
    const ImageGraph::Node& nb = gb.nodes[b];
    if (!LabelsCompatible(na, nb)) return false;
    // (2) every ordinary child of a must be simulated by some child of b.
    for (int x : na.children) {
      bool found = false;
      for (int y : nb.children) {
        if (Simulated(forward, x, y)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    // (3) every '[]' child of b must be simulated (direction flipped) by
    // some '[]' child of a.
    for (int y : nb.qual_children) {
      bool found = false;
      for (int x : na.qual_children) {
        if (Simulated(!forward, y, x)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    verdict = kTrue;
    return true;
  }

 private:
  static constexpr uint8_t kOpen = 0;
  static constexpr uint8_t kFalse = 1;
  static constexpr uint8_t kTrue = 2;

  const ImageGraph& g1_;
  const ImageGraph& g2_;
  std::vector<uint8_t> verdicts_;
};

}  // namespace

bool Simulates(const ImageGraph& g1, const ImageGraph& g2) {
  if (g1.empty()) return true;   // the empty query is contained in anything
  if (g2.empty()) return false;  // nothing non-empty fits into empty
  if (g1.imprecise || g2.imprecise) return false;  // conservative
  return Simulation(g1, g2).Simulated(true, g1.root, g2.root);
}

}  // namespace secview
