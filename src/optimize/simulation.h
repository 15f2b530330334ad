#ifndef SECVIEW_OPTIMIZE_SIMULATION_H_
#define SECVIEW_OPTIMIZE_SIMULATION_H_

#include "optimize/image_graph.h"

namespace secview {

/// The paper's qualifier-flipping graph simulation (Section 5.1):
/// node v1 (of g1) is simulated by v2 (of g2) iff
///   (1) v1 and v2 carry the same label (and, for '[]' nodes, the same
///       equality tag);
///   (2) every non-'[]' child of v1 is simulated by some child of v2; and
///   (3) every '[]' child y of v2 is simulated — with the roles of the
///       two graphs swapped — by some '[]' child x of v1 (i.e., the
///       qualifier structure demanded by g2 is present in g1).
///
/// Returns true iff g1's root is simulated by g2's root. Conservative on
/// graphs marked `imprecise` (returns false) — see ImageGraph.
///
/// Precondition: both graphs are acyclic. Image graphs are: they are
/// built only over non-recursive DTDs, every ordinary child edge moves to
/// a DTD child type, and every '[]' edge moves to a freshly created node.
/// Every pair of nodes then depends only on pairs strictly below it, so
/// the relation has exactly one fixpoint, and one demand-driven pass from
/// the root pair computes it: each (g1 node, g2 node) pair is decided at
/// most once per direction, O(|E1|*|E2|) child-pair checks in all. A pair
/// reached again while it is still being decided (possible only on a
/// hand-built cyclic graph) counts as not simulated, which keeps the
/// answer sound.
///
/// Soundness (Proposition 5.1): if image(p1, A) is simulated by
/// image(p2, A) then p1 is contained in p2 at A. The converse may fail;
/// the test is approximate.
bool Simulates(const ImageGraph& g1, const ImageGraph& g2);

}  // namespace secview

#endif  // SECVIEW_OPTIMIZE_SIMULATION_H_
