#include "dtd/graph.h"

#include <cassert>
#include <deque>

namespace secview {

DtdGraph::DtdGraph(const Dtd& dtd) : dtd_(&dtd) {
  assert(dtd.finalized() && "DtdGraph requires a finalized Dtd");
  const int n = dtd.NumTypes();
  children_.resize(n);
  parents_.resize(n);
  for (TypeId id = 0; id < n; ++id) {
    children_[id] = dtd.ChildTypes(id);
    for (TypeId c : children_[id]) parents_[c].push_back(id);
  }
  ComputeCycles();
  ComputeReachability();
}

void DtdGraph::ComputeCycles() {
  // Tarjan-style SCC via iterative DFS; a type is "on a cycle" if its SCC
  // has size > 1 or it has a self-loop.
  const int n = dtd_->NumTypes();
  on_cycle_.assign(n, false);
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<TypeId> stack;
  int next_index = 0;

  struct Frame {
    TypeId v;
    size_t child = 0;
  };
  for (TypeId start = 0; start < n; ++start) {
    if (index[start] != -1) continue;
    std::vector<Frame> frames{{start}};
    index[start] = low[start] = next_index++;
    stack.push_back(start);
    on_stack[start] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < children_[f.v].size()) {
        TypeId w = children_[f.v][f.child++];
        if (index[w] == -1) {
          index[w] = low[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w});
        } else if (on_stack[w]) {
          low[f.v] = std::min(low[f.v], index[w]);
        }
      } else {
        if (low[f.v] == index[f.v]) {
          // Root of an SCC: pop it.
          std::vector<TypeId> scc;
          while (true) {
            TypeId w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);
            if (w == f.v) break;
          }
          bool cyclic = scc.size() > 1;
          if (!cyclic) {
            for (TypeId c : children_[scc[0]]) {
              if (c == scc[0]) cyclic = true;  // self-loop
            }
          }
          if (cyclic) {
            recursive_ = true;
            for (TypeId w : scc) on_cycle_[w] = true;
          }
        }
        TypeId v = f.v;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
      }
    }
  }

  if (!recursive_) {
    // Kahn's algorithm for a topological order.
    std::vector<int> indeg(n, 0);
    for (TypeId v = 0; v < n; ++v) {
      for (TypeId c : children_[v]) ++indeg[c];
    }
    std::deque<TypeId> queue;
    for (TypeId v = 0; v < n; ++v) {
      if (indeg[v] == 0) queue.push_back(v);
    }
    while (!queue.empty()) {
      TypeId v = queue.front();
      queue.pop_front();
      topo_.push_back(v);
      for (TypeId c : children_[v]) {
        if (--indeg[c] == 0) queue.push_back(c);
      }
    }
    assert(static_cast<int>(topo_.size()) == n);
  }
}

void DtdGraph::ComputeReachability() {
  const int n = dtd_->NumTypes();
  reach_.assign(n, std::vector<bool>(n, false));
  for (TypeId v = 0; v < n; ++v) {
    // BFS from v.
    std::deque<TypeId> queue;
    for (TypeId c : children_[v]) {
      if (!reach_[v][c]) {
        reach_[v][c] = true;
        queue.push_back(c);
      }
    }
    while (!queue.empty()) {
      TypeId u = queue.front();
      queue.pop_front();
      for (TypeId c : children_[u]) {
        if (!reach_[v][c]) {
          reach_[v][c] = true;
          queue.push_back(c);
        }
      }
    }
  }
  desc_or_self_.resize(n);
  for (TypeId v = 0; v < n; ++v) {
    desc_or_self_[v].push_back(v);
    for (TypeId u = 0; u < n; ++u) {
      if (u != v && reach_[v][u]) desc_or_self_[v].push_back(u);
    }
  }
}

bool DtdGraph::ReachableStrict(TypeId from, TypeId to) const {
  return reach_[from][to];
}

std::vector<TypeId> DtdGraph::UnreachableFromRoot() const {
  std::vector<TypeId> out;
  TypeId r = dtd_->root();
  for (TypeId v = 0; v < dtd_->NumTypes(); ++v) {
    if (v != r && !reach_[r][v]) out.push_back(v);
  }
  return out;
}

}  // namespace secview
