// Uniform neighborhood-query interface over input graphs and summaries.
//
// Appendix A's central observation is that a wide range of graph
// algorithms (BFS, DFS, Dijkstra, PageRank, ...) access a graph *only*
// through the neighborhood query, and therefore run unchanged on a summary
// graph. This header makes that concrete: `GraphNeighborhoodView` and
// `SummaryNeighborhoodView` expose the same duck-typed interface
// (num_nodes() / ForEachNeighbor(u, fn)), and the generic algorithms below
// are templates over any view. The summary view enumerates the approximate
// neighbors of Alg. 4 lazily — members of supernodes adjacent to S_u —
// without materializing neighbor vectors.

#ifndef PEGASUS_QUERY_GRAPH_VIEW_H_
#define PEGASUS_QUERY_GRAPH_VIEW_H_

#include <vector>

#include "src/core/summary_graph.h"
#include "src/graph/bfs.h"
#include "src/graph/graph.h"

namespace pegasus {

// View over a plain input graph.
class GraphNeighborhoodView {
 public:
  explicit GraphNeighborhoodView(const Graph& graph) : graph_(graph) {}

  NodeId num_nodes() const { return graph_.num_nodes(); }

  template <typename Fn>
  void ForEachNeighbor(NodeId u, Fn&& fn) const {
    for (NodeId v : graph_.neighbors(u)) fn(v);
  }

 private:
  const Graph& graph_;
};

// View over a summary graph: neighbors of u in Ĝ per Alg. 4.
class SummaryNeighborhoodView {
 public:
  explicit SummaryNeighborhoodView(const SummaryGraph& summary)
      : summary_(summary) {}

  NodeId num_nodes() const { return summary_.num_nodes(); }

  // Enumeration order is canonical (ascending neighbor supernode id, then
  // member order), so order-sensitive algorithms over the view — DFS
  // preorder in particular — are fixed by the data alone.
  template <typename Fn>
  void ForEachNeighbor(NodeId u, Fn&& fn) const {
    const SupernodeId a = summary_.supernode_of(u);
    for (const auto& [b, w] : summary_.superedges(a)) {
      (void)w;
      for (NodeId v : summary_.members(b)) {
        if (v != u) fn(v);
      }
    }
  }

 private:
  const SummaryGraph& summary_;
};

// --- Generic neighborhood-query algorithms --------------------------------

// BFS hop distances from `source` over any view.
template <typename View>
std::vector<uint32_t> ViewBfsDistances(const View& view, NodeId source) {
  std::vector<uint32_t> dist(view.num_nodes(), kUnreachable);
  std::vector<NodeId> frontier{source};
  dist[source] = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    next.clear();
    for (NodeId u : frontier) {
      view.ForEachNeighbor(u, [&](NodeId v) {
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          next.push_back(v);
        }
      });
    }
    frontier.swap(next);
  }
  return dist;
}

// Iterative DFS preorder from `source` over any view (neighbor order is
// the view's enumeration order).
template <typename View>
std::vector<NodeId> ViewDfsPreorder(const View& view, NodeId source) {
  std::vector<NodeId> order;
  std::vector<uint8_t> seen(view.num_nodes(), 0);
  std::vector<NodeId> stack{source};
  seen[source] = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    order.push_back(u);
    // Collect then push in reverse so enumeration order is respected.
    std::vector<NodeId> children;
    view.ForEachNeighbor(u, [&](NodeId v) {
      if (!seen[v]) {
        seen[v] = 1;
        children.push_back(v);
      }
    });
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return order;
}

// Connected components over any view (labels dense, 0-based).
template <typename View>
std::vector<NodeId> ViewConnectedComponents(const View& view) {
  std::vector<NodeId> label(view.num_nodes(), UINT32_MAX);
  NodeId next_label = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < view.num_nodes(); ++s) {
    if (label[s] != UINT32_MAX) continue;
    const NodeId c = next_label++;
    label[s] = c;
    stack.push_back(s);
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      view.ForEachNeighbor(u, [&](NodeId v) {
        if (label[v] == UINT32_MAX) {
          label[v] = c;
          stack.push_back(v);
        }
      });
    }
  }
  return label;
}

// Degree vector over any view.
template <typename View>
std::vector<uint64_t> ViewDegrees(const View& view) {
  std::vector<uint64_t> deg(view.num_nodes(), 0);
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    view.ForEachNeighbor(u, [&](NodeId) { ++deg[u]; });
  }
  return deg;
}

}  // namespace pegasus

#endif  // PEGASUS_QUERY_GRAPH_VIEW_H_
