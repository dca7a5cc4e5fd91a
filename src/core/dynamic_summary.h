// Dynamic-graph support: a personalized summary maintained under edge
// insertions and deletions.
//
// The paper targets static graphs and its related work points at
// incremental summarization (MoSSo, scalable dynamic summarization) as a
// separate line. This module provides the standard systems answer for
// serving workloads: the summary stays immutable while updates accumulate
// in an exact *delta* overlay (added/removed edge sets); queries consult
// summary ⊕ delta, and when the delta grows past a fraction of the budget
// the graph is re-summarized and the delta drains. This gives
//   * exact handling of every update (no drift),
//   * amortized O(tmax·|E|) maintenance like the static algorithm,
//   * bounded memory overhead (the rebuild threshold).

#ifndef PEGASUS_CORE_DYNAMIC_SUMMARY_H_
#define PEGASUS_CORE_DYNAMIC_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/core/pegasus.h"
#include "src/core/summary_graph.h"
#include "src/graph/graph.h"
#include "src/util/status.h"

namespace pegasus {

class SummaryView;

class DynamicSummary {
 public:
  struct Options {
    // Compression ratio maintained relative to the *current* graph.
    double ratio = 0.5;
    // Rebuild when delta edges exceed this fraction of current |E|.
    double rebuild_fraction = 0.05;
    PegasusConfig config;
  };

  // Builds the initial summary of `graph` personalized to `targets`.
  // Errors: kInvalidArgument for a non-finite or negative
  // rebuild_fraction, plus whatever the summarizer rejects (ratio outside
  // (0, 1], bad config, out-of-range targets). Once created, every later
  // rebuild reuses the validated inputs and cannot fail.
  [[nodiscard]] static StatusOr<DynamicSummary> Create(Graph graph,
                                         std::vector<NodeId> targets,
                                         Options options);

  // Applies an update. Returns true if the update changed the graph (i.e.,
  // the edge was actually missing/present). Node ids must be in range;
  // self-loops are rejected.
  bool AddEdge(NodeId u, NodeId v);
  bool RemoveEdge(NodeId u, NodeId v);

  // Edges currently represented (base graph ⊕ delta).
  EdgeId num_edges() const;
  NodeId num_nodes() const { return graph_.num_nodes(); }

  // True iff {u, v} is an edge under the delta overlay.
  bool HasEdge(NodeId u, NodeId v) const;

  // Exact neighbors of u under the overlay (base neighbors adjusted by
  // the delta). This is the ground-truth view.
  std::vector<NodeId> ExactNeighbors(NodeId u) const;

  // Approximate neighbors: Alg. 4 on the summary, adjusted by the exact
  // delta (additions always visible, removals always hidden).
  std::vector<NodeId> ApproximateNeighbors(NodeId u) const;

  // The current summary (of the base graph, excluding the delta).
  const SummaryGraph& summary() const { return summary_; }

  // The query view of summary(), built once per Create/Rebuild. Shared,
  // so QueryService::Publish(dynamic) serves it without a second build.
  const std::shared_ptr<const SummaryView>& view() const { return view_; }

  // Pending delta size and rebuild count (for monitoring/tests).
  size_t delta_size() const { return added_.size() + removed_.size(); }
  int rebuild_count() const { return rebuild_count_; }

  // Forces the delta to be folded into the base graph and re-summarized.
  void Rebuild();

 private:
  DynamicSummary(Graph graph, std::vector<NodeId> targets, Options options,
                 SummaryGraph summary);

  void MaybeRebuild();

  Graph graph_;  // base graph (delta not folded in)
  std::vector<NodeId> targets_;
  Options options_;
  SummaryGraph summary_;
  std::shared_ptr<const SummaryView> view_;  // of summary_
  std::set<Edge> added_;    // in overlay, not in base
  std::set<Edge> removed_;  // in base, deleted by overlay
  int rebuild_count_ = 0;
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_DYNAMIC_SUMMARY_H_
