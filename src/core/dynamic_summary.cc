#include "src/core/dynamic_summary.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/graph/graph_builder.h"
#include "src/query/summary_view.h"

namespace pegasus {

namespace {
Edge Canonical(NodeId u, NodeId v) {
  return u < v ? Edge{u, v} : Edge{v, u};
}
}  // namespace

DynamicSummary::DynamicSummary(Graph graph, std::vector<NodeId> targets,
                               Options options, SummaryGraph summary)
    : graph_(std::move(graph)),
      targets_(std::move(targets)),
      options_(options),
      summary_(std::move(summary)),
      view_(std::make_shared<const SummaryView>(summary_)) {}

StatusOr<DynamicSummary> DynamicSummary::Create(Graph graph,
                                                std::vector<NodeId> targets,
                                                Options options) {
  // The summarizer validates ratio/config/targets; rebuild_fraction is
  // consumed only here, so it gets its own check. Any non-negative finite
  // value is meaningful (0 rebuilds on nearly every update).
  if (!(options.rebuild_fraction >= 0.0) ||
      !std::isfinite(options.rebuild_fraction)) {
    return Status::InvalidArgument(
        "rebuild_fraction must be finite and >= 0");
  }
  auto result =
      SummarizeGraphToRatio(graph, targets, options.ratio, options.config);
  if (!result) return result.status();
  return DynamicSummary(std::move(graph), std::move(targets), options,
                        std::move(*result).summary);
}

bool DynamicSummary::AddEdge(NodeId u, NodeId v) {
  assert(u < graph_.num_nodes() && v < graph_.num_nodes());
  if (u == v) return false;
  const Edge e = Canonical(u, v);
  if (removed_.erase(e) > 0) return true;  // re-adding a deleted base edge
  if (graph_.HasEdge(e.u, e.v)) return false;
  if (!added_.insert(e).second) return false;
  MaybeRebuild();
  return true;
}

bool DynamicSummary::RemoveEdge(NodeId u, NodeId v) {
  assert(u < graph_.num_nodes() && v < graph_.num_nodes());
  if (u == v) return false;
  const Edge e = Canonical(u, v);
  if (added_.erase(e) > 0) return true;  // removing a not-yet-folded add
  if (!graph_.HasEdge(e.u, e.v)) return false;
  if (!removed_.insert(e).second) return false;
  MaybeRebuild();
  return true;
}

EdgeId DynamicSummary::num_edges() const {
  return graph_.num_edges() + added_.size() - removed_.size();
}

bool DynamicSummary::HasEdge(NodeId u, NodeId v) const {
  const Edge e = Canonical(u, v);
  if (added_.contains(e)) return true;
  if (removed_.contains(e)) return false;
  return graph_.HasEdge(e.u, e.v);
}

std::vector<NodeId> DynamicSummary::ExactNeighbors(NodeId u) const {
  std::vector<NodeId> out;
  for (NodeId v : graph_.neighbors(u)) {
    if (!removed_.contains(Canonical(u, v))) out.push_back(v);
  }
  for (const Edge& e : added_) {
    if (e.u == u) out.push_back(e.v);
    if (e.v == u) out.push_back(e.u);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> DynamicSummary::ApproximateNeighbors(NodeId u) const {
  std::vector<NodeId> base = SummaryNeighbors(*view_, u);
  std::vector<NodeId> out;
  out.reserve(base.size());
  for (NodeId v : base) {
    if (!removed_.contains(Canonical(u, v))) out.push_back(v);
  }
  for (const Edge& e : added_) {
    NodeId other = e.u == u ? e.v : (e.v == u ? e.u : u);
    if (other != u &&
        !std::binary_search(base.begin(), base.end(), other)) {
      out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void DynamicSummary::MaybeRebuild() {
  const double threshold =
      options_.rebuild_fraction * static_cast<double>(graph_.num_edges());
  if (static_cast<double>(delta_size()) > std::max(1.0, threshold)) {
    Rebuild();
  }
}

void DynamicSummary::Rebuild() {
  GraphBuilder builder(graph_.num_nodes());
  for (const Edge& e : graph_.CanonicalEdges()) {
    if (!removed_.contains(e)) builder.AddEdge(e.u, e.v);
  }
  for (const Edge& e : added_) builder.AddEdge(e.u, e.v);
  graph_ = std::move(builder).Build();
  added_.clear();
  removed_.clear();
  PegasusConfig config = options_.config;
  config.seed = SplitMix64(config.seed + 0x2545f4914f6cdd1dULL *
                                             (rebuild_count_ + 1));
  auto result = SummarizeGraphToRatio(graph_, targets_, options_.ratio,
                                      config);
  // Create() validated ratio/config/targets and the node count never
  // changes, so a rebuild cannot fail; anything else is a library bug.
  assert(result.ok());
  summary_ = std::move(*result).summary;
  view_ = std::make_shared<const SummaryView>(summary_);
  ++rebuild_count_;
}

}  // namespace pegasus
