#include "src/distributed/cluster.h"

#include <string>
#include <utility>

#include "src/query/summary_view.h"
#include "src/shard/shard_build.h"

namespace pegasus {

StatusOr<SummaryCluster> SummaryCluster::Build(
    const Graph& graph, const Partition& partition,
    double budget_bits_per_machine, const PegasusConfig& config) {
  // One build path for per-shard personalized summaries: the real sharded
  // serving stack (src/shard) and this in-process accuracy harness share
  // shard::BuildShardSummaries, so the simulated cluster can never drift
  // from what `pegasus shard-build` writes to disk.
  auto summaries = shard::BuildShardSummaries(graph, partition,
                                              budget_bits_per_machine, config);
  if (!summaries) return summaries.status();
  SummaryCluster cluster;
  cluster.partition_ = partition;
  cluster.summaries_ = std::move(*summaries);
  cluster.views_.reserve(cluster.summaries_.size());
  for (const SummaryGraph& summary : cluster.summaries_) {
    // Each machine's view is built once here and reused by every query
    // routed to that machine.
    // lint: hot-snapshot-ok(one view per machine, at build time only)
    cluster.views_.push_back(std::make_shared<const SummaryView>(summary));
  }
  return cluster;
}

double SummaryCluster::TotalBits() const {
  double total = 0.0;
  for (const SummaryGraph& s : summaries_) total += s.SizeInBits();
  return total;
}

std::vector<uint32_t> SummaryCluster::AnswerHop(NodeId q) const {
  return FastSummaryHopDistances(*views_[MachineOf(q)], q);
}

std::vector<double> SummaryCluster::AnswerRwr(
    NodeId q, double restart_prob, const IterativeQueryOptions& opts) const {
  return SummaryRwrScores(*views_[MachineOf(q)], q, restart_prob,
                          /*weighted=*/true, opts);
}

std::vector<double> SummaryCluster::AnswerPhp(
    NodeId q, double decay, const IterativeQueryOptions& opts) const {
  return SummaryPhpScores(*views_[MachineOf(q)], q, decay,
                          /*weighted=*/true, opts);
}

}  // namespace pegasus
