// "Communication-free" distributed multi-query answering (Sec. IV, Alg. 3).
//
// A simulated cluster of m machines, each holding one summary graph of the
// whole input personalized to its shard of nodes. A query on node q is
// routed to the machine whose shard contains q and answered there without
// any inter-machine communication. This is the paper's flagship
// application of PeGaSus: because machine i's summary is personalized to
// V_i, queries on V_i's nodes stay accurate even at small budgets.
//
// This class is the IN-PROCESS accuracy harness (it feeds
// src/distributed/experiment.h and the Fig. 12 bench). The production
// sharded serving stack — on-disk builds, socket workers, a
// scatter-gather coordinator — lives in src/shard and shares the same
// build path (shard::BuildShardSummaries), so both stacks produce
// identical per-machine summaries for a given (graph, partition, budget,
// config). New serving code should target src/shard; see
// docs/ARCHITECTURE.md ("Sharded serving").

#ifndef PEGASUS_DISTRIBUTED_CLUSTER_H_
#define PEGASUS_DISTRIBUTED_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/pegasus.h"
#include "src/core/summary_graph.h"
#include "src/graph/graph.h"
#include "src/partition/partition.h"
#include "src/query/exact_queries.h"
#include "src/util/status.h"

namespace pegasus {

class SummaryView;

class SummaryCluster {
 public:
  // Builds one personalized summary per part: machine i gets
  // PeGaSus(graph, k = budget_bits_per_machine, T = V_i) (Alg. 3 lines
  // 1-4). `config.alpha` etc. apply to every machine. Errors:
  // kInvalidArgument when the partition does not cover the graph's nodes,
  // plus whatever the summarizer rejects (bad budget/config), prefixed
  // with the offending machine.
  [[nodiscard]] static StatusOr<SummaryCluster> Build(const Graph& graph,
                                        const Partition& partition,
                                        double budget_bits_per_machine,
                                        const PegasusConfig& config = {});

  uint32_t num_machines() const {
    return static_cast<uint32_t>(summaries_.size());
  }

  // Machine responsible for queries on q (Alg. 3 lines 6-7).
  uint32_t MachineOf(NodeId q) const { return partition_.part_of[q]; }

  const SummaryGraph& summary(uint32_t machine) const {
    return summaries_[machine];
  }

  // Total bits held across machines (weighted encoding, as stored).
  double TotalBits() const;

  // Query answering, routed to the responsible machine and answered from
  // the view Build() made of its summary.
  std::vector<uint32_t> AnswerHop(NodeId q) const;
  std::vector<double> AnswerRwr(NodeId q, double restart_prob = 0.05,
                                const IterativeQueryOptions& opts = {}) const;
  std::vector<double> AnswerPhp(NodeId q, double decay = 0.95,
                                const IterativeQueryOptions& opts = {}) const;

 private:
  Partition partition_;
  std::vector<SummaryGraph> summaries_;
  std::vector<std::shared_ptr<const SummaryView>> views_;  // one per machine
};

}  // namespace pegasus

#endif  // PEGASUS_DISTRIBUTED_CLUSTER_H_
