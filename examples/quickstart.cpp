// Quickstart: summarize a graph, inspect the output, and answer queries.
//
// Usage: example_quickstart [path/to/edge_list.txt]
// Without arguments a synthetic social-network analog is generated.
//
// Walks through the whole public API surface in ~80 lines:
//   1. load or generate a graph,
//   2. run PeGaSus personalized to a few target nodes,
//   3. inspect the summary (size, compression, error),
//   4. answer neighborhood / HOP / RWR queries directly on the summary.

#include <cstdio>

#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/eval/error_eval.h"
#include "src/graph/datasets.h"
#include "src/graph/io.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"

using namespace pegasus;  // NOLINT: example brevity

int main(int argc, char** argv) {
  // 1. Obtain a graph: a real edge list if given, a synthetic analog
  //    otherwise.
  Graph graph;
  if (argc > 1) {
    auto loaded = LoadEdgeList(argv[1]);
    if (!loaded) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(*loaded);
  } else {
    graph = MakeDataset(DatasetId::kLastFmAsia, DatasetScale::kSmall).graph;
  }
  std::printf("graph: %u nodes, %llu edges (%.1f kbit)\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.SizeInBits() / 1000.0);

  // 2. Summarize with half the original bits, personalized to three target
  //    nodes (e.g. "users we care about").
  std::vector<NodeId> targets{0, 1, 2};
  PegasusConfig config;
  config.alpha = 1.25;  // degree of personalization
  config.beta = 0.1;    // adaptive-threshold quantile
  auto result = *SummarizeGraphToRatio(graph, targets, /*ratio=*/0.5, config);
  const SummaryGraph& summary = result.summary;

  std::printf("summary: %u supernodes, %llu superedges (%.1f kbit, %.0f%% of "
              "input) in %.2fs\n",
              summary.num_supernodes(),
              static_cast<unsigned long long>(summary.num_superedges()),
              summary.SizeInBits() / 1000.0,
              100.0 * CompressionRatio(graph, summary),
              result.elapsed_seconds);

  // 3. How much information was lost, and where?
  auto weights = PersonalWeights::Compute(graph, targets, config.alpha);
  std::printf("personalized error (Eq. 1): %.1f\n",
              PersonalizedError(graph, summary, weights));
  std::printf("uniform reconstruction error: %.1f flipped matrix entries\n",
              ReconstructionError(graph, summary));

  // 4. Answer queries directly on the summary -- no reconstruction needed.
  // A SummaryView is the summary's query form: build it once, then answer
  // any number of queries from it.
  const SummaryView view(summary);
  const NodeId q = targets[0];
  auto approx_neighbors = SummaryNeighbors(view, q);
  std::printf("node %u: %zu approximate neighbors (true degree %llu)\n", q,
              approx_neighbors.size(),
              static_cast<unsigned long long>(graph.degree(q)));

  auto approx_hops = FastSummaryHopDistances(view, q);
  auto exact_hops = ExactHopDistances(graph, q);
  size_t exact_matches = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    exact_matches += (approx_hops[u] == exact_hops[u]);
  }
  std::printf("HOP query at %u: %.1f%% of distances exact\n", q,
              100.0 * exact_matches / graph.num_nodes());

  auto approx_rwr = SummaryRwrScores(view, q);
  auto exact_rwr = ExactRwrScores(graph, q);
  // Report the rank of the true top-10 under the approximate scores.
  std::printf("RWR query at %u: approx score of q = %.4g (exact %.4g)\n", q,
              approx_rwr[q], exact_rwr[q]);
  return 0;
}
