// Ego-network scenario (the paper's Fig. 1 motivation): an online social
// network is summarized twice under the same budget — once personalized to
// user u, once to user v — and we show that each summary preserves its own
// user's neighborhood far better than the other's.

#include <cstdio>

#include "src/core/pegasus.h"
#include "src/core/personal_weights.h"
#include "src/eval/error_eval.h"
#include "src/eval/metrics.h"
#include "src/graph/datasets.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"
#include "src/util/rng.h"

using namespace pegasus;  // NOLINT: example brevity

namespace {

// SMAPE of RWR answers for a query node on a given summary.
double RwrError(const Graph& graph, const SummaryView& view, NodeId q) {
  return Smape(ExactRwrScores(graph, q), SummaryRwrScores(view, q));
}

}  // namespace

int main() {
  Graph graph =
      MakeDataset(DatasetId::kLastFmAsia, DatasetScale::kSmall).graph;
  std::printf("social network: %u users, %llu friendships\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  // Two users from different corners of the network.
  Rng rng(99);
  const NodeId user_u = static_cast<NodeId>(rng.Uniform(graph.num_nodes()));
  NodeId user_v = user_u;
  while (user_v == user_u) {
    user_v = static_cast<NodeId>(rng.Uniform(graph.num_nodes()));
  }

  PegasusConfig config;
  config.alpha = 1.5;
  const double ratio = 0.35;
  auto summary_u = *SummarizeGraphToRatio(graph, {user_u}, ratio, config);
  auto summary_v = *SummarizeGraphToRatio(graph, {user_v}, ratio, config);

  const SummaryView view_u(summary_u.summary);
  const SummaryView view_v(summary_v.summary);

  std::printf("\nbudget: %.0f%% of the input bits each\n", ratio * 100);
  std::printf("\n               summary for u   summary for v\n");
  std::printf("RWR error at u      %.4f          %.4f\n",
              RwrError(graph, view_u, user_u), RwrError(graph, view_v, user_u));
  std::printf("RWR error at v      %.4f          %.4f\n",
              RwrError(graph, view_u, user_v), RwrError(graph, view_v, user_v));

  // Each summary preserves its own user's neighborhood better.
  auto w_u = PersonalWeights::Compute(graph, {user_u}, config.alpha);
  auto w_v = PersonalWeights::Compute(graph, {user_v}, config.alpha);
  std::printf("\npersonalized error (Eq. 1), weights centered on u: "
              "%.1f (for-u) vs %.1f (for-v)\n",
              PersonalizedError(graph, summary_u.summary, w_u),
              PersonalizedError(graph, summary_v.summary, w_u));
  std::printf("personalized error (Eq. 1), weights centered on v: "
              "%.1f (for-u) vs %.1f (for-v)\n",
              PersonalizedError(graph, summary_u.summary, w_v),
              PersonalizedError(graph, summary_v.summary, w_v));
  std::printf("\nThe diagonal wins: summaries personalize (cf. Fig. 1).\n");
  return 0;
}
