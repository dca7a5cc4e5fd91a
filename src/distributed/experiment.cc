#include "src/distributed/experiment.h"

#include "src/eval/metrics.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"

namespace pegasus {

namespace {

std::vector<double> ExactAnswer(const Graph& graph, NodeId q,
                                QueryType type) {
  switch (type) {
    case QueryType::kRwr:
      return ExactRwrScores(graph, q);
    case QueryType::kHop:
      return HopVectorForScoring(ExactHopDistances(graph, q));
    case QueryType::kPhp:
      return ExactPhpScores(graph, q);
  }
  return {};
}

template <typename AnswerFn>
AccuracyResult Measure(const Graph& graph, const std::vector<NodeId>& queries,
                       QueryType type, const GroundTruth* truth,
                       AnswerFn&& answer) {
  AccuracyResult total;
  if (queries.empty()) return total;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::vector<double> local =
        truth ? std::vector<double>() : ExactAnswer(graph, queries[i], type);
    const std::vector<double>& expected = truth ? (*truth)[i] : local;
    const std::vector<double> approx = answer(queries[i]);
    total.smape += Smape(expected, approx);
    total.spearman += SpearmanCorrelation(expected, approx);
  }
  total.smape /= static_cast<double>(queries.size());
  total.spearman /= static_cast<double>(queries.size());
  return total;
}

}  // namespace

GroundTruth ComputeGroundTruth(const Graph& graph,
                               const std::vector<NodeId>& queries,
                               QueryType type) {
  GroundTruth truth;
  truth.reserve(queries.size());
  for (NodeId q : queries) truth.push_back(ExactAnswer(graph, q, type));
  return truth;
}

AccuracyResult MeasureClusterAccuracy(const Graph& graph,
                                      const SummaryCluster& cluster,
                                      const std::vector<NodeId>& queries,
                                      QueryType type,
                                      const GroundTruth* truth) {
  return Measure(graph, queries, type, truth, [&](NodeId q) {
    switch (type) {
      case QueryType::kRwr:
        return cluster.AnswerRwr(q);
      case QueryType::kHop:
        return HopVectorForScoring(cluster.AnswerHop(q));
      case QueryType::kPhp:
        return cluster.AnswerPhp(q);
    }
    return std::vector<double>{};
  });
}

AccuracyResult MeasureClusterAccuracy(const Graph& graph,
                                      const SubgraphCluster& cluster,
                                      const std::vector<NodeId>& queries,
                                      QueryType type,
                                      const GroundTruth* truth) {
  return Measure(graph, queries, type, truth, [&](NodeId q) {
    switch (type) {
      case QueryType::kRwr:
        return cluster.AnswerRwr(q);
      case QueryType::kHop:
        return HopVectorForScoring(cluster.AnswerHop(q));
      case QueryType::kPhp:
        return cluster.AnswerPhp(q);
    }
    return std::vector<double>{};
  });
}

AccuracyResult MeasureSummaryAccuracy(const Graph& graph,
                                      const SummaryGraph& summary,
                                      const std::vector<NodeId>& queries,
                                      QueryType type,
                                      const GroundTruth* truth) {
  const SummaryView view(summary);
  return Measure(graph, queries, type, truth, [&](NodeId q) {
    switch (type) {
      case QueryType::kRwr:
        return SummaryRwrScores(view, q);
      case QueryType::kHop:
        return HopVectorForScoring(FastSummaryHopDistances(view, q));
      case QueryType::kPhp:
        return SummaryPhpScores(view, q);
    }
    return std::vector<double>{};
  });
}

}  // namespace pegasus
