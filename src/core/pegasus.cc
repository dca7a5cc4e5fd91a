#include "src/core/pegasus.h"

#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "src/core/parallel_engine.h"
#include "src/core/personal_weights.h"
#include "src/util/bits.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace pegasus {

namespace {

// Driver skeleton shared by the serial and parallel engines (Alg. 1 plus
// the endgame); the engines differ only in how one candidate+merge round
// runs, injected as `run_round(round_seed, policy)`. Keeping the budget
// policy in one place guarantees the two engines can never drift apart on
// iteration accounting, sparsification, or forced coarsening.
template <typename RoundFn>
void DriveToBudget(const Graph& graph, double budget_bits,
                   const PegasusConfig& config, CostModel& cost,
                   SummaryGraph& summary, SummarizationResult& result,
                   RoundFn&& run_round) {
  ThresholdPolicy threshold(config.threshold_rule, config.beta,
                            config.max_iterations);

  int t = 1;
  while (t <= config.max_iterations && summary.SizeInBits() > budget_bits) {
    run_round(SplitMix64(config.seed + 0x9e3779b97f4a7c15ULL * t), threshold);
    ++t;
    threshold.EndIteration(t);
    result.iterations_run = t - 1;
  }

  // Endgame. The adaptive threshold never goes below 0 (cost-increasing
  // merges are rejected), so a tight budget may survive the main loop.
  // Two tools remain, applied from gentlest to harshest:
  //  1. sparsification — drop superedges (only helps while the membership
  //     term |V| log2|S| itself fits the budget);
  //  2. forced coarsening — extra merge rounds with an increasingly
  //     lenient threshold, shrinking |S| (and with it every encoding
  //     term), re-checking after each round.
  double forced_theta = -0.05;
  int round = 0;
  while (summary.SizeInBits() > budget_bits &&
         summary.num_supernodes() > 1) {
    const double membership_bits =
        static_cast<double>(graph.num_nodes()) *
        Log2Bits(summary.num_supernodes());
    if (membership_bits <= budget_bits) {
      result.superedges_dropped += SparsifyToBudget(
          graph, cost, summary, budget_bits, config.sparsify_policy);
      if (summary.SizeInBits() <= budget_bits) break;
    }
    if (round >= config.max_forced_rounds) break;
    ThresholdPolicy forced(config.threshold_rule, config.beta,
                           config.max_iterations);
    forced.ForceTheta(forced_theta);
    run_round(SplitMix64(config.seed + 0xa0761d6478bd642fULL * (round + 1)),
              forced);
    forced_theta *= 2.0;
    ++round;
  }
  if (summary.SizeInBits() > budget_bits) {
    // Last resort for budgets below every reachable size.
    result.superedges_dropped += SparsifyToBudget(
        graph, cost, summary, budget_bits, config.sparsify_policy);
  }
}

}  // namespace

Status ValidateSummarizationInputs(const Graph& graph,
                                   const std::vector<NodeId>& targets,
                                   double budget_bits,
                                   const PegasusConfig& config) {
  // Zero is meaningful ("compress as far as the pipeline can"): it is
  // what any ratio yields on an edgeless graph, whose SizeInBits() is 0.
  if (std::isnan(budget_bits) || budget_bits < 0.0) {
    return Status::InvalidArgument("budget_bits must be non-negative, got " +
                                   std::to_string(budget_bits));
  }
  if (std::isnan(config.alpha) || config.alpha < 1.0) {
    return Status::InvalidArgument("alpha must be >= 1, got " +
                                   std::to_string(config.alpha));
  }
  if (std::isnan(config.beta) || config.beta < 0.0 || config.beta > 1.0) {
    return Status::InvalidArgument("beta must be in [0, 1], got " +
                                   std::to_string(config.beta));
  }
  if (config.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive, got " +
                                   std::to_string(config.max_iterations));
  }
  if (config.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(config.num_threads));
  }
  if (config.max_forced_rounds < 0) {
    return Status::InvalidArgument("max_forced_rounds must be >= 0, got " +
                                   std::to_string(config.max_forced_rounds));
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] >= graph.num_nodes()) {
      return Status::OutOfRange(
          "target " + std::to_string(i) + " (node " +
          std::to_string(targets[i]) + ") out of range [0, " +
          std::to_string(graph.num_nodes()) + ")");
    }
  }
  return Status::Ok();
}

namespace {

// SummarizeGraph on `pool` when non-null (parallel engine only), else on
// an executor of config.num_threads workers owned by this call.
StatusOr<SummarizationResult> Summarize(const Graph& graph,
                                        const std::vector<NodeId>& targets,
                                        double budget_bits,
                                        const PegasusConfig& config,
                                        Executor* pool) {
  if (Status s = ValidateSummarizationInputs(graph, targets, budget_bits,
                                             config);
      !s) {
    return s;
  }
  Timer timer;
  SummarizationResult result;
  result.summary = SummaryGraph::Identity(graph);
  SummaryGraph& summary = result.summary;

  const PersonalWeights weights =
      PersonalWeights::Compute(graph, targets, config.alpha);
  CostModel cost(graph, weights, summary, config.encoding);

  // num_threads == 0 always routes to the parallel engine (even on a
  // single-core machine) so that "auto" results are machine-independent;
  // 1 keeps the historical serial schedule (negatives were rejected by
  // ValidateSummarizationInputs).
  if (config.num_threads == 0 || config.num_threads > 1) {
    std::optional<Executor> owned;
    if (pool == nullptr) pool = &owned.emplace(config.num_threads);
    ParallelEngine engine(graph, summary, cost, config.merge_score,
                          config.groups, *pool);
    DriveToBudget(graph, budget_bits, config, cost, summary, result,
                  [&](uint64_t round_seed, ThresholdPolicy& policy) {
                    engine.RunRound(round_seed, policy);
                  });
    result.merge_stats = engine.stats();
  } else {
    MergeEngine engine(graph, summary, cost, config.merge_score);
    Rng rng(SplitMix64(config.seed ^ 0xc2b2ae3d27d4eb4fULL));
    DriveToBudget(
        graph, budget_bits, config, cost, summary, result,
        [&](uint64_t round_seed, ThresholdPolicy& policy) {
          std::vector<std::vector<SupernodeId>> groups =
              GenerateCandidateGroups(graph, summary, round_seed,
                                      config.groups, rng);
          for (std::vector<SupernodeId>& group : groups) {
            engine.ProcessGroup(group, policy, rng);
            // Alg. 1 checks the budget per iteration; checking per group
            // has the same semantics but stops precisely at the budget
            // instead of overshooting by up to a whole iteration's worth
            // of merges, which keeps realized sizes comparable across
            // runs (Sec. V compares summaries "of similar size"). The
            // parallel engine cannot check mid-round (merges apply at
            // barriers), which is the one budget-policy difference
            // between the engines — see parallel_engine.h.
            if (summary.SizeInBits() <= budget_bits) break;
          }
        });
    result.merge_stats = engine.stats();
  }

  result.final_size_bits = summary.SizeInBits();
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

StatusOr<SummarizationResult> SummarizeGraph(
    const Graph& graph, const std::vector<NodeId>& targets,
    double budget_bits, const PegasusConfig& config) {
  return Summarize(graph, targets, budget_bits, config, /*pool=*/nullptr);
}

StatusOr<SummarizationResult> internal::SummarizeGraphOn(
    Executor& pool, const Graph& graph, const std::vector<NodeId>& targets,
    double budget_bits, const PegasusConfig& config) {
  return Summarize(graph, targets, budget_bits, config, &pool);
}

StatusOr<SummarizationResult> SummarizeGraphToRatio(
    const Graph& graph, const std::vector<NodeId>& targets, double ratio,
    const PegasusConfig& config) {
  if (std::isnan(ratio) || ratio <= 0.0 || ratio > 1.0) {
    return Status::InvalidArgument("compression ratio must be in (0, 1], got " +
                                   std::to_string(ratio));
  }
  return SummarizeGraph(graph, targets, ratio * graph.SizeInBits(), config);
}

}  // namespace pegasus
