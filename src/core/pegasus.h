// PeGaSus: Personalized Graph Summarization with Scalability (Sec. III).
//
// This is the paper's primary contribution and the library's main entry
// point. Given a graph, a target node set T, and a bit budget k, it
// produces a summary graph personalized to T by iterating:
//   1. candidate generation — group supernodes by connectivity shingles,
//   2. merging & addition  — greedy merges within groups, thresholded by
//      the relative personalized cost reduction (Eq. 11),
//   3. adaptive thresholding — theta follows the failure statistics,
// and finally sparsifies superedges if the budget is still exceeded.
// Runs in O(tmax * |E|) time and O(|V| + |E|) space (Theorem 1).

#ifndef PEGASUS_CORE_PEGASUS_H_
#define PEGASUS_CORE_PEGASUS_H_

#include <cstdint>
#include <vector>

#include "src/core/candidate_groups.h"
#include "src/core/cost_model.h"
#include "src/core/merge_engine.h"
#include "src/core/sparsifier.h"
#include "src/core/summary_graph.h"
#include "src/core/threshold.h"
#include "src/graph/graph.h"
#include "src/util/status.h"

namespace pegasus {

class Executor;

// Configuration of one summarization run. Defaults are the paper's
// recommended settings (Sec. V-A).
struct PegasusConfig {
  // Degree of personalization (alpha >= 1; 1 disables personalization).
  double alpha = 1.25;
  // Adaptive-thresholding quantile parameter (Sec. III-E).
  double beta = 0.1;
  // Maximum number of outer iterations tmax.
  int max_iterations = 20;
  // Seed for every random choice in the run.
  uint64_t seed = 0;
  // Candidate-group shape (the paper's constants).
  CandidateGroupsOptions groups;
  // Merge ranking: Eq. (11) relative (default) or Eq. (10) absolute.
  MergeScore merge_score = MergeScore::kRelative;
  // Error encoding: error correction (PeGaSus) or best-of-both (SSumM).
  EncodingScheme encoding = EncodingScheme::kErrorCorrection;
  // Threshold schedule: adaptive (PeGaSus) or harmonic (SSumM).
  ThresholdRule threshold_rule = ThresholdRule::kAdaptive;
  // Superedge-dropping order used when the budget is still exceeded.
  // kMinDamage drops the superedges whose removal adds the least weighted
  // error first — the reading of Sec. III-F's "increasing order of
  // Cost_AB" where the cost is taken *after* the drop; the literal
  // before-the-drop ordering is available as kPaperCostAscending and
  // compared in bench_ablation_components.
  SparsifyPolicy sparsify_policy = SparsifyPolicy::kMinDamage;
  // Cap on forced-coarsening rounds run when even the supernode-membership
  // bits exceed the budget after tmax iterations (each round doubles the
  // leniency of the merge threshold).
  int max_forced_rounds = 64;
  // Worker threads for the summarization engine.
  //   1 (default): the serial engine — the exact historical schedule,
  //     byte-identical to the pre-parallel implementation.
  //   0: the parallel engine with all hardware threads.
  //   N >= 2: the parallel engine with N workers.
  // The parallel engine's output is a deterministic function of the seed
  // alone: every worker count (including 0 on any machine) produces the
  // identical summary. Its schedule differs from the serial engine's,
  // though, so num_threads = 1 and num_threads >= 2 give different
  // (equally valid) summaries for the same seed. See parallel_engine.h
  // for the phase design and the exact semantic differences.
  int num_threads = 1;
};

// Outcome of a summarization run.
struct SummarizationResult {
  SummaryGraph summary;
  int iterations_run = 0;
  uint64_t superedges_dropped = 0;  // by final sparsification
  MergeStats merge_stats;
  double final_size_bits = 0.0;
  double elapsed_seconds = 0.0;
};

// Validates one summarization call's inputs against `graph`. Errors
// (also returned by the entry points below, which call this first):
//   * kInvalidArgument — budget_bits NaN or < 0; alpha < 1 or NaN;
//                        beta outside [0, 1]; max_iterations <= 0;
//                        num_threads < 0; max_forced_rounds < 0
//   * kOutOfRange      — a target node >= graph.num_nodes()
[[nodiscard]] Status ValidateSummarizationInputs(const Graph& graph,
                                   const std::vector<NodeId>& targets,
                                   double budget_bits,
                                   const PegasusConfig& config);

// Runs PeGaSus (Alg. 1). `targets` empty means T = V (non-personalized).
// `budget_bits` is the size budget k of Eq. (3); pass
// ratio * graph.SizeInBits() for a target compression ratio. Fails with
// the typed ValidateSummarizationInputs errors instead of silently
// running on (or asserting about) nonsensical inputs.
[[nodiscard]] StatusOr<SummarizationResult> SummarizeGraph(
    const Graph& graph, const std::vector<NodeId>& targets,
    double budget_bits, const PegasusConfig& config = {});

// Convenience wrapper taking a compression ratio; rejects ratios outside
// (0, 1] with kInvalidArgument.
[[nodiscard]] StatusOr<SummarizationResult> SummarizeGraphToRatio(
    const Graph& graph, const std::vector<NodeId>& targets, double ratio,
    const PegasusConfig& config = {});

namespace internal {

// SummarizeGraph for callers that run several summarizations on one
// shared executor (src/shard builds every machine's summary concurrently).
// The parallel engine (config.num_threads != 1) runs its rounds on `pool`,
// nesting inside whatever task of `pool` calls this, instead of starting
// an executor of its own; the serial engine ignores `pool`. The summary is
// identical to SummarizeGraph's for the same config, because the parallel
// engine's output does not depend on the worker count.
[[nodiscard]] StatusOr<SummarizationResult> SummarizeGraphOn(
    Executor& pool, const Graph& graph, const std::vector<NodeId>& targets,
    double budget_bits, const PegasusConfig& config);

}  // namespace internal

}  // namespace pegasus

#endif  // PEGASUS_CORE_PEGASUS_H_
