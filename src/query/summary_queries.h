// Approximate query answering directly on a summary graph
// (paper Appendix A, Algs. 4-6).
//
// The neighborhood query is the primitive: the approximate neighbors of a
// node q are the members of the supernodes adjacent to S_q (including S_q
// itself when it carries a self-loop), minus q (Alg. 4). HOP/RWR/PHP are
// then computed on the reconstructed graph Ĝ *without materializing it*:
//   * the faithful node-level routines follow Algs. 5-6 verbatim and are
//     intended for validation and small graphs;
//   * the blockwise ("fast") routines exploit the fact that all members of
//     a supernode other than q are structurally equivalent in Ĝ, so one
//     scalar per supernode suffices; they run in O(|P|) per sweep and are
//     the implementations used by the benches.
// Weighted mode interprets each superedge's weight (the count of real
// edges it represents) as a block density, matching the paper's evaluation
// of weighted summary graphs.
//
// Serving note: these functions are compatibility wrappers. The
// state-heavy families (RWR, PHP, degrees, PageRank, clustering)
// snapshot the summary into a SummaryView (summary_view.h) per call, so
// their per-call cost includes an O(|V| + |P|) snapshot. The
// neighborhood and hop families stay direct on the SummaryGraph's
// canonical superedge rows (they need none of the precomputed state), at
// O(deg)/O(|P|) per call. Query streams should construct one
// SummaryView (or serve through a QueryService) and reuse it; results
// are byte-identical either way, and byte-identical across
// standard libraries (the cross-stdlib goldens in
// tests/determinism_test.cc).

#ifndef PEGASUS_QUERY_SUMMARY_QUERIES_H_
#define PEGASUS_QUERY_SUMMARY_QUERIES_H_

#include <cstdint>
#include <vector>

#include "src/core/summary_graph.h"
#include "src/graph/graph.h"
#include "src/query/exact_queries.h"

namespace pegasus {

// Alg. 4: approximate neighbors of q in Ĝ (sorted ascending).
std::vector<NodeId> SummaryNeighbors(const SummaryGraph& summary, NodeId q);

// Alg. 5 (faithful node-level BFS on Ĝ through SummaryNeighbors).
std::vector<uint32_t> SummaryHopDistances(const SummaryGraph& summary,
                                          NodeId q);

// Blockwise equivalent of Alg. 5; identical output, O(|V| + |P|).
std::vector<uint32_t> FastSummaryHopDistances(const SummaryGraph& summary,
                                              NodeId q);

// Alg. 6-equivalent RWR on Ĝ; blockwise power iteration. When `weighted`
// is true, edges of Ĝ are weighted by superedge block densities.
std::vector<double> SummaryRwrScores(const SummaryGraph& summary, NodeId q,
                                     double restart_prob = 0.05,
                                     bool weighted = true,
                                     const IterativeQueryOptions& opts = {});

// PHP on Ĝ; blockwise fixed-point iteration.
std::vector<double> SummaryPhpScores(const SummaryGraph& summary, NodeId q,
                                     double decay = 0.95,
                                     bool weighted = true,
                                     const IterativeQueryOptions& opts = {});

// Per-node (weighted) degrees in Ĝ — the node-degree query the paper lists
// among the summary-answerable queries. O(|S| + |P|).
std::vector<double> SummaryDegrees(const SummaryGraph& summary,
                                   bool weighted = true);

// PageRank on Ĝ; blockwise power iteration with uniform teleport. All
// members of a supernode share one score, so the state is O(|S|).
std::vector<double> SummaryPageRank(const SummaryGraph& summary,
                                    double damping = 0.85,
                                    bool weighted = true,
                                    const IterativeQueryOptions& opts = {});

// Local clustering coefficients on Ĝ, computed blockwise: for u in
// supernode A, the (expected) number of closed wedges is aggregated over
// pairs of A's neighbor supernodes using block densities. Unweighted mode
// reproduces the exact coefficients of the materialized Ĝ; weighted mode
// estimates the input graph's coefficients from densities. O(Σ_A
// deg_S(A)^2) where deg_S is the superedge degree.
std::vector<double> SummaryClusteringCoefficients(const SummaryGraph& summary,
                                                  bool weighted = true);

}  // namespace pegasus

#endif  // PEGASUS_QUERY_SUMMARY_QUERIES_H_
