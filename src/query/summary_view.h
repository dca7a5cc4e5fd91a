// SummaryView — an immutable, query-optimized snapshot of a SummaryGraph.
//
// The summary query families (paper Appendix A, Algs. 4-6, plus the
// degree, PageRank and clustering extensions) are declared at the end of
// this header, and answer every request from three per-supernode
// quantities: the member count |A|, the shared
// member degree of A in Ĝ, and the block density of each superedge. The
// mutable SummaryGraph stores only superedge weights, in per-supernode
// rows built for mutation, so answering straight off it would recompute
// all of that state on every call and inside every power-iteration
// sweep. A
// SummaryView is built once per (immutable) summary and amortizes that
// work across an entire query stream:
//
//   * supernode ids are densified to [0, |S|) (ascending original id),
//   * superedges live in one CSR-style edge array with the weighted block
//     density precomputed per edge,
//   * member lists are a flat CSR as well, and
//   * member degrees (weighted and unweighted), self-loop densities, and
//     member counts are precomputed per supernode.
//
// Those arrays are exactly the thirteen SummaryLayout arrays
// (src/core/summary_layout.h), and every accessor reads through the
// layout's raw pointers. That gives the view two interchangeable
// backings:
//
//   * built — the classic constructor computes the arrays from a
//     SummaryGraph into owned vectors;
//   * arena — the PSB1 constructor points the same accessors straight at
//     a mapped (or decoded) file image (src/core/summary_arena.h), zero
//     rebuild work. The view shares ownership of the arena, so a mapped
//     file stays alive while any epoch still serves from it.
//
// The two backings are byte-identical: a PSB1 file written from a built
// view decodes to the same arrays, so every query family returns the
// same bytes either way (pinned by the FNV goldens in tests/test_util.h).
// layout() exposes the arrays for the PSB1 writer. Views are neither
// copyable nor movable — accessors alias member storage; share one via
// shared_ptr instead (the serving stack already does).
//
// Canonical-order contract: within a supernode's range
// [edge_begin(a), edge_end(a)) edges are stored in ascending dense
// neighbor id — the SummaryGraph::superedges() order, and the
// ONLY edge order in the view (pair lookups binary-search the CSR
// directly; there is no side index). Every per-edge floating-point
// summation in the query families therefore runs in an order fixed by
// the data alone, so query scores are byte-identical across standard
// libraries, thread counts, and processes — the cross-stdlib goldens in
// tests/determinism_test.cc pin exactly this.
//
// Iterative kernels: both constructors attach a KernelPlan
// (src/core/kernel_plan.h) — flat transition arrays derived from the
// layout once — and the RWR / PHP / PageRank kernels run fused
// branch-free sweeps over it. That is the only production path: a PSB1
// file the plan could not serve is rejected by SummaryArena::Map. The
// fused sweeps are byte-compared against the reference sweeps (see the
// end of this header); the golden hashes in tests/test_util.h pin the
// bytes.
//
// Thread-safety: a SummaryView is deeply const after construction; any
// number of threads may query it concurrently (the batched engine in
// query_engine.h relies on this).

#ifndef PEGASUS_QUERY_SUMMARY_VIEW_H_
#define PEGASUS_QUERY_SUMMARY_VIEW_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/kernel_plan.h"
#include "src/core/summary_graph.h"
#include "src/core/summary_layout.h"
#include "src/graph/graph.h"
#include "src/query/exact_queries.h"
#include "src/query/kernel_scratch.h"

namespace pegasus {

class SummaryArena;

class SummaryView {
 public:
  // Builds the arrays from a SummaryGraph (owned storage).
  explicit SummaryView(const SummaryGraph& summary);

  // Serves straight off a PSB1 arena: no arrays are built, accessors
  // alias the arena's memory (mapped file or decoded heap copy), which
  // SummaryArena::Map has already checked.
  explicit SummaryView(std::shared_ptr<const SummaryArena> arena);

  SummaryView(const SummaryView&) = delete;
  SummaryView& operator=(const SummaryView&) = delete;

  NodeId num_nodes() const { return static_cast<NodeId>(layout_.num_nodes); }
  uint32_t num_supernodes() const {
    return static_cast<uint32_t>(layout_.num_supernodes);
  }
  // Undirected superedge count |P|.
  uint64_t num_superedges() const { return layout_.num_superedges; }
  // Directed CSR slots: 2|P| minus self-loops.
  uint64_t num_edge_slots() const { return layout_.num_edge_slots; }

  // Dense supernode index of node u.
  uint32_t supernode_of(NodeId u) const { return layout_.node_to_super[u]; }

  // Member nodes of dense supernode a (original node ids).
  std::span<const NodeId> members(uint32_t a) const {
    return {layout_.members + layout_.member_begin[a],
            layout_.members + layout_.member_begin[a + 1]};
  }

  // --- Superedge CSR --------------------------------------------------------
  //
  // Edges are stored structure-of-arrays so the power-iteration sweeps
  // stream only what they touch: neighbor ids and one density array
  // selected per call (edge_density(weighted) hoists the weighted /
  // unweighted decision out of the per-edge loop). Within a supernode's
  // range [edge_begin(a), edge_end(a)) edges ascend in dense neighbor id
  // (the canonical-order contract above), which is what FindEdge
  // binary-searches and what merge-style consumers stream.

  uint64_t edge_begin(uint32_t a) const { return layout_.edge_begin[a]; }
  uint64_t edge_end(uint32_t a) const { return layout_.edge_begin[a + 1]; }

  // Neighbor supernode per edge slot (dense ids, ascending per supernode).
  const uint32_t* edge_dst() const { return layout_.edge_dst; }

  // Represented input-edge count per edge slot.
  const uint32_t* edge_weight() const { return layout_.edge_weight; }

  // Per-edge block densities: min(1, weight / pairs) in weighted mode, a
  // constant 1.0 stream in unweighted mode.
  const double* edge_density(bool weighted) const {
    return weighted ? layout_.edge_density_w : layout_.edge_density_uw;
  }

  // Neighbor ids of supernode a, ascending (for neighborhood/BFS queries
  // and merge-style consumers).
  std::span<const uint32_t> edge_dsts(uint32_t a) const {
    return {layout_.edge_dst + layout_.edge_begin[a],
            layout_.edge_dst + layout_.edge_begin[a + 1]};
  }

  // |A| as a double (every query consumes it as one).
  double member_count(uint32_t a) const { return layout_.member_count[a]; }

  // Weighted degree shared by every member of a in Ĝ.
  double member_degree(uint32_t a, bool weighted) const {
    return weighted ? layout_.member_deg_w[a] : layout_.member_deg_uw[a];
  }

  // Density of a's self-loop (0 when absent).
  double self_density(uint32_t a, bool weighted) const {
    return weighted ? layout_.self_density_w[a] : layout_.self_density_uw[a];
  }

  // Edge-array slot of superedge {a, b}, or -1 if absent. O(log deg(a)),
  // a binary search of a's (ascending) CSR range. The slot indexes
  // edge_dst()/edge_weight()/edge_density().
  int64_t FindEdge(uint32_t a, uint32_t b) const;

  // Weight of superedge {a, b}; 0 if absent. O(log deg(a)).
  uint32_t EdgeWeight(uint32_t a, uint32_t b) const;

  // Density of superedge {a, b}; 0 if absent. O(log deg(a)).
  double EdgeDensity(uint32_t a, uint32_t b, bool weighted) const;

  // The thirteen arrays + counts this view serves from — what
  // SaveSummaryBinary writes. Pointers are valid while the view lives.
  const SummaryLayout& layout() const { return layout_; }

  // Precomputed iterative-kernel arrays (src/core/kernel_plan.h). Built
  // views derive one at construction; arena-backed views share the plan
  // the arena derived at attach time. Always non-null.
  const KernelPlan& kernel_plan() const { return *plan_; }

  // Non-null when this view is arena-backed (serving a PSB1 file image).
  const std::shared_ptr<const SummaryArena>& arena() const { return arena_; }

 private:
  // Accessor source of truth. Points into the owned vectors below
  // (built) or into arena_'s memory (arena-backed).
  SummaryLayout layout_;

  std::shared_ptr<const SummaryArena> arena_;

  // Built path owns its plan; the arena path aliases the arena's.
  std::shared_ptr<const KernelPlan> plan_;

  // Owned storage for the built path (empty when arena-backed).
  std::vector<uint32_t> node_to_super_;  // node -> dense supernode
  std::vector<uint64_t> member_begin_;   // CSR offsets into members_
  std::vector<NodeId> members_;
  std::vector<uint64_t> edge_begin_;     // CSR offsets into the edge arrays
  std::vector<uint32_t> edge_dst_;       // ascending within each supernode
  std::vector<uint32_t> edge_weight_;
  std::vector<double> edge_density_w_;
  std::vector<double> edge_density_uw_;  // all 1.0

  std::vector<double> member_count_;
  std::vector<double> member_deg_w_;
  std::vector<double> member_deg_uw_;
  std::vector<double> self_density_w_;
  std::vector<double> self_density_uw_;
};

// --- Query families over a view -------------------------------------------
//
// The one query API over a summary: build (or map) a view once and
// answer every query from it. The neighborhood query is the primitive:
// the approximate neighbors of q are the members of the supernodes
// adjacent to S_q (including S_q itself when it carries a self-loop),
// minus q (Alg. 4). HOP/RWR/PHP then run on the reconstructed graph Ĝ
// without materializing it. Weighted mode reads each superedge's weight
// (the count of real edges it represents) as a block density, matching
// the paper's evaluation of weighted summary graphs.

// Alg. 4: approximate neighbors of q in Ĝ (sorted ascending).
std::vector<NodeId> SummaryNeighbors(const SummaryView& view, NodeId q);

// Blockwise Alg. 5: all members of a supernode other than q are
// structurally equivalent in Ĝ, so one distance per supernode suffices.
// Same output as a node-level BFS through SummaryNeighbors (the test
// oracle, see the end of this header), O(|V| + |P|).
std::vector<uint32_t> FastSummaryHopDistances(const SummaryView& view,
                                              NodeId q);

// The iterative kernels take an optional KernelScratch: serving paths
// pass a pooled one (src/query/kernel_scratch.h) so steady state does
// no internal allocations; nullptr means per-call temporaries.

// Alg. 6-equivalent RWR on Ĝ; blockwise power iteration.
std::vector<double> SummaryRwrScores(const SummaryView& view, NodeId q,
                                     double restart_prob = 0.05,
                                     bool weighted = true,
                                     const IterativeQueryOptions& opts = {},
                                     KernelScratch* scratch = nullptr);

// PHP on Ĝ; blockwise fixed-point iteration.
std::vector<double> SummaryPhpScores(const SummaryView& view, NodeId q,
                                     double decay = 0.95, bool weighted = true,
                                     const IterativeQueryOptions& opts = {},
                                     KernelScratch* scratch = nullptr);

// Per-node (weighted) degrees in Ĝ. O(|V|).
std::vector<double> SummaryDegrees(const SummaryView& view,
                                   bool weighted = true);

// PageRank on Ĝ; blockwise power iteration with uniform teleport. All
// members of a supernode share one score, so the state is O(|S|).
std::vector<double> SummaryPageRank(const SummaryView& view,
                                    double damping = 0.85,
                                    bool weighted = true,
                                    const IterativeQueryOptions& opts = {},
                                    KernelScratch* scratch = nullptr);

// Local clustering coefficients on Ĝ, computed blockwise: for u in
// supernode A, the (expected) number of closed wedges is aggregated over
// pairs of A's neighbor supernodes using block densities. Unweighted mode
// reproduces the exact coefficients of the materialized Ĝ; weighted mode
// estimates the input graph's coefficients from densities. O(Σ_A
// deg_S(A)^2) where deg_S is the superedge degree.
std::vector<double> SummaryClusteringCoefficients(const SummaryView& view,
                                                  bool weighted = true);

// --- Reference sweeps -------------------------------------------------------
// The never-dispatched oracles the kernels above are checked against live
// in the test-support target tests/support/reference_kernels.{h,cc}.

}  // namespace pegasus

#endif  // PEGASUS_QUERY_SUMMARY_VIEW_H_
