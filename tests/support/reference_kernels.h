// Reference kernels — the test and bench oracles for the summary query
// families (src/query/summary_view.h).
//
// None of these is ever dispatched: pegasus_core answers every query
// through one kernel per family, the fused KernelPlan sweeps and the
// blockwise FastSummaryHopDistances. These are the plain formulations
// those kernels are checked against, kept verbatim:
//
//   * SummaryHopDistances — Alg. 5 as written, a node-level BFS on Ĝ
//     through SummaryNeighbors;
//   * Summary*Reference — the pre-KernelPlan scatter + apply sweeps. The
//     fused sweeps must return the same bytes, always
//     (tests/kernel_plan_test.cc), and bench_kernel_gate's speedup gate
//     measures against them.
//
// The target links pegasus::build_flags, so -ffp-contract=off holds here
// as in the library: at -march=x86-64-v3 an FMA-contracted oracle would
// no longer match the fused kernels bit for bit.

#ifndef PEGASUS_TESTS_SUPPORT_REFERENCE_KERNELS_H_
#define PEGASUS_TESTS_SUPPORT_REFERENCE_KERNELS_H_

#include <cstdint>
#include <vector>

#include "src/query/summary_view.h"

namespace pegasus {

// Alg. 5, faithful node-level BFS on Ĝ through SummaryNeighbors (for
// validation and small graphs).
std::vector<uint32_t> SummaryHopDistances(const SummaryView& view, NodeId q);

std::vector<double> SummaryRwrScoresReference(
    const SummaryView& view, NodeId q, double restart_prob = 0.05,
    bool weighted = true, const IterativeQueryOptions& opts = {});

std::vector<double> SummaryPhpScoresReference(
    const SummaryView& view, NodeId q, double decay = 0.95,
    bool weighted = true, const IterativeQueryOptions& opts = {});

std::vector<double> SummaryPageRankReference(
    const SummaryView& view, double damping = 0.85, bool weighted = true,
    const IterativeQueryOptions& opts = {});

}  // namespace pegasus

#endif  // PEGASUS_TESTS_SUPPORT_REFERENCE_KERNELS_H_
