// KernelPlan — precomputed transition arrays for the iterative kernels.
//
// The RWR / PHP / PageRank sweeps (src/query/summary_view.cc) walk the
// superedge CSR once per iteration. Served straight off a SummaryLayout
// they pay, on every sweep of every query: a self-loop branch per edge
// slot, a `self_density / member_degree` division per supernode, and —
// in the reference formulation — a separate scatter pass plus a
// per-supernode rate pass. A KernelPlan bakes everything that is a pure
// function of the summary into flat arrays once, at view build or
// mmap-attach time (src/core/summary_arena.h), so the steady-state
// sweep is a single branch-free pass over contiguous memory:
//
//   * `row_begin` / `dst` / `den_w`: the superedge CSR with self-loop
//     slots compacted out. The iterative kernels never take the
//     `dst[i] == a` branch again; self-loop mass is applied through the
//     per-supernode terms below.
//   * `self_split[b]`: where inside the compacted row b the self slot
//     sat (kNoSelf if the row has none), with its density in
//     `self_den_w[b]`. PHP sums a row in ascending-slot order with the
//     self term in the middle; the split lets it keep that exact
//     summation order over the compacted row (two contiguous segments
//     around one scalar term).
//   * `self_rate_w` / `self_rate_uw`: the loop-invariant
//     `self_density(b) / member_degree(b)` division hoisted out of the
//     sweep (0 when the reference guard `sd > 0 && md > 0` fails).
//
// Byte-identity contract: a kernel running over these arrays adds the
// same values in the same order as the reference sweep over the raw
// layout, so scores are bit-for-bit identical (goldens in
// tests/test_util.h do not move). That equivalence rests on three
// layout invariants, which a plan assumes rather than re-checks:
//
//   * rows strictly ascend, so each row holds at most one self slot;
//   * every cross superedge is stored from both endpoints with equal
//     weighted density. The fused RWR/PageRank kernels gather along row
//     b (ascending source order) instead of scattering along row a; the
//     two orders visit identical values only when densities are
//     symmetric;
//   * every unweighted density (cross and self) is 1.0 or, for a
//     missing self-loop, 0.0, letting the unweighted kernels drop the
//     multiply (x * 1.0 == x bitwise).
//
// Built views hold all three by construction. A PSB1 file is checked by
// SummaryArena::Map (CheckLayoutBounds + CheckEdgeSymmetryAndCount in
// src/core/binary_summary_io.h) and rejected with kDataLoss before a
// plan is derived from it, so there is one kernel per query family and
// no fallback.

#ifndef PEGASUS_CORE_KERNEL_PLAN_H_
#define PEGASUS_CORE_KERNEL_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/core/summary_layout.h"

namespace pegasus {

struct KernelPlan {
  // Sentinel for self_split: the row has no self-loop slot.
  static constexpr uint32_t kNoSelf = UINT32_MAX;

  // Superedge CSR with self slots removed. row_begin is S+1 offsets
  // into dst / den_w; within a row, dst ascends (canonical order).
  std::vector<uint64_t> row_begin;
  std::vector<uint32_t> dst;
  std::vector<double> den_w;

  // Per-supernode self-loop data (size S each).
  std::vector<uint32_t> self_split;  // position in compacted row, or kNoSelf
  std::vector<double> self_den_w;    // CSR density of the self slot (else 0)
  std::vector<double> self_rate_w;   // self_density_w / member_deg_w (else 0)
  std::vector<double> self_rate_uw;  // self_density_uw / member_deg_uw

  uint32_t num_rows() const {
    return row_begin.empty() ? 0u
                             : static_cast<uint32_t>(row_begin.size() - 1);
  }

  // Derives a plan from serving arrays. Precondition: `layout` belongs
  // to a built SummaryView, or passed the arena checks (see above).
  static KernelPlan Build(const SummaryLayout& layout);
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_KERNEL_PLAN_H_
