// KernelPlan — precomputed transition arrays for the iterative kernels.
//
// The RWR / PHP / PageRank sweeps (src/query/summary_view.cc) read every
// superedge slot once per iteration. A KernelPlan bakes everything that
// is a pure function of the summary into flat arrays once, at view build
// or mmap-attach time (src/core/summary_arena.h), so each sweep is two
// branch-light passes over contiguous memory:
//
//   1. a gather pass over a sliced-ELL layout (SELL-C-σ, Kreutzer et
//      al., SIAM J. Sci. Comput. 36(5), 2014) that writes each row's
//      incoming sum into a scratch `cross[row]`;
//   2. the in-order epilogue: rows ascend, each reads `cross[b]`, applies
//      its self term and updates its score.
//
// Slice layout. Rows are taken in windows of kWindow (σ = 256) ascending
// ids; inside a window they are sorted by slot count descending, then by
// row id, and cut into slices of kLanes (C = 4) rows, one row per lane.
// Each slice is padded to its longest row. For slice k of width W:
//
//   * `row_begin[k]` .. `row_begin[k + 1]` is its range in `dst`,
//     holding W * kLanes entries (these are slice offsets, not row
//     offsets; the name is kept for KernelBytesPerSweep-style readers);
//   * `dst[row_begin[k] + j * kLanes + l]` is slot j of lane l: the
//     lanes of one slot column are adjacent, so the four rows' add chains
//     are interleaved, while each row still adds its own slots one after
//     another in ascending-slot order (the layout's canonical order);
//   * `lane_row[k * kLanes + l]` is the row lane l sums, or num_rows()
//     for an empty lane of a window's last, partial slice (it writes a
//     spare `cross` element no row reads);
//   * `den_begin[k]` is where the slice's weighted densities start in
//     `den_w` (same shape as its `dst` range), or kUnitSlice when every
//     real slot of the slice has weighted density exactly 1.0.
//
// Slot targets. A slot reads element `dst[i]` of the sweep vector x
// (rate or total), which is gather_extent() long:
//
//   * x[0 .. num_rows()) — the rows' own values;
//   * x[pad_index()] — the pad column, always +0.0. Pad slots come after
//     a lane's real slots and read it;
//   * x[pad_index() + 1 + j] — the self column of row self_rows[j]. A
//     row's self slot keeps its position in the row and reads it. PHP
//     fills it with `total[b] - phi[b]` before each gather pass; RWR and
//     PageRank, which apply self-loop mass through self_rate_* in the
//     epilogue, leave it at +0.0.
//
// Why the slices change no byte. Every term a row adds is >= +0.0, and a
// row's sum starts at +0.0, so it is never -0.0 and adding +0.0 to it
// leaves it unchanged bit for bit. Hence:
//
//   * pads (trailing `+ 0.0`, or `+ w * 0.0` with finite w) are
//     identities;
//   * a self slot under RWR / PageRank adds +0.0 mid-row — the same
//     identity — which is exactly the reference skipping that slot;
//   * a self slot under PHP adds `den * (total[b] - phi[b])` at its own
//     position: the reference's operand, in the reference's order;
//   * a unit slice skips the multiply, because `x * 1.0 == x` bitwise;
//     the unweighted kernels never multiply (see the third invariant).
//
// Static rows. A row with no slot can never hold mass: its self
// densities are 0.0 (the fourth invariant below), so it has no self rate
// either. RWR sets it to +0.0 in its first sweep and PHP starts it at 0,
// and from then on its score stays +0.0 and its change term is +0.0, the
// identity in the change sum. `live_rows` lists the rows with a slot,
// ascending; RWR from its second sweep and PHP throughout walk only that
// list (their query-supernode block always runs), so the ascending order
// of the `change` chain is kept. No slot can point at a static row
// (storage is symmetric), so its stale sweep-vector entries are never
// read. PageRank walks every row: base and dangling mass reach all of them.
//
// Byte-identity contract: a kernel running over these arrays adds the
// same values in the same order as the reference sweep over the raw
// layout, so scores are bit-for-bit identical (goldens in
// tests/test_util.h do not move). That equivalence rests on four
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
//     multiply (x * 1.0 == x bitwise);
//   * a row's self densities come from its self slot, and are 0.0 with
//     no self slot, so a row with no slot is static (see above).
//
// Built views hold all four by construction. A PSB1 file is checked by
// SummaryArena::Map (CheckLayoutBounds + CheckEdgeSymmetryAndCount in
// src/core/binary_summary_io.h) and rejected with kDataLoss before a
// plan is derived from it, so there is one kernel per query family and
// no fallback.

#ifndef PEGASUS_CORE_KERNEL_PLAN_H_
#define PEGASUS_CORE_KERNEL_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/summary_layout.h"

namespace pegasus {

struct KernelPlan {
  static constexpr uint32_t kLanes = 4;      // C: rows per slice
  static constexpr uint32_t kWindow = 256;   // σ: rows per sorting window
  static constexpr uint64_t kUnitSlice = UINT64_MAX;  // den_begin: no densities

  // Slice offsets into dst (num_slices + 1 entries).
  std::vector<uint64_t> row_begin;
  // Slot columns, lane-interleaved: slot j of lane l of slice k sits at
  // row_begin[k] + j * kLanes + l. Holds x indices (see above).
  std::vector<uint32_t> dst;
  // Weighted densities of the non-unit slices, shaped like their dst
  // ranges (pads hold 0.0).
  std::vector<double> den_w;
  std::vector<uint64_t> den_begin;  // per slice: offset into den_w, or kUnitSlice
  std::vector<uint32_t> lane_row;   // kLanes per slice: row, or num_rows()

  std::vector<uint32_t> live_rows;  // ascending rows that can hold mass
  std::vector<uint32_t> self_rows;  // ascending rows with a self slot

  // Per-supernode self-loop rates (size S each): the loop-invariant
  // self_density / member_degree (0 when the reference guard fails).
  std::vector<double> self_rate_w;
  std::vector<double> self_rate_uw;

  // The supernode count.
  uint32_t num_rows() const {
    return static_cast<uint32_t>(self_rate_w.size());
  }
  uint32_t num_slices() const {
    return static_cast<uint32_t>(row_begin.size() - 1);
  }
  // x index every pad slot reads (+0.0).
  uint32_t pad_index() const { return num_rows(); }
  // Length of a sweep vector: rows, the pad column, the self columns.
  size_t gather_extent() const {
    return static_cast<size_t>(num_rows()) + 1 + self_rows.size();
  }

  // Derives a plan from serving arrays. Precondition: `layout` belongs
  // to a built SummaryView, or passed the arena checks (see above).
  static KernelPlan Build(const SummaryLayout& layout);
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_KERNEL_PLAN_H_
