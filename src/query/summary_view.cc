#include "src/query/summary_view.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/summary_arena.h"
#include "src/graph/bfs.h"

namespace pegasus {

namespace {

// Number of node pairs spanned by superedge {a, b} and its density.
double BlockPairs(const SummaryGraph& s, SupernodeId a, SupernodeId b) {
  const double na = static_cast<double>(s.members(a).size());
  if (a == b) return na * (na - 1.0) / 2.0;
  return na * static_cast<double>(s.members(b).size());
}

double WeightedBlockDensity(const SummaryGraph& s, SupernodeId a,
                            SupernodeId b, uint32_t weight) {
  const double pairs = BlockPairs(s, a, b);
  if (pairs <= 0.0) return 0.0;
  return std::min(1.0, static_cast<double>(weight) / pairs);
}

}  // namespace

SummaryView::SummaryView(const SummaryGraph& summary) {
  const NodeId num_nodes = summary.num_nodes();
  const SupernodeId bound = summary.id_bound();

  // Densify supernode ids in ascending original-id order. Because the
  // relabeling is monotone, ascending original neighbor id and ascending
  // dense neighbor id are the same order — the canonical one.
  std::vector<uint32_t> dense(bound, UINT32_MAX);
  uint32_t next = 0;
  for (SupernodeId a = 0; a < bound; ++a) {
    if (summary.alive(a)) dense[a] = next++;
  }
  const uint32_t s = next;

  node_to_super_.resize(num_nodes);
  for (NodeId u = 0; u < num_nodes; ++u) {
    node_to_super_[u] = dense[summary.supernode_of(u)];
  }

  member_begin_.assign(s + 1, 0);
  edge_begin_.assign(s + 1, 0);
  member_count_.assign(s, 0.0);
  member_deg_w_.assign(s, 0.0);
  member_deg_uw_.assign(s, 0.0);
  self_density_w_.assign(s, 0.0);
  self_density_uw_.assign(s, 0.0);

  for (SupernodeId a = 0; a < bound; ++a) {
    if (!summary.alive(a)) continue;
    const uint32_t da = dense[a];
    member_begin_[da + 1] = summary.members(a).size();
    edge_begin_[da + 1] = summary.superedges(a).size();
  }
  for (uint32_t a = 0; a < s; ++a) {
    member_begin_[a + 1] += member_begin_[a];
    edge_begin_[a + 1] += edge_begin_[a];
  }
  members_.resize(member_begin_[s]);
  edge_dst_.resize(edge_begin_[s]);
  edge_weight_.resize(edge_begin_[s]);
  edge_density_w_.resize(edge_begin_[s]);
  edge_density_uw_.assign(edge_begin_[s], 1.0);

  uint64_t num_superedges = 0;
  for (SupernodeId a = 0; a < bound; ++a) {
    if (!summary.alive(a)) continue;
    const uint32_t da = dense[a];
    const auto& mem = summary.members(a);
    // Member lists are canonicalized to ascending node id: no query
    // depends on member order, and sorting makes the arrays (and thus a
    // PSB1 file written from them) a pure function of the partition
    // rather than of the SummaryGraph's merge history.
    const auto out = members_.begin() + static_cast<ptrdiff_t>(member_begin_[da]);
    std::copy(mem.begin(), mem.end(), out);
    std::sort(out, out + static_cast<ptrdiff_t>(mem.size()));
    const double na = static_cast<double>(mem.size());
    member_count_[da] = na;

    // Accumulate both member-degree modes in canonical ascending-neighbor
    // order; the CSR slots are filled in the same pass, already sorted.
    double deg_w = 0.0;
    double deg_uw = 0.0;
    uint64_t pos = edge_begin_[da];
    for (const auto& [b, w] : summary.superedges(a)) {
      const double d = WeightedBlockDensity(summary, a, b, w);
      const double cnt = b == a
                             ? na - 1.0
                             : static_cast<double>(summary.members(b).size());
      deg_w += d * cnt;
      deg_uw += 1.0 * cnt;
      if (dense[b] >= da) ++num_superedges;  // each unordered pair once
      edge_dst_[pos] = dense[b];
      edge_weight_[pos] = w;
      edge_density_w_[pos] = d;
      ++pos;
      if (b == a && w > 0) {
        self_density_w_[da] = d;
        self_density_uw_[da] = 1.0;
      }
    }
    member_deg_w_[da] = deg_w;
    member_deg_uw_[da] = deg_uw;
  }

  // The vectors are at their final sizes; alias them through the layout
  // (the single source every accessor reads).
  layout_.num_nodes = num_nodes;
  layout_.num_supernodes = s;
  layout_.num_superedges = num_superedges;
  layout_.num_edge_slots = edge_dst_.size();
  layout_.node_to_super = node_to_super_.data();
  layout_.member_begin = member_begin_.data();
  layout_.members = members_.data();
  layout_.edge_begin = edge_begin_.data();
  layout_.edge_dst = edge_dst_.data();
  layout_.edge_weight = edge_weight_.data();
  layout_.edge_density_w = edge_density_w_.data();
  layout_.edge_density_uw = edge_density_uw_.data();
  layout_.member_count = member_count_.data();
  layout_.member_deg_w = member_deg_w_.data();
  layout_.member_deg_uw = member_deg_uw_.data();
  layout_.self_density_w = self_density_w_.data();
  layout_.self_density_uw = self_density_uw_.data();

  plan_ = std::make_shared<const KernelPlan>(KernelPlan::Build(layout_));
}

SummaryView::SummaryView(std::shared_ptr<const SummaryArena> arena)
    : layout_(arena->layout()),
      arena_(std::move(arena)),
      plan_(arena_->kernel_plan()) {}

int64_t SummaryView::FindEdge(uint32_t a, uint32_t b) const {
  const uint32_t* begin = layout_.edge_dst + layout_.edge_begin[a];
  const uint32_t* end = layout_.edge_dst + layout_.edge_begin[a + 1];
  const uint32_t* it = std::lower_bound(begin, end, b);
  if (it == end || *it != b) return -1;
  return it - layout_.edge_dst;
}

uint32_t SummaryView::EdgeWeight(uint32_t a, uint32_t b) const {
  const int64_t slot = FindEdge(a, b);
  return slot < 0 ? 0 : layout_.edge_weight[slot];
}

double SummaryView::EdgeDensity(uint32_t a, uint32_t b, bool weighted) const {
  const int64_t slot = FindEdge(a, b);
  if (slot < 0) return 0.0;
  return weighted ? layout_.edge_density_w[slot] : 1.0;
}

std::vector<NodeId> SummaryNeighbors(const SummaryView& view, NodeId q) {
  const uint32_t a = view.supernode_of(q);
  std::vector<NodeId> out;
  for (uint32_t b : view.edge_dsts(a)) {
    for (NodeId v : view.members(b)) {
      if (v != q) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> FastSummaryHopDistances(const SummaryView& view,
                                              NodeId q) {
  const uint32_t s = view.num_supernodes();
  std::vector<uint32_t> super_dist(s, kUnreachable);
  const uint32_t a0 = view.supernode_of(q);

  std::vector<uint32_t> queue;
  for (uint32_t b : view.edge_dsts(a0)) {
    if (super_dist[b] == kUnreachable) {
      super_dist[b] = 1;
      queue.push_back(b);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t a = queue[head];
    for (uint32_t b : view.edge_dsts(a)) {
      if (super_dist[b] == kUnreachable) {
        super_dist[b] = super_dist[a] + 1;
        queue.push_back(b);
      }
    }
  }

  std::vector<uint32_t> dist(view.num_nodes(), kUnreachable);
  for (uint32_t a = 0; a < s; ++a) {
    if (super_dist[a] == kUnreachable) continue;
    for (NodeId u : view.members(a)) dist[u] = super_dist[a];
  }
  dist[q] = 0;
  return dist;
}

std::vector<double> SummaryDegrees(const SummaryView& view, bool weighted) {
  std::vector<double> out(view.num_nodes(), 0.0);
  for (uint32_t a = 0; a < view.num_supernodes(); ++a) {
    const double deg = view.member_degree(a, weighted);
    for (NodeId u : view.members(a)) out[u] = deg;
  }
  return out;
}

// --- Fused kernels over the KernelPlan -------------------------------------
//
// Two passes per sweep instead of the reference's scatter + apply
// passes (the reference sweeps are the test oracle in
// tests/support/reference_kernels.cc). GatherCross walks the plan's slices and leaves in cross[b] row
// b's incoming mass, summed along row b in ascending-slot order —
// identical to the order the reference's ascending-a scatter deposited
// it, with equal densities because every layout a plan is built from
// stores each superedge symmetrically (see kernel_plan.h). The epilogue
// then walks rows in ascending order, applies the hoisted self rate,
// updates the score and computes the *next* sweep's outflow rate inline.
// Rates are double-buffered (ping/pong) because the gather reads the
// previous sweep's rates while the epilogue writes the next ones.
//
// Every floating-point operation below matches a reference operation
// value-for-value and order-for-order; the only additions relative to
// the reference are bitwise no-ops (`x * 1.0`, `x + 0.0` on
// non-negative x — kernel_plan.h says where each one comes from).
// Goldens are the proof — do not "simplify" the arithmetic here without
// rerunning them.

namespace {

// cross[lane_row] = the lane's slots summed in slot order over x. The
// four lanes of a slice are four independent add chains; pads and
// RWR/PageRank self slots read x's +0.0 columns.
template <bool kWeighted>
void GatherCross(const KernelPlan& plan, const double* x, double* cross) {
  static_assert(KernelPlan::kLanes == 4, "the gather is unrolled for 4 lanes");
  const uint64_t* rb = plan.row_begin.data();
  const uint32_t* dst = plan.dst.data();
  const uint64_t* den_begin = plan.den_begin.data();
  const double* den = plan.den_w.data();
  const uint32_t* lane_row = plan.lane_row.data();
  const uint32_t slices = plan.num_slices();
  for (uint32_t k = 0; k < slices; ++k) {
    const uint32_t* d = dst + rb[k];
    const uint32_t* const end = dst + rb[k + 1];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    if (kWeighted && den_begin[k] != KernelPlan::kUnitSlice) {
      for (const double* w = den + den_begin[k]; d != end; d += 4, w += 4) {
        s0 += w[0] * x[d[0]];
        s1 += w[1] * x[d[1]];
        s2 += w[2] * x[d[2]];
        s3 += w[3] * x[d[3]];
      }
    } else {
      for (; d != end; d += 4) {
        s0 += x[d[0]];
        s1 += x[d[1]];
        s2 += x[d[2]];
        s3 += x[d[3]];
      }
    }
    const uint32_t* rows = lane_row + 4 * static_cast<size_t>(k);
    cross[rows[0]] = s0;
    cross[rows[1]] = s1;
    cross[rows[2]] = s2;
    cross[rows[3]] = s3;
  }
}

// Sizes the scratch for the plan and sets the pad and self columns of both
// sweep vectors to +0.0.
void PrepareScratch(const KernelPlan& plan, KernelScratch& sc) {
  const size_t rows = plan.num_rows();
  const size_t extent = plan.gather_extent();
  sc.Reserve(rows, extent);
  std::fill(sc.ping.begin() + static_cast<ptrdiff_t>(rows),
            sc.ping.begin() + static_cast<ptrdiff_t>(extent), 0.0);
  std::fill(sc.pong.begin() + static_cast<ptrdiff_t>(rows),
            sc.pong.begin() + static_cast<ptrdiff_t>(extent), 0.0);
}

// The plan's live rows either side of the query supernode a0, which
// runs in its own block whether it is live or not.
struct LiveRows {
  const uint32_t* begin;
  const uint32_t* before_end;  // [begin, before_end): rows < a0
  const uint32_t* after;       // [after, end): rows > a0
  const uint32_t* end;
};

LiveRows SplitLiveRows(const KernelPlan& plan, uint32_t a0) {
  LiveRows live;
  live.begin = plan.live_rows.data();
  live.end = live.begin + plan.live_rows.size();
  live.before_end = std::lower_bound(live.begin, live.end, a0);
  live.after = live.before_end != live.end && *live.before_end == a0
                   ? live.before_end + 1
                   : live.before_end;
  return live;
}

template <bool kWeighted>
std::vector<double> FusedRwr(const SummaryView& view, const KernelPlan& plan,
                             NodeId q, double restart_prob,
                             const IterativeQueryOptions& opts,
                             KernelScratch& sc) {
  const uint32_t s = view.num_supernodes();
  const NodeId n = view.num_nodes();
  const uint32_t a0 = view.supernode_of(q);
  const double c = restart_prob;
  const SummaryLayout& layout = view.layout();
  const double* mdv = kWeighted ? layout.member_deg_w : layout.member_deg_uw;
  const double* mcv = layout.member_count;
  const double* srv =
      kWeighted ? plan.self_rate_w.data() : plan.self_rate_uw.data();
  const LiveRows live = SplitLiveRows(plan, a0);

  PrepareScratch(plan, sc);
  double* rho = sc.scores.data();   // score of each non-q member
  double* rate = sc.ping.data();    // this sweep's outflow per degree
  double* rate_next = sc.pong.data();
  double* cross = sc.cross.data();
  std::fill_n(rho, s, 1.0 / n);
  double rho_q = 1.0 / n;  // score of q itself

  // Initial rates from the uniform start vector.
  for (uint32_t a = 0; a < s; ++a) {
    const double md = mdv[a];
    if (md <= 0.0) {
      rate[a] = 0.0;
      continue;
    }
    const double cnt = mcv[a] - (a == a0 ? 1.0 : 0.0);
    const double total_a = cnt * rho[a] + (a == a0 ? rho_q : 0.0);
    rate[a] = total_a / md;
  }

  for (int it = 0; it < opts.max_iterations; ++it) {
    GatherCross<kWeighted>(plan, rate, cross);
    double change = 0.0;
    double new_rho_q = rho_q;
    // The query supernode's extra terms are hoisted into the dedicated
    // a0 block below, so the generic rows carry no per-row `b == a0`
    // checks. Bitwise-equal to the uniform loop: for b != a0 that loop
    // computed `mcv[b] - 0.0` and `cnt * rho[b] + 0.0`, both identity
    // on these non-negative values.
    const auto generic_row = [&](uint32_t b) {
      const double sr = srv[b];
      const double cnt = mcv[b];
      double self_in_members = 0.0;
      if (sr > 0.0) {
        self_in_members = sr * (cnt * rho[b] - rho[b]);
      }
      const double nb = (1.0 - c) * (cross[b] + self_in_members);
      change += cnt * std::abs(nb - rho[b]);
      rho[b] = nb;
      const double md = mdv[b];
      rate_next[b] = md <= 0.0 ? 0.0 : cnt * nb / md;
    };
    // The first sweep moves every row (static rows drop to +0.0); later
    // sweeps walk the live rows only (kernel_plan.h, "Static rows").
    if (it == 0) {
      for (uint32_t b = 0; b < a0; ++b) generic_row(b);
    } else {
      for (const uint32_t* p = live.begin; p != live.before_end; ++p) {
        generic_row(*p);
      }
    }
    {  // b == a0: the row holding q itself
      const double cross_b = cross[a0];
      const double sr = srv[a0];
      const double cnt = mcv[a0] - 1.0;
      double self_in_members = 0.0;
      double self_in_q = 0.0;
      if (sr > 0.0) {
        const double total_b = cnt * rho[a0] + rho_q;
        self_in_members = sr * (total_b - rho[a0]);
        self_in_q = sr * (total_b - rho_q);
      }
      const double nb = (1.0 - c) * (cross_b + self_in_members);
      new_rho_q = c + (1.0 - c) * (cross_b + self_in_q);
      change += cnt * std::abs(nb - rho[a0]);
      rho[a0] = nb;
      const double md = mdv[a0];
      rate_next[a0] = md <= 0.0 ? 0.0 : cnt * nb / md;
    }
    if (it == 0) {
      for (uint32_t b = a0 + 1; b < s; ++b) generic_row(b);
    } else {
      for (const uint32_t* p = live.after; p != live.end; ++p) {
        generic_row(*p);
      }
    }
    change += std::abs(new_rho_q - rho_q);
    rho_q = new_rho_q;
    {  // a0's rate above lacked rho_q, which only settled just now.
      const double md = mdv[a0];
      if (md > 0.0) {
        const double cnt = mcv[a0] - 1.0;
        rate_next[a0] = (cnt * rho[a0] + new_rho_q) / md;
      }
    }
    std::swap(rate, rate_next);
    if (change < opts.tolerance) break;
  }

  std::vector<double> out(n);
  const uint32_t* n2s = layout.node_to_super;
  for (NodeId u = 0; u < n; ++u) out[u] = rho[n2s[u]];
  out[q] = rho_q;
  return out;
}

template <bool kWeighted>
std::vector<double> FusedPhp(const SummaryView& view, const KernelPlan& plan,
                             NodeId q, double decay,
                             const IterativeQueryOptions& opts,
                             KernelScratch& sc) {
  const uint32_t s = view.num_supernodes();
  const NodeId n = view.num_nodes();
  const uint32_t a0 = view.supernode_of(q);
  const SummaryLayout& layout = view.layout();
  const double* mdv = kWeighted ? layout.member_deg_w : layout.member_deg_uw;
  const double* mcv = layout.member_count;
  const LiveRows live = SplitLiveRows(plan, a0);
  const uint32_t* self_rows = plan.self_rows.data();
  const size_t num_self = plan.self_rows.size();
  const uint32_t self_col = plan.pad_index() + 1;

  PrepareScratch(plan, sc);
  double* phi = sc.scores.data();    // non-q member scores
  double* total = sc.ping.data();    // sum of scores inside supernode
  double* total_next = sc.pong.data();
  double* cross = sc.cross.data();
  std::fill_n(phi, s, 0.0);
  // Static rows are never walked, so both buffers hold their +0.0 up
  // front (the next sweep's buffer otherwise only gets live rows).
  std::fill_n(total_next, s, 0.0);
  for (uint32_t a = 0; a < s; ++a) {
    const double cnt = mcv[a] - (a == a0 ? 1.0 : 0.0);
    total[a] = cnt * phi[a] + (a == a0 ? 1.0 : 0.0);
  }

  for (int it = 0; it < opts.max_iterations; ++it) {
    // The reference adds row b's self term `den * (total[b] - phi[b])`
    // at the self slot's position; the self column carries its operand
    // there.
    for (size_t j = 0; j < num_self; ++j) {
      const uint32_t b = self_rows[j];
      total[self_col + j] = total[b] - phi[b];
    }
    GatherCross<kWeighted>(plan, total, cross);
    double change = 0.0;
    // As in FusedRwr: the query supernode's `- 1.0` / `+ 1.0` terms are
    // hoisted into the a0 block so generic rows skip the per-row
    // checks; `mcv[b] - 0.0` and `cnt * nb + 0.0` were identities.
    const auto generic_row = [&](uint32_t b) {
      double nb = 0.0;
      const double md = mdv[b];
      if (md > 0.0) {
        nb = decay * cross[b] / md;
      }
      const double cnt = mcv[b];
      change += cnt * std::abs(nb - phi[b]);
      phi[b] = nb;
      total_next[b] = cnt * nb;
    };
    for (const uint32_t* p = live.begin; p != live.before_end; ++p) {
      generic_row(*p);
    }
    {  // b == a0: the row holding q itself
      double nb = 0.0;
      const double md = mdv[a0];
      if (md > 0.0) {
        nb = decay * cross[a0] / md;
      }
      const double cnt = mcv[a0] - 1.0;
      change += cnt * std::abs(nb - phi[a0]);
      phi[a0] = nb;
      total_next[a0] = cnt * nb + 1.0;
    }
    for (const uint32_t* p = live.after; p != live.end; ++p) {
      generic_row(*p);
    }
    std::swap(total, total_next);
    if (change < opts.tolerance) break;
  }

  std::vector<double> out(n);
  const uint32_t* n2s = layout.node_to_super;
  for (NodeId u = 0; u < n; ++u) out[u] = phi[n2s[u]];
  out[q] = 1.0;
  return out;
}

template <bool kWeighted>
std::vector<double> FusedPageRank(const SummaryView& view,
                                  const KernelPlan& plan, double damping,
                                  const IterativeQueryOptions& opts,
                                  KernelScratch& sc) {
  const uint32_t s = view.num_supernodes();
  const NodeId n = view.num_nodes();
  const SummaryLayout& layout = view.layout();
  const double* mdv = kWeighted ? layout.member_deg_w : layout.member_deg_uw;
  const double* mcv = layout.member_count;
  const double* srv =
      kWeighted ? plan.self_rate_w.data() : plan.self_rate_uw.data();

  PrepareScratch(plan, sc);
  double* rho = sc.scores.data();  // one score per supernode
  double* rate = sc.ping.data();
  double* rate_next = sc.pong.data();
  double* cross = sc.cross.data();
  std::fill_n(rho, s, 1.0 / n);

  // Initial rates and dangling mass (ascending order, as the reference's
  // per-sweep scatter pass accumulates them).
  double dangling = 0.0;
  for (uint32_t a = 0; a < s; ++a) {
    const double total_a = mcv[a] * rho[a];
    const double md = mdv[a];
    if (md <= 0.0) {
      dangling += total_a;
      rate[a] = 0.0;
      continue;
    }
    rate[a] = total_a / md;
  }

  for (int it = 0; it < opts.max_iterations; ++it) {
    GatherCross<kWeighted>(plan, rate, cross);
    const double base = (1.0 - damping) / n + damping * dangling / n;
    double change = 0.0;
    double next_dangling = 0.0;
    for (uint32_t b = 0; b < s; ++b) {
      const double sr = srv[b];
      double self_in = 0.0;
      if (sr > 0.0) {
        // Each member receives from its |b|-1 co-members.
        self_in = sr * (mcv[b] * rho[b] - rho[b]);
      }
      const double nb = base + damping * (cross[b] + self_in);
      change += mcv[b] * std::abs(nb - rho[b]);
      rho[b] = nb;
      const double total_next = mcv[b] * nb;
      const double md = mdv[b];
      if (md <= 0.0) {
        next_dangling += total_next;
        rate_next[b] = 0.0;
      } else {
        rate_next[b] = total_next / md;
      }
    }
    dangling = next_dangling;
    std::swap(rate, rate_next);
    if (change < opts.tolerance) break;
  }

  std::vector<double> out(n);
  const uint32_t* n2s = layout.node_to_super;
  for (NodeId u = 0; u < n; ++u) out[u] = rho[n2s[u]];
  return out;
}

}  // namespace

std::vector<double> SummaryRwrScores(const SummaryView& view, NodeId q,
                                     double restart_prob, bool weighted,
                                     const IterativeQueryOptions& opts,
                                     KernelScratch* scratch) {
  const KernelPlan& plan = view.kernel_plan();
  KernelScratch local;
  KernelScratch& sc = scratch != nullptr ? *scratch : local;
  return weighted ? FusedRwr<true>(view, plan, q, restart_prob, opts, sc)
                  : FusedRwr<false>(view, plan, q, restart_prob, opts, sc);
}

std::vector<double> SummaryPhpScores(const SummaryView& view, NodeId q,
                                     double decay, bool weighted,
                                     const IterativeQueryOptions& opts,
                                     KernelScratch* scratch) {
  const KernelPlan& plan = view.kernel_plan();
  KernelScratch local;
  KernelScratch& sc = scratch != nullptr ? *scratch : local;
  return weighted ? FusedPhp<true>(view, plan, q, decay, opts, sc)
                  : FusedPhp<false>(view, plan, q, decay, opts, sc);
}

std::vector<double> SummaryPageRank(const SummaryView& view, double damping,
                                    bool weighted,
                                    const IterativeQueryOptions& opts,
                                    KernelScratch* scratch) {
  const KernelPlan& plan = view.kernel_plan();
  KernelScratch local;
  KernelScratch& sc = scratch != nullptr ? *scratch : local;
  return weighted ? FusedPageRank<true>(view, plan, damping, opts, sc)
                  : FusedPageRank<false>(view, plan, damping, opts, sc);
}

std::vector<double> SummaryClusteringCoefficients(const SummaryView& view,
                                                  bool weighted) {
  const NodeId n = view.num_nodes();
  std::vector<double> out(n, 0.0);
  const uint32_t* dst = view.edge_dst();
  const double* den = view.edge_density(weighted);

  struct NeighborGroup {
    uint32_t id;
    double prob;   // density of the superedge {A, id}
    double count;  // eligible members (excludes u itself for id == A)
  };
  std::vector<NeighborGroup> groups;  // ascends in id (CSR edge order)
  std::vector<int64_t> slot_of;       // per group position: edge slot or -1

  for (uint32_t a = 0; a < view.num_supernodes(); ++a) {
    if (view.edge_begin(a) == view.edge_end(a)) continue;
    groups.clear();
    for (uint64_t i = view.edge_begin(a); i < view.edge_end(a); ++i) {
      const double count = dst[i] == a ? view.member_count(a) - 1.0
                                       : view.member_count(dst[i]);
      if (count <= 0.0) continue;
      groups.push_back({dst[i], den[i], count});
    }
    slot_of.assign(groups.size(), -1);

    double closed = 0.0, wedges = 0.0;
    for (size_t i = 0; i < groups.size(); ++i) {
      // One merge pass: which superedges {groups[i].id, groups[j].id}
      // exist, for every j at once — linear merges
      // (O(deg_S(A)^2 + Σ_B deg_S(B))) instead of per-pair binary
      // searches. Both sequences ascend in dense id: groups inherits the
      // canonical CSR order of a, and the neighbor's CSR range is the
      // same canonical order.
      const uint64_t nb_begin = view.edge_begin(groups[i].id);
      const uint64_t nb_end = view.edge_end(groups[i].id);
      size_t g = 0;
      for (uint64_t slot = nb_begin; slot < nb_end; ++slot) {
        const uint32_t b = dst[slot];
        while (g < groups.size() && groups[g].id < b) slot_of[g++] = -1;
        if (g < groups.size() && groups[g].id == b) {
          slot_of[g++] = static_cast<int64_t>(slot);
        }
      }
      while (g < groups.size()) slot_of[g++] = -1;

      for (size_t j = i; j < groups.size(); ++j) {
        const double pairs =
            i == j ? groups[i].count * (groups[i].count - 1.0) / 2.0
                   : groups[i].count * groups[j].count;
        if (pairs <= 0.0) continue;
        const double base = groups[i].prob * groups[j].prob * pairs;
        wedges += base;
        const int64_t slot = slot_of[j];
        if (slot >= 0 && view.edge_weight()[slot] > 0) {
          closed += base * (weighted ? view.edge_density(true)[slot] : 1.0);
        }
      }
    }
    const double cc = wedges > 0.0 ? closed / wedges : 0.0;
    for (NodeId u : view.members(a)) out[u] = cc;
  }
  return out;
}

}  // namespace pegasus
