#include "src/baselines/saags.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/personal_weights.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace pegasus {

namespace {

// Count-min sketch over node ids with per-supernode storage flattened into
// one vector: sketch of supernode a occupies rows
// [a * depth, (a+1) * depth) of width `width`.
class SketchBank {
 public:
  SketchBank(uint32_t count, uint32_t width, uint32_t depth, uint64_t seed)
      : width_(width), depth_(depth), cells_(static_cast<size_t>(count) * width * depth, 0) {
    row_seed_.resize(depth);
    for (uint32_t r = 0; r < depth; ++r) {
      row_seed_[r] = SplitMix64(seed + 0x9e3779b97f4a7c15ULL * (r + 1));
    }
  }

  void Add(uint32_t owner, NodeId item, uint32_t amount = 1) {
    for (uint32_t r = 0; r < depth_; ++r) {
      Cell(owner, r, Slot(item, r)) += amount;
    }
  }

  // Merges sketch of `src` into `dst` (cell-wise sum).
  void Merge(uint32_t dst, uint32_t src) {
    uint32_t* d = &cells_[Base(dst)];
    const uint32_t* s = &cells_[Base(src)];
    for (uint32_t i = 0; i < width_ * depth_; ++i) d[i] += s[i];
  }

  // CMS estimate of the multiset-intersection size: min over rows of the
  // cell-wise min-sum.
  uint64_t EstimateIntersection(uint32_t a, uint32_t b) const {
    uint64_t best = UINT64_MAX;
    for (uint32_t r = 0; r < depth_; ++r) {
      uint64_t sum = 0;
      const uint32_t* pa = &cells_[Base(a) + static_cast<size_t>(r) * width_];
      const uint32_t* pb = &cells_[Base(b) + static_cast<size_t>(r) * width_];
      for (uint32_t j = 0; j < width_; ++j) sum += std::min(pa[j], pb[j]);
      best = std::min(best, sum);
    }
    return best;
  }

 private:
  size_t Base(uint32_t owner) const {
    return static_cast<size_t>(owner) * width_ * depth_;
  }
  uint32_t Slot(NodeId item, uint32_t row) const {
    return static_cast<uint32_t>(SplitMix64(row_seed_[row] ^ item) % width_);
  }
  uint32_t& Cell(uint32_t owner, uint32_t row, uint32_t slot) {
    return cells_[Base(owner) + static_cast<size_t>(row) * width_ + slot];
  }

  uint32_t width_;
  uint32_t depth_;
  std::vector<uint32_t> cells_;
  std::vector<uint64_t> row_seed_;
};

}  // namespace

StatusOr<SaagsResult> SaagsSummarize(const Graph& graph,
                                     uint32_t target_supernodes,
                                     const SaagsConfig& config) {
  if (target_supernodes == 0) {
    return Status::InvalidArgument("target supernode count must be >= 1");
  }
  if (config.sketch_width == 0 || config.sketch_depth == 0) {
    return Status::InvalidArgument(
        "count-min sketch needs width >= 1 and depth >= 1");
  }
  Timer timer;
  SaagsResult result{SummaryGraph::Identity(graph)};
  SummaryGraph& summary = result.summary;
  for (SupernodeId a : summary.ActiveSupernodes()) {
    summary.ClearSuperedgesOf(a);
  }

  const NodeId n = graph.num_nodes();
  SketchBank sketches(n, config.sketch_width, config.sketch_depth,
                      SplitMix64(config.seed ^ 0xbb67ae8584caa73bULL));
  std::vector<uint64_t> degree_sum(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : graph.neighbors(u)) sketches.Add(u, v);
    degree_sum[u] = graph.degree(u);
  }

  Rng rng(SplitMix64(config.seed ^ 0x3c6ef372fe94f82bULL));
  std::vector<SupernodeId> active = summary.ActiveSupernodes();
  const uint32_t candidates_per_step = std::max<uint32_t>(
      2, static_cast<uint32_t>(std::log2(std::max<NodeId>(2, n))));

  while (summary.num_supernodes() > target_supernodes && active.size() > 1) {
    if (config.time_limit_seconds > 0.0 &&
        timer.ElapsedSeconds() > config.time_limit_seconds) {
      result.timed_out = true;
      break;
    }
    const size_t pivot_idx = static_cast<size_t>(rng.Uniform(active.size()));
    const SupernodeId pivot = active[pivot_idx];

    double best_score = -1.0;
    SupernodeId best = pivot;
    for (uint32_t i = 0; i < candidates_per_step; ++i) {
      size_t j = static_cast<size_t>(rng.Uniform(active.size() - 1));
      if (j >= pivot_idx) ++j;
      const SupernodeId cand = active[j];
      const uint64_t inter = sketches.EstimateIntersection(pivot, cand);
      const uint64_t uni =
          degree_sum[pivot] + degree_sum[cand] -
          std::min<uint64_t>(inter, degree_sum[pivot] + degree_sum[cand]);
      const double jaccard =
          uni == 0 ? 0.0
                   : static_cast<double>(inter) / static_cast<double>(uni);
      if (jaccard > best_score) {
        best_score = jaccard;
        best = cand;
      }
    }
    if (best == pivot) break;

    SupernodeId winner = summary.MergeSupernodes(pivot, best);
    SupernodeId loser = winner == pivot ? best : pivot;
    sketches.Merge(winner, loser);
    degree_sum[winner] += degree_sum[loser];
    active.erase(std::remove(active.begin(), active.end(), loser),
                 active.end());
  }

  // Dense density superedges, as for GraSS.
  const PersonalWeights weights = PersonalWeights::Compute(graph, {}, 1.0);
  CostModel cost(graph, weights, summary, EncodingScheme::kErrorCorrection);
  std::vector<IncidentPair> incident;
  for (SupernodeId a : summary.ActiveSupernodes()) {
    cost.CollectIncident(a, incident);
    for (const IncidentPair& p : incident) {
      if (p.neighbor < a) continue;
      if (p.edge_count > 0) summary.SetSuperedge(a, p.neighbor, p.edge_count);
    }
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace pegasus
