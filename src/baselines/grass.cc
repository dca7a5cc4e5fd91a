#include "src/baselines/grass.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/personal_weights.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace pegasus {

namespace {

// L1 error of one density block: with T node pairs of which E are edges,
// the density is d = E/T and the (unordered) L1 error is
// E*(1-d) + (T-E)*d = 2 E (T-E) / T.
double BlockError(double potential, double edges) {
  if (potential <= 0.0) return 0.0;
  edges = std::min(edges, potential);
  return 2.0 * edges * (potential - edges) / potential;
}

// Total density error of a supernode's incident blocks.
double SupernodeError(CostModel& cost, SupernodeId a,
                      std::vector<IncidentPair>& buf) {
  cost.CollectIncident(a, buf);
  double total = 0.0;
  for (const IncidentPair& p : buf) {
    total += BlockError(cost.PairPotential(a, p.neighbor), p.edge_weight);
  }
  return total;
}

}  // namespace

StatusOr<GrassResult> GrassSummarize(const Graph& graph,
                                     uint32_t target_supernodes,
                                     const GrassConfig& config) {
  if (target_supernodes == 0) {
    return Status::InvalidArgument("target supernode count must be >= 1");
  }
  if (std::isnan(config.sample_pairs_c) || config.sample_pairs_c <= 0.0) {
    return Status::InvalidArgument("sample_pairs_c must be positive, got " +
                                   std::to_string(config.sample_pairs_c));
  }
  Timer timer;
  GrassResult result{SummaryGraph::Identity(graph)};
  SummaryGraph& summary = result.summary;
  // Drop the identity superedges; GraSS maintains the partition only and
  // emits density superedges at the end.
  for (SupernodeId a : summary.ActiveSupernodes()) {
    summary.ClearSuperedgesOf(a);
  }

  // Uniform weights: CostModel aggregates then give exact pair/edge counts.
  const PersonalWeights weights = PersonalWeights::Compute(graph, {}, 1.0);
  CostModel cost(graph, weights, summary, EncodingScheme::kErrorCorrection);
  Rng rng(SplitMix64(config.seed ^ 0x6a09e667f3bcc909ULL));

  std::vector<SupernodeId> active = summary.ActiveSupernodes();
  std::vector<IncidentPair> buf_a, buf_b, buf_m;

  while (summary.num_supernodes() > target_supernodes && active.size() > 1) {
    if (config.time_limit_seconds > 0.0 &&
        timer.ElapsedSeconds() > config.time_limit_seconds) {
      result.timed_out = true;
      break;
    }
    const size_t num_samples = std::max<size_t>(
        1, static_cast<size_t>(config.sample_pairs_c *
                               static_cast<double>(active.size())));
    double best_delta = 1e300;
    SupernodeId best_a = 0, best_b = 0;
    bool found = false;
    for (size_t i = 0; i < num_samples; ++i) {
      size_t x = static_cast<size_t>(rng.Uniform(active.size()));
      size_t y = static_cast<size_t>(rng.Uniform(active.size() - 1));
      if (y >= x) ++y;
      const SupernodeId a = active[x], b = active[y];

      // Error before: blocks of a plus blocks of b, minus the shared
      // block counted twice.
      const double err_a = SupernodeError(cost, a, buf_a);
      double edges_ab = 0.0;
      for (const IncidentPair& p : buf_a) {
        if (p.neighbor == b) edges_ab = p.edge_weight;
      }
      const double err_b = SupernodeError(cost, b, buf_b);
      const double err_ab =
          BlockError(cost.PairPotential(a, b), edges_ab);
      const double before = err_a + err_b - err_ab;

      // Error after: merge the incident block lists.
      buf_m.clear();
      double self_edges = 0.0;
      double merged_pi = cost.Pi(a) + cost.Pi(b);
      double merged_pi2 = cost.Pi2(a) + cost.Pi2(b);
      auto fold = [&](const std::vector<IncidentPair>& buf, bool from_a) {
        for (const IncidentPair& p : buf) {
          if (p.neighbor == a || p.neighbor == b) {
            if (!from_a && p.neighbor == a) continue;
            self_edges += p.edge_weight;
            continue;
          }
          bool merged = false;
          for (IncidentPair& q : buf_m) {
            if (q.neighbor == p.neighbor) {
              q.edge_weight += p.edge_weight;
              merged = true;
              break;
            }
          }
          if (!merged) buf_m.push_back(p);
        }
      };
      fold(buf_a, true);
      fold(buf_b, false);
      double after = 0.0;
      const double z = 1.0;  // uniform weights: Z = 1
      for (const IncidentPair& p : buf_m) {
        after += BlockError(merged_pi * cost.Pi(p.neighbor) / z,
                            p.edge_weight);
      }
      after += BlockError((merged_pi * merged_pi - merged_pi2) / (2.0 * z),
                          self_edges);

      const double delta = after - before;
      if (!found || delta < best_delta) {
        found = true;
        best_delta = delta;
        best_a = a;
        best_b = b;
      }
    }
    if (!found) break;
    SupernodeId winner = summary.MergeSupernodes(best_a, best_b);
    cost.OnMerge(best_a, best_b, winner);
    SupernodeId loser = winner == best_a ? best_b : best_a;
    active.erase(std::remove(active.begin(), active.end(), loser),
                 active.end());
  }

  // Emit density superedges: every block with at least one real edge.
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
