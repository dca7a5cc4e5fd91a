#include "src/core/parallel_engine.h"

#include <algorithm>
#include <cmath>

namespace pegasus {

namespace {
// Same guard as the cost model's (cost_model.cc).
constexpr double kEps = 1e-12;
}  // namespace

// ---------------------------------------------------------------------------
// GroupMergePlanner

GroupMergePlanner::GroupMergePlanner(const Graph& graph,
                                     const SummaryGraph& summary,
                                     const CostModel& cost, MergeScore score)
    : graph_(graph), summary_(summary), cost_(cost), score_(score) {
  const SupernodeId bound = summary.id_bound();
  group_slot_.assign(bound, 0);
  group_slot_stamp_.assign(bound, 0);
  scratch_.Resize(bound);
}

uint32_t GroupMergePlanner::FindRoot(uint32_t i) {
  while (locals_[i].parent != i) {
    locals_[i].parent = locals_[locals_[i].parent].parent;
    i = locals_[i].parent;
  }
  return i;
}

uint32_t GroupMergePlanner::LocalSlot(SupernodeId id) const {
  return group_slot_stamp_[id] == group_stamp_ ? group_slot_[id] : UINT32_MAX;
}

double GroupMergePlanner::PiOf(SupernodeId canonical_id) const {
  const uint32_t slot = LocalSlot(canonical_id);
  // A canonical local key always names a live root (BuildCanonical re-maps
  // retired ids), so its slot holds the current local aggregate; remote
  // supernodes are frozen for the whole planning phase, so the shared
  // cost-model sum is current for them.
  return slot == UINT32_MAX ? cost_.Pi(canonical_id) : locals_[slot].pi;
}

void GroupMergePlanner::CollectFrozen(SupernodeId a, Local& out) {
  CollectIncidentPairs(graph_, summary_, cost_.weights(), a, scratch_,
                       collect_buf_);
  out.self_weight = 0.0;
  out.self_count = 0;
  out.ext.clear();
  for (const IncidentPair& p : collect_buf_) {
    if (p.neighbor == a) {
      out.self_weight = p.edge_weight;
      out.self_count = p.edge_count;
    } else {
      out.ext.push_back(p);
    }
  }
}

void GroupMergePlanner::BuildCanonical(uint32_t root, CanonicalView& out) {
  const Local& local = locals_[root];
  out.self_weight = local.self_weight;
  out.self_count = local.self_count;
  out.ext.clear();
  scratch_.NextEpoch();
  for (const IncidentPair& p : local.ext) {
    SupernodeId key = p.neighbor;
    const uint32_t slot = LocalSlot(key);
    if (slot != UINT32_MAX) {
      const uint32_t rep = FindRoot(slot);
      if (rep == root) {
        // The keyed supernode has since merged into `root` itself; its
        // pairs are internal now (folds normally handle this — keep it as
        // a defensive invariant).
        out.self_weight += p.edge_weight;
        out.self_count += p.edge_count;
        continue;
      }
      key = locals_[rep].orig;
    }
    scratch_.Add(key, p.edge_weight, p.edge_count);
  }
  for (SupernodeId key : scratch_.touched) {
    out.ext.push_back({key, scratch_.weight[key], scratch_.count[key]});
  }
}

double GroupMergePlanner::ViewCost(const CanonicalView& view, double self_pi,
                                   double self_pi2,
                                   double superedge_bits) const {
  const double z = cost_.weights().Z();
  double total = 0.0;
  for (const IncidentPair& p : view.ext) {
    const double potential = self_pi * PiOf(p.neighbor) / z;
    total += cost_.PairCost(potential, p.edge_weight, superedge_bits);
  }
  if (view.self_count > 0 || view.self_weight > kEps) {
    const double potential = (self_pi * self_pi - self_pi2) / (2.0 * z);
    total += cost_.PairCost(potential, view.self_weight, superedge_bits);
  }
  return total;
}

const GroupMergePlanner::MemoView& GroupMergePlanner::View(
    uint32_t root, double superedge_bits) {
  MemoView& memo = views_[root];
  if (memo.epoch != view_epoch_) {
    BuildCanonical(root, memo.view);
    memo.cost = ViewCost(memo.view, locals_[root].pi, locals_[root].pi2,
                         superedge_bits);
    memo.epoch = view_epoch_;
  }
  return memo;
}

MergeEval GroupMergePlanner::EvaluateLocal(uint32_t ra, uint32_t rb,
                                           double superedge_bits,
                                           double merged_bits) {
  const MemoView& memo_a = View(ra, superedge_bits);
  const MemoView& memo_b = View(rb, superedge_bits);
  const CanonicalView& va = memo_a.view;
  const CanonicalView& vb = memo_b.view;
  const Local& a = locals_[ra];
  const Local& b = locals_[rb];

  // Cost of the pair {a, b} itself, counted in both supernode costs
  // (Eq. 10 subtracts it once).
  double edge_weight_ab = 0.0;
  for (const IncidentPair& p : va.ext) {
    if (p.neighbor == b.orig) {
      edge_weight_ab = p.edge_weight;
      break;
    }
  }
  const double z = cost_.weights().Z();
  const double cost_ab =
      cost_.PairCost(a.pi * b.pi / z, edge_weight_ab, superedge_bits);

  // Fold the two canonical views into the hypothetical merged supernode.
  // The cross pair {a, b} appears in both views; count it from a's side.
  CanonicalView& vm = view_m_;
  vm.self_weight = va.self_weight + vb.self_weight;
  vm.self_count = va.self_count + vb.self_count;
  vm.ext.clear();
  scratch_.NextEpoch();
  for (const IncidentPair& p : va.ext) {
    if (p.neighbor == b.orig) {
      vm.self_weight += p.edge_weight;
      vm.self_count += p.edge_count;
    } else {
      scratch_.Add(p.neighbor, p.edge_weight, p.edge_count);
    }
  }
  for (const IncidentPair& p : vb.ext) {
    if (p.neighbor == a.orig) continue;
    scratch_.Add(p.neighbor, p.edge_weight, p.edge_count);
  }
  for (SupernodeId key : scratch_.touched) {
    vm.ext.push_back({key, scratch_.weight[key], scratch_.count[key]});
  }

  const double merged_pi = a.pi + b.pi;
  const double merged_pi2 = a.pi2 + b.pi2;
  const double cost_merged = ViewCost(vm, merged_pi, merged_pi2, merged_bits);

  MergeEval eval;
  const double base = memo_a.cost + memo_b.cost - cost_ab;
  eval.absolute = base - cost_merged;
  if (base > kEps) {
    eval.relative = eval.absolute / base;
  } else {
    eval.relative = eval.absolute >= -kEps ? 1.0 : -1.0;
  }
  return eval;
}

uint32_t GroupMergePlanner::MergeLocal(uint32_t ra, uint32_t rb) {
  // Mirror SummaryGraph::MergeSupernodes' winner rule for the argument
  // order (ra, rb), so the staged apply resolves to the same winner id.
  const uint32_t winner =
      locals_[ra].num_members >= locals_[rb].num_members ? ra : rb;
  const uint32_t loser = winner == ra ? rb : ra;
  Local& w = locals_[winner];
  Local& l = locals_[loser];
  w.pi += l.pi;
  w.pi2 += l.pi2;
  w.num_members += l.num_members;
  w.self_weight = view_m_.self_weight;
  w.self_count = view_m_.self_count;
  w.ext.swap(view_m_.ext);
  l.alive = false;
  l.parent = winner;
  l.ext.clear();
  // The union-find, the aggregates and |S| all changed: every root's view
  // and cost may differ now.
  ++view_epoch_;
  return winner;
}

GroupPlan GroupMergePlanner::PlanGroup(std::span<const SupernodeId> group,
                                       double theta,
                                       uint32_t snapshot_supernodes,
                                       uint64_t group_seed) {
  GroupPlan plan;
  const size_t m = group.size();
  if (m < 2) return plan;

  ++group_stamp_;
  ++view_epoch_;
  locals_.clear();
  locals_.resize(m);
  if (views_.size() < m) views_.resize(m);
  for (uint32_t i = 0; i < m; ++i) {
    const SupernodeId id = group[i];
    Local& local = locals_[i];
    CollectFrozen(id, local);
    local.orig = id;
    local.parent = i;
    local.alive = true;
    local.pi = cost_.Pi(id);
    local.pi2 = cost_.Pi2(id);
    local.num_members = summary_.members(id).size();
    group_slot_[id] = i;
    group_slot_stamp_[id] = group_stamp_;
  }

  // `active` mirrors the serial engine's mutable group vector; entries are
  // local roots. The loop below is Alg. 2 exactly as MergeEngine runs it,
  // except that every read goes through the frozen snapshot + local
  // overlay and |S| is the snapshot count minus this group's own merges.
  std::vector<uint32_t> active(m);
  for (uint32_t i = 0; i < m; ++i) active[i] = i;
  uint32_t s_view = snapshot_supernodes;
  Rng rng(SplitMix64(group_seed));
  int fails = 0;
  while (active.size() > 1) {
    const double max_fails = std::log2(static_cast<double>(active.size()));
    if (fails > static_cast<int>(max_fails)) break;

    // 2 log2|S| now and after one more merge, for every pair this round.
    const double bits = CostModel::SuperedgeBits(s_view);
    const double merged_bits =
        CostModel::SuperedgeBits(s_view > 1 ? s_view - 1 : 1);

    const size_t num_samples = active.size();
    double best_score = -1e300;
    uint32_t best_a = 0, best_b = 0;
    for (size_t i = 0; i < num_samples; ++i) {
      size_t x = static_cast<size_t>(rng.Uniform(active.size()));
      size_t y = static_cast<size_t>(rng.Uniform(active.size() - 1));
      if (y >= x) ++y;
      MergeEval eval = EvaluateLocal(active[x], active[y], bits, merged_bits);
      ++plan.evaluations;
      const double score = eval.score(score_);
      if (score > best_score) {
        best_score = score;
        best_a = active[x];
        best_b = active[y];
      }
    }

    if (best_score >= theta) {
      // Re-derive the merged view for the chosen pair (view_m_ holds the
      // last sampled pair's, not necessarily the best one's).
      EvaluateLocal(best_a, best_b, bits, merged_bits);
      plan.merges.emplace_back(locals_[best_a].orig, locals_[best_b].orig);
      const uint32_t winner = MergeLocal(best_a, best_b);
      const uint32_t loser = winner == best_a ? best_b : best_a;
      active.erase(std::remove(active.begin(), active.end(), loser),
                   active.end());
      if (std::find(active.begin(), active.end(), winner) == active.end()) {
        active.push_back(winner);
      }
      if (s_view > 1) --s_view;
      fails = 0;
    } else {
      plan.failures.push_back(best_score);
      ++fails;
    }
  }
  return plan;
}

void GroupMergePlanner::ComputeReselection(
    SupernodeId a, std::vector<std::pair<SupernodeId, uint32_t>>& kept) {
  kept.clear();
  CollectIncidentPairs(graph_, summary_, cost_.weights(), a, scratch_,
                       collect_buf_);
  const double bits = CostModel::SuperedgeBits(summary_.num_supernodes());
  for (const IncidentPair& p : collect_buf_) {
    const double potential = cost_.PairPotential(a, p.neighbor);
    if (cost_.SuperedgeBeneficial(potential, p.edge_weight, bits)) {
      kept.emplace_back(p.neighbor, p.edge_count);
    }
  }
}

// ---------------------------------------------------------------------------
// ParallelEngine

ParallelEngine::ParallelEngine(const Graph& graph, SummaryGraph& summary,
                               CostModel& cost, MergeScore score,
                               const CandidateGroupsOptions& groups,
                               Executor& pool)
    : graph_(graph),
      summary_(summary),
      cost_(cost),
      group_options_(groups),
      pool_(pool),
      engine_(graph, summary, cost, score) {
  planners_.reserve(static_cast<size_t>(pool.num_workers()));
  for (int i = 0; i < pool.num_workers(); ++i) {
    planners_.emplace_back(graph, summary, cost, score);
  }
}

uint64_t ParallelEngine::RunRound(uint64_t round_seed,
                                  ThresholdPolicy& threshold) {
  // Phase 1: deterministic parallel candidate generation.
  std::vector<std::vector<SupernodeId>> groups = GenerateCandidateGroupsParallel(
      graph_, summary_, round_seed, group_options_, pool_);
  if (groups.empty()) return 0;

  // Phase 2: plan all groups against the frozen snapshot. Writes go to
  // index-addressed plan slots and per-worker planners only.
  const double theta = threshold.theta();
  const uint32_t snapshot = summary_.num_supernodes();
  std::vector<GroupPlan> plans(groups.size());
  pool_.ParallelFor(
      groups.size(), /*grain=*/1, [&](int worker, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const std::vector<SupernodeId>& group = groups[i];
          const SupernodeId min_id =
              *std::min_element(group.begin(), group.end());
          const uint64_t group_seed =
              round_seed ^ SplitMix64(0x8bb84b93962eacc9ULL + min_id);
          plans[i] =
              planners_[worker].PlanGroup(group, theta, snapshot, group_seed);
        }
      });

  // Phase 3: apply every plan in candidate order (single-threaded; see the
  // SummaryGraph thread-safety contract) and fold failure logs + stats.
  uint64_t merges = 0;
  std::vector<SupernodeId> winners;
  for (const GroupPlan& plan : plans) {
    for (const auto& [a, b] : plan.merges) {
      winners.push_back(engine_.ApplyMergeDeferred(a, b));
      ++merges;
    }
    threshold.RecordFailures(plan.failures);
    MergeStats planned;
    planned.evaluations = plan.evaluations;
    planned.failures = plan.failures.size();
    engine_.AccumulateStats(planned);
  }
  if (merges == 0) return 0;

  // Phase 4: superedge reselection for every merged supernode that is
  // still alive — kept sets computed in parallel against the quiescent
  // post-merge summary, installed serially in ascending id order.
  std::sort(winners.begin(), winners.end());
  winners.erase(std::unique(winners.begin(), winners.end()), winners.end());
  std::erase_if(winners,
                [&](SupernodeId w) { return !summary_.alive(w); });
  std::vector<std::vector<std::pair<SupernodeId, uint32_t>>> kept(
      winners.size());
  pool_.ParallelFor(winners.size(), /*grain=*/4,
                    [&](int worker, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        planners_[worker].ComputeReselection(winners[i],
                                                             kept[i]);
                      }
                    });
  for (size_t i = 0; i < winners.size(); ++i) {
    engine_.ApplySuperedgeSelection(winners[i], kept[i]);
  }
  return merges;
}

}  // namespace pegasus
