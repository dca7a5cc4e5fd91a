#include "src/core/parallel_engine.h"

#include <algorithm>
#include <cmath>

namespace pegasus {

// ---------------------------------------------------------------------------
// GroupMergePlanner

GroupMergePlanner::GroupMergePlanner(const Graph& graph,
                                     const SummaryGraph& summary,
                                     const CostModel& cost, MergeScore score)
    : graph_(graph), summary_(summary), cost_(cost), score_(score) {
  const SupernodeId bound = summary.id_bound();
  group_slot_.Resize(bound);
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
  return group_slot_.Live(id) ? group_slot_[id].index : UINT32_MAX;
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

void GroupMergePlanner::BuildCanonical(uint32_t root, MemoView& memo) {
  const Local& local = locals_[root];
  memo.self_weight = local.self_weight;
  memo.self_count = local.self_count;
  memo.canonical.clear();
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
        memo.self_weight += p.edge_weight;
        memo.self_count += p.edge_count;
        continue;
      }
      key = locals_[rep].orig;
    }
    scratch_.Add(key, p.edge_weight, p.edge_count);
  }
  for (SupernodeId key : scratch_.touched) {
    memo.canonical.push_back({key, scratch_.count(key), scratch_.weight(key)});
  }
  memo.ext = memo.canonical;
}

const GroupMergePlanner::MemoView& GroupMergePlanner::View(
    uint32_t root, double superedge_bits) {
  MemoView& memo = views_[root];
  if (memo.epoch == view_epoch_) return memo;
  const Local& local = locals_[root];
  if (group_merged_) {
    BuildCanonical(root, memo);
  } else {
    // Every id is still its own representative: the canonical view is
    // the collected list, pair for pair.
    memo.ext = local.ext;
    memo.self_weight = local.self_weight;
    memo.self_count = local.self_count;
  }
  // Eq. 9 over the view: every external pair, then the self pair.
  const double z = cost_.weights().Z();
  memo.neighbor_pi.resize(memo.ext.size());
  double total = 0.0;
  for (size_t i = 0; i < memo.ext.size(); ++i) {
    const IncidentPair& p = memo.ext[i];
    memo.neighbor_pi[i] = PiOf(p.neighbor);
    total += cost_.PairCost(local.pi * memo.neighbor_pi[i] / z, p.edge_weight,
                            superedge_bits);
  }
  if (memo.self_count > 0 || memo.self_weight > kCostEpsilon) {
    const double potential = (local.pi * local.pi - local.pi2) / (2.0 * z);
    total += cost_.PairCost(potential, memo.self_weight, superedge_bits);
  }
  memo.cost = total;
  memo.epoch = view_epoch_;
  return memo;
}

MergeEval GroupMergePlanner::EvaluateLocal(uint32_t ra, uint32_t rb,
                                           double superedge_bits,
                                           double merged_bits) {
  const MemoView& va = View(ra, superedge_bits);
  const MemoView& vb = View(rb, superedge_bits);
  const Local& a = locals_[ra];
  const Local& b = locals_[rb];
  const double z = cost_.weights().Z();
  const double merged_pi = a.pi + b.pi;
  const double merged_pi2 = a.pi2 + b.pi2;

  // Index b's neighbors so a's pass finds the ones both views share. The
  // aggregation scratch is idle between folds and serves as the id ->
  // index map: a live slot's count is the pair's index in vb.ext.
  scratch_.NextEpoch();
  for (uint32_t j = 0; j < vb.ext.size(); ++j) {
    scratch_.slots.Claim(vb.ext[j].neighbor);
    scratch_.slots[vb.ext[j].neighbor].count = j;
  }
  shared_.assign(vb.ext.size(), 0);

  // Cost of the hypothetical merged supernode, pair by pair in the order
  // MergeLocal lays its pair list out: a's pairs (plus b's weight to a
  // shared neighbor), then b's pairs a lacks, then the self pair. The
  // cross pair {a, b} becomes internal; it is counted from a's side.
  double self_weight = va.self_weight + vb.self_weight;
  uint32_t self_count = va.self_count + vb.self_count;
  double edge_weight_ab = 0.0;
  double cost_merged = 0.0;
  for (size_t i = 0; i < va.ext.size(); ++i) {
    const IncidentPair& p = va.ext[i];
    if (p.neighbor == b.orig) {
      edge_weight_ab = p.edge_weight;
      self_weight += p.edge_weight;
      self_count += p.edge_count;
      continue;
    }
    double edge_weight = p.edge_weight;
    if (scratch_.slots.Live(p.neighbor)) {
      const uint32_t j = scratch_.slots[p.neighbor].count;
      edge_weight += vb.ext[j].edge_weight;
      shared_[j] = 1;
    }
    cost_merged += cost_.PairCost(merged_pi * va.neighbor_pi[i] / z,
                                  edge_weight, merged_bits);
  }
  for (size_t j = 0; j < vb.ext.size(); ++j) {
    const IncidentPair& p = vb.ext[j];
    if (shared_[j] || p.neighbor == a.orig) continue;
    cost_merged += cost_.PairCost(merged_pi * vb.neighbor_pi[j] / z,
                                  p.edge_weight, merged_bits);
  }
  if (self_count > 0 || self_weight > kCostEpsilon) {
    const double potential =
        (merged_pi * merged_pi - merged_pi2) / (2.0 * z);
    cost_merged += cost_.PairCost(potential, self_weight, merged_bits);
  }

  // Cost of the pair {a, b} itself, counted in both supernode costs
  // (Eq. 10 subtracts it once).
  const double cost_ab =
      cost_.PairCost(a.pi * b.pi / z, edge_weight_ab, superedge_bits);

  MergeEval eval;
  const double base = va.cost + vb.cost - cost_ab;
  eval.absolute = base - cost_merged;
  if (base > kCostEpsilon) {
    eval.relative = eval.absolute / base;
  } else {
    eval.relative = eval.absolute >= -kCostEpsilon ? 1.0 : -1.0;
  }
  return eval;
}

uint32_t GroupMergePlanner::MergeLocal(uint32_t ra, uint32_t rb,
                                       double superedge_bits) {
  const MemoView& va = View(ra, superedge_bits);
  const MemoView& vb = View(rb, superedge_bits);
  // Fold the two views into the merged supernode's pair list. The cross
  // pair {a, b} appears in both views; count it from a's side.
  const SupernodeId a_orig = locals_[ra].orig;
  const SupernodeId b_orig = locals_[rb].orig;
  double self_weight = va.self_weight + vb.self_weight;
  uint32_t self_count = va.self_count + vb.self_count;
  scratch_.NextEpoch();
  for (const IncidentPair& p : va.ext) {
    if (p.neighbor == b_orig) {
      self_weight += p.edge_weight;
      self_count += p.edge_count;
    } else {
      scratch_.Add(p.neighbor, p.edge_weight, p.edge_count);
    }
  }
  for (const IncidentPair& p : vb.ext) {
    if (p.neighbor == a_orig) continue;
    scratch_.Add(p.neighbor, p.edge_weight, p.edge_count);
  }
  merged_ext_.clear();
  for (SupernodeId key : scratch_.touched) {
    merged_ext_.push_back({key, scratch_.count(key), scratch_.weight(key)});
  }

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
  w.self_weight = self_weight;
  w.self_count = self_count;
  w.ext.swap(merged_ext_);
  l.alive = false;
  l.parent = winner;
  l.ext.clear();
  // The union-find, the aggregates and |S| all changed: every root's view
  // and cost may differ now.
  group_merged_ = true;
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

  group_slot_.NextEpoch();
  group_merged_ = false;
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
    group_slot_.Claim(id);
    group_slot_[id].index = i;
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
      plan.merges.emplace_back(locals_[best_a].orig, locals_[best_b].orig);
      const uint32_t winner = MergeLocal(best_a, best_b, bits);
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
