// Shared-memory parallel summarization engine.
//
// Parallelizes one PeGaSus round (candidate generation + merging &
// addition, Sec. III-C/III-D) across a thread pool while keeping the
// output a deterministic function of the seed alone: the same
// (graph, T, k, seed) produces the identical summary on any worker count
// and any scheduling. One round runs in four phases:
//
//   1. Candidate generation (parallel): shingles via ParallelFor, group-by
//      via sort — see GenerateCandidateGroupsParallel.
//   2. Merge planning (parallel): candidate groups are disjoint supernode
//      sets, so each is planned independently by a per-worker
//      GroupMergePlanner running Alg. 2 against the FROZEN iteration-start
//      snapshot of the summary and cost aggregates, plus a group-local
//      overlay for its own merges. Each group draws from its own Rng
//      stream derived as round_seed ^ SplitMix64(group_min_id), so its
//      plan is independent of which worker runs it and in what order.
//      The planner's |S| view is the snapshot count minus its own merges.
//      Evaluation is incremental and cost-only: a local root's canonical
//      view, the pi of its neighbors and its Eq. 9 cost depend only on the
//      group's union-find, the local aggregates and |S|, which change only
//      when the planner merges, so each is built once and reused by every
//      sampled pair until the next merge in the group or the next group
//      invalidates it (see GroupMergePlanner::View). Before the group's
//      first merge a view is the collected pair list itself. Scoring a
//      pair sums the merged supernode's cost in one pass over the two
//      views (a's pairs, then b's pairs a lacks, then the self pair); the
//      merged pair list is folded only for an accepted merge. Both replay
//      the floating-point operations of building the merged view and
//      costing it, in the same order on the same inputs, so plans are
//      bit-identical to rebuilding per pair.
//   3. Apply (serial barrier): planned merges are applied group-by-group
//      in candidate order (MergeEngine::ApplyMergeDeferred), per-group
//      failure logs are folded into the ThresholdPolicy, and per-worker
//      MergeStats are reduced — all in deterministic order.
//   4. Superedge reselection (parallel compute, serial apply): superedge
//      reselection on a merged supernode reads the partition assignment
//      of neighbors owned by other groups, so it cannot run during phase
//      2/3 mutation. DESIGN CHOICE: instead of guarding SummaryGraph with
//      striped locks over supernode ids (which would make the outcome
//      depend on interleaving and is poison for determinism), merges are
//      staged per-group and reselection runs as a second sweep: the kept
//      superedge set of every merged supernode is computed in parallel
//      against the now-quiescent post-merge partition (read-only), then
//      installed serially in ascending supernode order so the adjacency
//      maps end up in an implementation-deterministic state.
//
// Differences from the serial schedule (num_threads == 1), which is kept
// byte-identical to its historical behavior: the serial engine consumes
// one shared Rng stream across groups, evaluates merges against the live
// |S| and partition (including earlier groups' merges of the same
// iteration), checks the budget after every group, and reselects
// superedges immediately after each merge. The parallel engine freezes
// all cross-group state at the round barrier, so its (equally valid)
// summaries differ from the serial ones for the same seed — but never
// across worker counts.

#ifndef PEGASUS_CORE_PARALLEL_ENGINE_H_
#define PEGASUS_CORE_PARALLEL_ENGINE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/core/candidate_groups.h"
#include "src/core/cost_model.h"
#include "src/core/merge_engine.h"
#include "src/core/summary_graph.h"
#include "src/core/threshold.h"
#include "src/graph/graph.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/stamped_slots.h"

namespace pegasus {

// The outcome of planning one candidate group: the accepted merges in
// decision order (pairs of supernode ids that are alive when the plan is
// replayed in order), the rejected best scores for adaptive thresholding,
// and the evaluation count.
struct GroupPlan {
  std::vector<std::pair<SupernodeId, SupernodeId>> merges;
  std::vector<double> failures;
  uint64_t evaluations = 0;
};

// Per-worker planner. Runs Alg. 2 on one candidate group against the
// frozen summary/cost snapshot; its own merges live in a group-local
// overlay (union-find over the group's supernodes plus folded incident
// lists), so concurrent planners never write shared state. Scratch is
// O(id_bound) and reused across groups, which is why instances are
// per-worker rather than per-group.
class GroupMergePlanner {
 public:
  GroupMergePlanner(const Graph& graph, const SummaryGraph& summary,
                    const CostModel& cost, MergeScore score);

  // Plans merges for `group` with the frozen threshold `theta` and the
  // iteration-start supernode count `snapshot_supernodes`. Deterministic
  // in (summary snapshot, group, theta, snapshot_supernodes, group_seed).
  GroupPlan PlanGroup(std::span<const SupernodeId> group, double theta,
                      uint32_t snapshot_supernodes, uint64_t group_seed);

  // Phase-4 helper: computes the superedges to keep for supernode `a`
  // against the live (post-merge, quiescent) summary — the Alg. 2 line 9
  // decision rule with the current |S|. Read-only on shared state.
  void ComputeReselection(SupernodeId a,
                          std::vector<std::pair<SupernodeId, uint32_t>>& kept);

 private:
  // One group supernode: its current representative id, local aggregates,
  // and its incident pairs. `ext` keys are supernode ids that may have
  // retired locally since the entry was written; BuildCanonical() re-maps
  // them through the local union-find on use. Remote ids are frozen for
  // the whole planning phase, so they are always current.
  struct Local {
    SupernodeId orig = 0;
    uint32_t parent = 0;  // local union-find; parent == own index => root
    bool alive = true;
    double pi = 0.0;
    double pi2 = 0.0;
    size_t num_members = 0;  // drives the MergeSupernodes winner rule
    double self_weight = 0.0;
    uint32_t self_count = 0;
    std::vector<IncidentPair> ext;
  };

  // Memoized canonical view of one local root: its self pair, its
  // externally keyed pairs with current representative ids, the pi of
  // each of those neighbors, and its Eq. 9 cost; valid iff epoch ==
  // view_epoch_. Before the group's first local merge every id is its own
  // representative, so `ext` points at the root's Local::ext; after it,
  // at `canonical`.
  struct MemoView {
    std::span<const IncidentPair> ext;
    std::vector<IncidentPair> canonical;
    std::vector<double> neighbor_pi;  // parallel to ext
    double self_weight = 0.0;
    uint32_t self_count = 0;
    double cost = 0.0;
    uint64_t epoch = 0;
  };

  uint32_t FindRoot(uint32_t i);
  // Local slot of supernode id, or UINT32_MAX if not in the current group.
  uint32_t LocalSlot(SupernodeId id) const;
  double PiOf(SupernodeId canonical_id) const;

  void CollectFrozen(SupernodeId a, Local& out);
  // Re-maps the pairs of `root` through the local union-find into
  // memo.canonical and memo's self pair.
  void BuildCanonical(uint32_t root, MemoView& memo);
  // The memoized view of local root `root`, built on a miss. Entries are
  // invalidated (view_epoch_ bumped) by every local merge and at group
  // start — the only events that change a root's view or cost.
  const MemoView& View(uint32_t root, double superedge_bits);
  // Eqs. 10-11 for roots ra, rb; `superedge_bits` and `merged_bits` are
  // 2 log2|S| for the current and the post-merge |S|. Sums the merged
  // supernode's cost straight from the two views without building its
  // pair list.
  MergeEval EvaluateLocal(uint32_t ra, uint32_t rb, double superedge_bits,
                          double merged_bits);
  // Folds the views of ra and rb into the merged pair list, stores it and
  // the summed aggregates on the winner root, retires the loser and
  // invalidates every memoized view. Returns the winner root.
  uint32_t MergeLocal(uint32_t ra, uint32_t rb, double superedge_bits);

  const Graph& graph_;
  const SummaryGraph& summary_;
  const CostModel& cost_;
  MergeScore score_;

  std::vector<Local> locals_;
  // True once the current group has merged; until then every view is an
  // identity re-map of its Local (see MemoView).
  bool group_merged_ = false;

  // id -> local slot for the current group.
  StampedSlots<IndexSlot> group_slot_;
  // This worker's own incident-aggregation scratch (the shared summary is
  // frozen while planners run, so aggregation must not touch the cost
  // model's scratch).
  IncidentScratch scratch_;
  // Which of the second view's pairs EvaluateLocal's first view shares.
  std::vector<uint8_t> shared_;

  // Per-local-slot view memo. Grows to the largest group seen and keeps
  // its buffers across groups; a 64-bit epoch never wraps.
  std::vector<MemoView> views_;
  uint64_t view_epoch_ = 0;

  // Reusable buffers for CollectFrozen/ComputeReselection/MergeLocal.
  std::vector<IncidentPair> collect_buf_;
  std::vector<IncidentPair> merged_ext_;
};

// Drives phases 1-4 over a shared summary/cost model. Construct once per
// summarization run; RunRound() is one outer-loop iteration (or one
// forced-coarsening round) at barrier semantics — the budget is checked
// by the caller between rounds, not between groups.
class ParallelEngine {
 public:
  ParallelEngine(const Graph& graph, SummaryGraph& summary, CostModel& cost,
                 MergeScore score, const CandidateGroupsOptions& groups,
                 Executor& pool);

  // Runs one candidate->plan->apply->reselect round. `round_seed` derives
  // the candidate hashes and the per-group Rng streams; rejected scores
  // are folded into `threshold` (the caller still calls EndIteration).
  // Returns the number of merges applied.
  uint64_t RunRound(uint64_t round_seed, ThresholdPolicy& threshold);

  const MergeStats& stats() const { return engine_.stats(); }

 private:
  const Graph& graph_;
  SummaryGraph& summary_;
  CostModel& cost_;
  CandidateGroupsOptions group_options_;
  Executor& pool_;
  MergeEngine engine_;
  std::vector<GroupMergePlanner> planners_;  // one per pool worker
};

}  // namespace pegasus

#endif  // PEGASUS_CORE_PARALLEL_ENGINE_H_
