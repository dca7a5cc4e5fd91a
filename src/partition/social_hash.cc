#include "src/partition/social_hash.h"

#include <algorithm>
#include <vector>

#include "src/partition/random_partition.h"
#include "src/util/rng.h"

namespace pegasus {

namespace {

// Gain (reduction in cut edges) of moving u to part `to`.
int MoveGain(const Graph& graph, const Partition& partition, NodeId u,
             uint32_t to) {
  int gain = 0;
  const uint32_t from = partition.part_of[u];
  for (NodeId v : graph.neighbors(u)) {
    const uint32_t pv = partition.part_of[v];
    if (pv == to) ++gain;
    if (pv == from) --gain;
  }
  return gain;
}

struct Wish {
  NodeId node;
  uint32_t to;
  int gain;
};

// Collects, per source part, the positive-gain wishes of all nodes.
std::vector<std::vector<Wish>> CollectWishes(const Graph& graph,
                                             const Partition& partition,
                                             uint32_t num_parts) {
  std::vector<std::vector<Wish>> wishes(num_parts);
  std::vector<uint32_t> neighbor_count(num_parts, 0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    std::fill(neighbor_count.begin(), neighbor_count.end(), 0);
    for (NodeId v : graph.neighbors(u)) {
      ++neighbor_count[partition.part_of[v]];
    }
    const uint32_t from = partition.part_of[u];
    uint32_t best = from;
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (neighbor_count[p] > neighbor_count[best]) best = p;
    }
    if (best != from) {
      wishes[from].push_back(
          {u, best,
           static_cast<int>(neighbor_count[best]) -
               static_cast<int>(neighbor_count[from])});
    }
  }
  return wishes;
}

// Executes matched moves between part pairs; `keep_prob(pq, qp)` decides
// how many of the min(|pq|, |qp|) matched pairs to execute.
bool ExecuteMatched(Partition& partition, uint32_t num_parts,
                    std::vector<std::vector<Wish>>& wishes, Rng* rng,
                    bool probabilistic) {
  bool moved = false;
  std::vector<std::vector<std::vector<Wish>>> by_dest(
      num_parts, std::vector<std::vector<Wish>>(num_parts));
  for (uint32_t from = 0; from < num_parts; ++from) {
    for (const Wish& w : wishes[from]) by_dest[from][w.to].push_back(w);
  }
  auto by_gain = [](const Wish& a, const Wish& b) { return a.gain > b.gain; };
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t q = p + 1; q < num_parts; ++q) {
      auto& pq = by_dest[p][q];
      auto& qp = by_dest[q][p];
      size_t k = std::min(pq.size(), qp.size());
      if (k == 0) continue;
      // Equal gains keep the library's order for now: a tie-break by node
      // id moves the partition goldens and the shard routing, so it gets
      // its own change (ROADMAP.md item 2, partitioner sites).
      // lint: sort-order-ok(partitioner tie-break follow-up)
      std::sort(pq.begin(), pq.end(), by_gain);
      // lint: sort-order-ok(partitioner tie-break follow-up)
      std::sort(qp.begin(), qp.end(), by_gain);
      for (size_t i = 0; i < k; ++i) {
        if (probabilistic) {
          // Accept each matched pair with probability proportional to the
          // smaller demand fraction; dampens oscillations.
          const double accept =
              static_cast<double>(k) /
              static_cast<double>(std::max(pq.size(), qp.size()));
          if (!rng->Bernoulli(accept)) continue;
        }
        partition.part_of[pq[i].node] = q;
        partition.part_of[qp[i].node] = p;
        moved = true;
      }
    }
  }
  return moved;
}

// One KL-style sweep: sample candidate pairs across parts and swap when
// the combined gain is positive.
bool KlSweep(const Graph& graph, Partition& partition, Rng& rng,
             double samples_per_node) {
  const NodeId n = graph.num_nodes();
  const size_t samples =
      static_cast<size_t>(samples_per_node * static_cast<double>(n));
  bool moved = false;
  for (size_t i = 0; i < samples; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    const NodeId v = static_cast<NodeId>(rng.Uniform(n));
    const uint32_t pu = partition.part_of[u];
    const uint32_t pv = partition.part_of[v];
    if (u == v || pu == pv) continue;
    int gain = MoveGain(graph, partition, u, pv) +
               MoveGain(graph, partition, v, pu);
    // Swapping adjacent nodes double-counts their shared edge twice (once
    // per direction), and after the swap the edge is cut again.
    if (graph.HasEdge(u, v)) gain -= 4;
    if (gain > 0) {
      partition.part_of[u] = pv;
      partition.part_of[v] = pu;
      moved = true;
    }
  }
  return moved;
}

}  // namespace

Partition ShpPartition(const Graph& graph, uint32_t num_parts,
                       ShpVariant variant, const ShpConfig& config) {
  Partition partition =
      RandomPartition(graph.num_nodes(), num_parts, config.seed);
  if (graph.num_nodes() == 0 || num_parts <= 1) return partition;
  Rng rng(SplitMix64(config.seed ^ 0x5be0cd19137e2179ULL));

  for (int sweep = 0; sweep < config.max_sweeps; ++sweep) {
    bool moved = false;
    switch (variant) {
      case ShpVariant::kI: {
        auto wishes = CollectWishes(graph, partition, num_parts);
        moved = ExecuteMatched(partition, num_parts, wishes, &rng,
                               /*probabilistic=*/false);
        break;
      }
      case ShpVariant::kII: {
        auto wishes = CollectWishes(graph, partition, num_parts);
        moved = ExecuteMatched(partition, num_parts, wishes, &rng,
                               /*probabilistic=*/true);
        break;
      }
      case ShpVariant::kKL:
        moved = KlSweep(graph, partition, rng, config.kl_samples_per_node);
        break;
    }
    if (!moved) break;
  }
  return partition;
}

}  // namespace pegasus
