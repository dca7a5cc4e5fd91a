#include "src/partition/label_propagation.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "src/partition/random_partition.h"
#include "src/util/rng.h"

namespace pegasus {

Partition BlpPartition(const Graph& graph, uint32_t num_parts,
                       const BlpConfig& config) {
  const NodeId n = graph.num_nodes();
  Partition partition = RandomPartition(n, num_parts, config.seed);
  if (n == 0 || num_parts <= 1) return partition;
  Rng rng(SplitMix64(config.seed ^ 0x1f83d9abfb41bd6bULL));

  std::vector<uint32_t> neighbor_count(num_parts, 0);
  struct Wish {
    NodeId node;
    uint32_t to;
    int gain;
  };

  for (int sweep = 0; sweep < config.max_sweeps; ++sweep) {
    // Collect each node's preferred destination and the cut-edge gain.
    std::vector<std::vector<Wish>> wishes(num_parts);  // indexed by source
    for (NodeId u = 0; u < n; ++u) {
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
    // Execute matched swaps between every ordered pair of parts: move
    // min(|wishes p->q|, |wishes q->p|) nodes in each direction, highest
    // gain first, preserving balance exactly.
    bool moved = false;
    // Bucket wishes by destination.
    std::vector<std::vector<std::vector<Wish>>> by_dest(
        num_parts, std::vector<std::vector<Wish>>(num_parts));
    for (uint32_t from = 0; from < num_parts; ++from) {
      for (const Wish& w : wishes[from]) by_dest[from][w.to].push_back(w);
    }
    for (uint32_t p = 0; p < num_parts; ++p) {
      for (uint32_t q = p + 1; q < num_parts; ++q) {
        auto& pq = by_dest[p][q];
        auto& qp = by_dest[q][p];
        const size_t k = std::min(pq.size(), qp.size());
        if (k == 0) continue;
        auto by_gain = [](const Wish& a, const Wish& b) {
          return a.gain > b.gain;
        };
        // Equal gains keep the library's order for now: a tie-break by
        // node id moves the partition goldens and the shard routing, so it
        // gets its own change (ROADMAP.md item 2, partitioner sites).
        // lint: sort-order-ok(partitioner tie-break follow-up)
        std::sort(pq.begin(), pq.end(), by_gain);
        // lint: sort-order-ok(partitioner tie-break follow-up)
        std::sort(qp.begin(), qp.end(), by_gain);
        for (size_t i = 0; i < k; ++i) {
          partition.part_of[pq[i].node] = q;
          partition.part_of[qp[i].node] = p;
          moved = true;
        }
      }
    }
    if (!moved) break;
  }
  return partition;
}

}  // namespace pegasus
