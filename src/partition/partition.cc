#include "src/partition/partition.h"

#include <algorithm>
#include <numeric>

namespace pegasus {

std::vector<std::vector<NodeId>> Partition::Parts() const {
  std::vector<std::vector<NodeId>> parts(num_parts);
  for (NodeId u = 0; u < part_of.size(); ++u) {
    parts[part_of[u]].push_back(u);
  }
  return parts;
}

std::vector<NodeId> Partition::Sizes() const {
  std::vector<NodeId> sizes(num_parts, 0);
  for (uint32_t p : part_of) ++sizes[p];
  return sizes;
}

bool Partition::Valid(NodeId num_nodes) const {
  if (part_of.size() != num_nodes || num_parts == 0) return false;
  std::vector<NodeId> sizes(num_parts, 0);
  for (uint32_t p : part_of) {
    if (p >= num_parts) return false;
    ++sizes[p];
  }
  return std::all_of(sizes.begin(), sizes.end(),
                     [](NodeId s) { return s > 0; });
}

EdgeId CutEdges(const Graph& graph, const Partition& partition) {
  EdgeId cut = 0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.neighbors(u)) {
      if (u < v && partition.part_of[u] != partition.part_of[v]) ++cut;
    }
  }
  return cut;
}

double Modularity(const Graph& graph, const Partition& partition) {
  const double m = static_cast<double>(graph.num_edges());
  if (m == 0.0) return 0.0;
  std::vector<double> internal(partition.num_parts, 0.0);
  std::vector<double> degree(partition.num_parts, 0.0);
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    degree[partition.part_of[u]] += static_cast<double>(graph.degree(u));
    for (NodeId v : graph.neighbors(u)) {
      if (u < v && partition.part_of[u] == partition.part_of[v]) {
        internal[partition.part_of[u]] += 1.0;
      }
    }
  }
  double q = 0.0;
  for (uint32_t c = 0; c < partition.num_parts; ++c) {
    q += internal[c] / m - (degree[c] / (2.0 * m)) * (degree[c] / (2.0 * m));
  }
  return q;
}

double BalanceFactor(const Partition& partition, NodeId num_nodes) {
  if (partition.num_parts == 0 || num_nodes == 0) return 0.0;
  const auto sizes = partition.Sizes();
  const NodeId max_size = *std::max_element(sizes.begin(), sizes.end());
  return static_cast<double>(max_size) * partition.num_parts /
         static_cast<double>(num_nodes);
}

Partition PackIntoParts(const std::vector<uint32_t>& labels,
                        uint32_t num_parts) {
  uint32_t num_labels = 0;
  for (uint32_t l : labels) num_labels = std::max(num_labels, l + 1);
  std::vector<NodeId> label_size(num_labels, 0);
  for (uint32_t l : labels) ++label_size[l];

  std::vector<uint32_t> order(num_labels);
  std::iota(order.begin(), order.end(), 0);
  // Equal label sizes keep the library's order for now: a tie-break by
  // label moves the partition goldens and the shard routing, so it gets
  // its own change (ROADMAP.md item 2, partitioner sites).
  // lint: sort-order-ok(partitioner tie-break follow-up)
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return label_size[a] > label_size[b];
  });

  std::vector<uint64_t> load(num_parts, 0);
  std::vector<uint32_t> label_to_part(num_labels, 0);
  for (uint32_t l : order) {
    uint32_t best = 0;
    for (uint32_t p = 1; p < num_parts; ++p) {
      if (load[p] < load[best]) best = p;
    }
    label_to_part[l] = best;
    load[best] += label_size[l];
  }

  Partition partition;
  partition.num_parts = num_parts;
  partition.part_of.resize(labels.size());
  for (NodeId u = 0; u < labels.size(); ++u) {
    partition.part_of[u] = label_to_part[labels[u]];
  }
  // Guarantee non-empty parts: move one node into any empty part.
  auto sizes = partition.Sizes();
  for (uint32_t p = 0; p < num_parts; ++p) {
    if (sizes[p] != 0) continue;
    for (NodeId u = 0; u < partition.part_of.size(); ++u) {
      uint32_t from = partition.part_of[u];
      if (sizes[from] > 1) {
        partition.part_of[u] = p;
        --sizes[from];
        ++sizes[p];
        break;
      }
    }
  }
  return partition;
}

}  // namespace pegasus
