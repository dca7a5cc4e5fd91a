#include "tests/support/reference_kernels.h"

#include <algorithm>
#include <cmath>

#include "src/graph/bfs.h"

namespace pegasus {

std::vector<uint32_t> SummaryHopDistances(const SummaryView& view, NodeId q) {
  std::vector<uint32_t> dist(view.num_nodes(), kUnreachable);
  dist[q] = 0;
  std::vector<NodeId> queue{q};
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : SummaryNeighbors(view, u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<double> SummaryRwrScoresReference(
    const SummaryView& view, NodeId q, double restart_prob, bool weighted,
    const IterativeQueryOptions& opts) {
  const uint32_t s = view.num_supernodes();
  const NodeId n = view.num_nodes();
  const uint32_t a0 = view.supernode_of(q);
  const double c = restart_prob;
  const uint32_t* dst = view.edge_dst();
  const double* den = view.edge_density(weighted);

  // rho[a]: score of each non-q member of a; rho_q: score of q.
  std::vector<double> rho(s, 1.0 / n);
  double rho_q = 1.0 / n;
  std::vector<double> cross(s);

  for (int it = 0; it < opts.max_iterations; ++it) {
    std::fill(cross.begin(), cross.end(), 0.0);
    for (uint32_t a = 0; a < s; ++a) {
      const double md = view.member_degree(a, weighted);
      if (md <= 0.0) continue;
      const double cnt = view.member_count(a) - (a == a0 ? 1.0 : 0.0);
      const double total_a = cnt * rho[a] + (a == a0 ? rho_q : 0.0);
      const double rate = total_a / md;
      for (uint64_t i = view.edge_begin(a); i < view.edge_end(a); ++i) {
        if (dst[i] == a) continue;  // self-loop handled separately
        cross[dst[i]] += den[i] * rate;
      }
    }
    double change = 0.0;
    double new_rho_q = rho_q;
    for (uint32_t b = 0; b < s; ++b) {
      const double sd = view.self_density(b, weighted);
      const double md = view.member_degree(b, weighted);
      const double cnt = view.member_count(b) - (b == a0 ? 1.0 : 0.0);
      double self_in_members = 0.0;
      double self_in_q = 0.0;
      if (sd > 0.0 && md > 0.0) {
        const double total_b = cnt * rho[b] + (b == a0 ? rho_q : 0.0);
        const double rate = sd / md;
        self_in_members = rate * (total_b - rho[b]);
        if (b == a0) self_in_q = rate * (total_b - rho_q);
      }
      const double nb = (1.0 - c) * (cross[b] + self_in_members);
      if (b == a0) {
        new_rho_q = c + (1.0 - c) * (cross[b] + self_in_q);
      }
      change += cnt * std::abs(nb - rho[b]);
      rho[b] = nb;
    }
    change += std::abs(new_rho_q - rho_q);
    rho_q = new_rho_q;
    if (change < opts.tolerance) break;
  }

  std::vector<double> out(n);
  for (NodeId u = 0; u < n; ++u) out[u] = rho[view.supernode_of(u)];
  out[q] = rho_q;
  return out;
}

std::vector<double> SummaryPhpScoresReference(
    const SummaryView& view, NodeId q, double decay, bool weighted,
    const IterativeQueryOptions& opts) {
  const uint32_t s = view.num_supernodes();
  const NodeId n = view.num_nodes();
  const uint32_t a0 = view.supernode_of(q);
  const uint32_t* dst = view.edge_dst();
  const double* den = view.edge_density(weighted);

  std::vector<double> phi(s, 0.0);  // non-q member scores
  std::vector<double> total(s);     // sum of scores inside supernode

  for (int it = 0; it < opts.max_iterations; ++it) {
    for (uint32_t a = 0; a < s; ++a) {
      const double cnt = view.member_count(a) - (a == a0 ? 1.0 : 0.0);
      total[a] = cnt * phi[a] + (a == a0 ? 1.0 : 0.0);
    }
    double change = 0.0;
    for (uint32_t b = 0; b < s; ++b) {
      double nb = 0.0;
      const double md = view.member_degree(b, weighted);
      if (md > 0.0) {
        double incoming = 0.0;
        for (uint64_t i = view.edge_begin(b); i < view.edge_end(b); ++i) {
          if (dst[i] == b) {
            incoming += den[i] * (total[b] - phi[b]);
          } else {
            incoming += den[i] * total[dst[i]];
          }
        }
        nb = decay * incoming / md;
      }
      const double cnt = view.member_count(b) - (b == a0 ? 1.0 : 0.0);
      change += cnt * std::abs(nb - phi[b]);
      phi[b] = nb;
    }
    if (change < opts.tolerance) break;
  }

  std::vector<double> out(n);
  for (NodeId u = 0; u < n; ++u) out[u] = phi[view.supernode_of(u)];
  out[q] = 1.0;
  return out;
}

std::vector<double> SummaryPageRankReference(
    const SummaryView& view, double damping, bool weighted,
    const IterativeQueryOptions& opts) {
  const uint32_t s = view.num_supernodes();
  const NodeId n = view.num_nodes();
  const uint32_t* dst = view.edge_dst();
  const double* den = view.edge_density(weighted);

  // One score per supernode; every member shares it.
  std::vector<double> rho(s, 1.0 / n);
  std::vector<double> incoming(s);
  for (int it = 0; it < opts.max_iterations; ++it) {
    std::fill(incoming.begin(), incoming.end(), 0.0);
    double dangling = 0.0;
    for (uint32_t a = 0; a < s; ++a) {
      const double total_a = view.member_count(a) * rho[a];
      const double md = view.member_degree(a, weighted);
      if (md <= 0.0) {
        dangling += total_a;
        continue;
      }
      const double rate = total_a / md;
      for (uint64_t i = view.edge_begin(a); i < view.edge_end(a); ++i) {
        if (dst[i] == a) continue;
        incoming[dst[i]] += den[i] * rate;
      }
    }
    const double base = (1.0 - damping) / n + damping * dangling / n;
    double change = 0.0;
    for (uint32_t b = 0; b < s; ++b) {
      const double sd = view.self_density(b, weighted);
      const double md = view.member_degree(b, weighted);
      double self_in = 0.0;
      if (sd > 0.0 && md > 0.0) {
        // Each member receives from its |b|-1 co-members.
        self_in = sd / md * (view.member_count(b) * rho[b] - rho[b]);
      }
      const double nb = base + damping * (incoming[b] + self_in);
      change += view.member_count(b) * std::abs(nb - rho[b]);
      rho[b] = nb;
    }
    if (change < opts.tolerance) break;
  }

  std::vector<double> out(n);
  for (NodeId u = 0; u < n; ++u) out[u] = rho[view.supernode_of(u)];
  return out;
}

}  // namespace pegasus
