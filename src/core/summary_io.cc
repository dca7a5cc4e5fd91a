#include "src/core/summary_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "src/core/binary_summary_io.h"
#include "src/graph/graph.h"

namespace pegasus {

Status SaveSummary(const SummaryGraph& summary, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::DataLoss("cannot open for write: " + path);

  // Densify supernode ids.
  std::vector<SupernodeId> dense(summary.id_bound(), 0);
  SupernodeId next = 0;
  for (SupernodeId a = 0; a < summary.id_bound(); ++a) {
    if (summary.alive(a)) dense[a] = next++;
  }

  out << "PEGASUS-SUMMARY v1\n";
  out << "nodes " << summary.num_nodes() << " supernodes "
      << summary.num_supernodes() << " superedges "
      << summary.num_superedges() << '\n';
  for (NodeId u = 0; u < summary.num_nodes(); ++u) {
    out << dense[summary.supernode_of(u)]
        << (u + 1 == summary.num_nodes() ? '\n' : ' ');
  }
  // Superedges are emitted in sorted (a, b) order — superedges() already
  // ascends in neighbor id, and dense[] is monotone in original
  // id — so the same summary always serializes to the same bytes (and a
  // load/save round trip is byte-stable).
  for (SupernodeId a = 0; a < summary.id_bound(); ++a) {
    if (!summary.alive(a)) continue;
    for (const auto& [b, w] : summary.superedges(a)) {
      if (b < a) continue;  // each unordered pair once
      out << dense[a] << ' ' << dense[b] << ' ' << w << '\n';
    }
  }
  if (!out) return Status::DataLoss("write failed: " + path);
  return Status::Ok();
}

StatusOr<SummaryGraph> LoadSummary(const std::string& path) {
  // Dispatch by magic: PSB1 files (docs/FORMAT.md) take the binary
  // loader; everything else is parsed as the text format below.
  if (SniffPsbMagic(path)) return LoadSummaryBinary(path);

  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open summary: " + path);
  const auto Corrupt = [&path](const std::string& what) {
    return Status::DataLoss(path + ": " + what);
  };

  std::string magic, version;
  if (!(in >> magic >> version) || magic != "PEGASUS-SUMMARY" ||
      version != "v1") {
    return Corrupt("not a PEGASUS-SUMMARY v1 file");
  }
  std::string key;
  uint64_t num_nodes = 0, num_supernodes = 0, num_superedges = 0;
  if (!(in >> key >> num_nodes) || key != "nodes") {
    return Corrupt("malformed header (nodes)");
  }
  if (!(in >> key >> num_supernodes) || key != "supernodes") {
    return Corrupt("malformed header (supernodes)");
  }
  if (!(in >> key >> num_superedges) || key != "superedges") {
    return Corrupt("malformed header (superedges)");
  }

  std::vector<NodeId> labels(num_nodes);
  std::vector<uint8_t> used(num_supernodes, 0);
  uint64_t distinct = 0;
  for (uint64_t u = 0; u < num_nodes; ++u) {
    if (!(in >> labels[u]) || labels[u] >= num_supernodes) {
      return Corrupt("bad supernode label for node " + std::to_string(u));
    }
    uint8_t& flag = used[labels[u]];
    distinct += flag == 0;
    flag = 1;
  }
  // Header/body agreement up front, before any structure is built — the
  // same check the binary loader runs (binary_summary_io.cc).
  if (Status st = ValidateSummaryCounts(num_supernodes, distinct, path);
      !st) {
    return st;
  }
  // FromPartition needs a graph only for the node count; build the summary
  // structure directly through an empty graph of the right size.
  Graph empty(std::vector<EdgeId>(num_nodes + 1, 0), {});
  SummaryGraph summary = SummaryGraph::FromPartition(empty, labels);

  for (uint64_t i = 0; i < num_superedges; ++i) {
    SupernodeId a = 0, b = 0;
    uint32_t w = 0;
    if (!(in >> a >> b >> w) || a >= num_supernodes ||
        b >= num_supernodes || w == 0) {
      return Corrupt("bad superedge record " + std::to_string(i));
    }
    // A repeated pair would silently overwrite the earlier weight and
    // leave num_superedges() below the declared count.
    if (summary.HasSuperedge(a, b)) {
      return Corrupt("duplicate superedge " + std::to_string(a) + " " +
                     std::to_string(b));
    }
    summary.SetSuperedge(a, b, w);
  }
  // The declared superedge count must exhaust the file: trailing tokens
  // mean a malformed or truncated-header file, not extra whitespace.
  std::string trailing;
  if (in >> trailing) return Corrupt("trailing data after superedges");
  return summary;
}

}  // namespace pegasus
