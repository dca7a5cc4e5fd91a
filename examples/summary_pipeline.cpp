// Offline/online pipeline: summarize once, ship the artifact, serve many
// queries — plus the lossless-restore path.
//
// Offline: build a personalized summary, save it to disk next to its
// correction sets. Online: load the summary (no access to the original
// graph needed), answer queries; when exactness is required, restore the
// original graph from summary + corrections.

#include <cstdio>
#include <string>

#include "src/core/corrections.h"
#include "src/core/pegasus.h"
#include "src/core/summary_io.h"
#include "src/graph/datasets.h"
#include "src/query/summary_view.h"
#include "src/util/timer.h"

using namespace pegasus;  // NOLINT: example brevity

int main() {
  const std::string artifact = "/tmp/pegasus_example.summary";

  // ---- Offline: summarize and persist -----------------------------------
  Graph graph = MakeDataset(DatasetId::kDblp, DatasetScale::kSmall).graph;
  std::vector<NodeId> vip_authors{10, 20, 30};
  std::printf("offline: %u nodes, %llu edges\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  PegasusConfig config;
  config.alpha = 1.25;
  auto result = *SummarizeGraphToRatio(graph, vip_authors, 0.4, config);
  if (Status s = SaveSummary(result.summary, artifact); !s) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto corrections = ComputeCorrections(graph, result.summary);
  std::printf("offline: saved %.0f kbit summary (%.0f%% of graph), "
              "%zu corrections for lossless mode\n",
              result.final_size_bits / 1000.0,
              100.0 * result.final_size_bits / graph.SizeInBits(),
              corrections.TotalCount());

  // ---- Online: load and serve --------------------------------------------
  auto loaded = LoadSummary(artifact);
  if (!loaded) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("online: loaded summary with %u supernodes, %llu superedges\n",
              loaded->num_supernodes(),
              static_cast<unsigned long long>(loaded->num_superedges()));

  const SummaryView view(*loaded);  // built once, shared by every query
  Timer timer;
  int queries = 0;
  for (NodeId q : vip_authors) {
    auto rwr = SummaryRwrScores(view, q);
    auto hops = FastSummaryHopDistances(view, q);
    (void)rwr;
    (void)hops;
    queries += 2;
  }
  std::printf("online: served %d queries in %.1f ms without touching the "
              "original graph\n",
              queries, timer.ElapsedMillis());

  // ---- Lossless path ------------------------------------------------------
  Graph restored = RestoreGraph(*loaded, corrections);
  const bool exact =
      restored.CanonicalEdges() == graph.CanonicalEdges();
  std::printf("lossless restore: %s (%llu edges)\n",
              exact ? "exact" : "MISMATCH",
              static_cast<unsigned long long>(restored.num_edges()));
  std::remove(artifact.c_str());
  return exact ? 0 : 1;
}
