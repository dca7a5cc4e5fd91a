// Road-network scenario from the paper's introduction: "travelers
// navigating a road network are more interested in the roads near them
// than in those far from them."
//
// A grid-shaped road network is summarized personalized to a traveler's
// position, and HOP (shortest-path-length) queries near the traveler stay
// nearly exact while the distant parts of the map are compressed away.

#include <cmath>
#include <cstdio>

#include "src/core/pegasus.h"
#include "src/graph/bfs.h"
#include "src/graph/generators.h"
#include "src/query/exact_queries.h"
#include "src/query/summary_view.h"

using namespace pegasus;  // NOLINT: example brevity

int main() {
  const NodeId rows = 60, cols = 60;
  Graph roads = GenerateGrid(rows, cols, /*shortcut_prob=*/0.1, 7);
  std::printf("road network: %u intersections, %llu road segments\n",
              roads.num_nodes(),
              static_cast<unsigned long long>(roads.num_edges()));

  // The traveler stands in the middle of the map.
  const NodeId traveler = (rows / 2) * cols + cols / 2;

  PegasusConfig config;
  config.alpha = 1.25;  // high-diameter graph: gentle personalization
  auto result = *SummarizeGraphToRatio(roads, {traveler}, 0.3, config);
  std::printf("map summary: %u supernodes at 30%% of the bits\n",
              result.summary.num_supernodes());

  auto approx = FastSummaryHopDistances(SummaryView(result.summary), traveler);
  auto exact = ExactHopDistances(roads, traveler);

  // Accuracy by ring distance from the traveler.
  struct Ring {
    uint32_t lo, hi;
  };
  const Ring rings[] = {{1, 5}, {6, 15}, {16, 30}, {31, 120}};
  std::printf("\n ring (true hops)   mean |error| in hops   nodes\n");
  for (const Ring& ring : rings) {
    double err = 0.0;
    uint64_t count = 0;
    for (NodeId u = 0; u < roads.num_nodes(); ++u) {
      if (exact[u] < ring.lo || exact[u] > ring.hi) continue;
      const double a =
          approx[u] == kUnreachable ? 0.0 : static_cast<double>(approx[u]);
      err += std::abs(a - static_cast<double>(exact[u]));
      ++count;
    }
    if (count == 0) continue;
    std::printf("  %3u-%-3u              %6.2f            %llu\n", ring.lo,
                ring.hi, err / static_cast<double>(count),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nErrors grow with distance from the traveler: the summary\n"
              "spends its bits where the traveler is (Tobler's first law).\n");
  return 0;
}
