// Shared helpers for the test suite.

#ifndef PEGASUS_TESTS_TEST_UTIL_H_
#define PEGASUS_TESTS_TEST_UTIL_H_

#include <sys/stat.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/binary_summary_io.h"
#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_builder.h"
#include "src/query/query_engine.h"
#include "src/query/summary_view.h"
#include "src/shard/manifest.h"

namespace pegasus::testing {

// --- Byte-identity hashing -------------------------------------------------
//
// FNV-1a 64 over a word stream, used by the cross-stdlib query goldens:
// doubles are hashed by bit pattern (std::bit_cast), so two builds agree
// on a hash iff every score is bit-for-bit identical. Word-based (not
// memcpy-based) so the hash is independent of host endianness.

inline constexpr uint64_t kFnvOffset64 = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime64 = 1099511628211ULL;

inline uint64_t HashWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= kFnvPrime64;
  }
  return h;
}

inline uint64_t HashScores(const std::vector<double>& scores) {
  uint64_t h = HashWord(kFnvOffset64, scores.size());
  for (double d : scores) h = HashWord(h, std::bit_cast<uint64_t>(d));
  return h;
}

inline uint64_t HashU32s(const std::vector<uint32_t>& values) {
  uint64_t h = HashWord(kFnvOffset64, values.size());
  for (uint32_t v : values) h = HashWord(h, v);
  return h;
}

// FNV-1a 64 over a byte string (reply bodies).
inline uint64_t HashBytes(const std::string& bytes) {
  uint64_t h = kFnvOffset64;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime64;
  }
  return h;
}

// Order-sensitive hash of one answer, covering every payload vector.
inline uint64_t HashQueryResult(const QueryResult& result) {
  uint64_t h = HashWord(kFnvOffset64, static_cast<uint64_t>(result.kind));
  h = HashWord(h, HashU32s(result.neighbors));
  h = HashWord(h, HashU32s(result.hops));
  h = HashWord(h, HashScores(result.scores));
  return h;
}

// --- Cross-stdlib query goldens --------------------------------------------
//
// One summary fixture and one request per query-family parameterization,
// with the FNV hash of the exact answer bytes checked in. The fixtures
// are asserted through the SummaryView path (determinism_test) AND
// through a multi-threaded QueryService batch (query_service_test): a
// hash mismatch on any standard library, platform, or thread count means
// the canonical-order guarantee broke. To regenerate after an intentional
// scoring change: run determinism_test — each failure message prints the
// actual hash as "actual 0x..." — and paste the new constants here (the
// procedure is also recorded in ROADMAP.md).

inline Graph QueryGoldenGraph() { return GenerateBarabasiAlbert(200, 3, 901); }

inline SummaryGraph QueryGoldenSummary(const Graph& graph) {
  PegasusConfig config;
  config.seed = 77;  // serial engine: the machine-invariant schedule
  return std::move(*SummarizeGraphToRatio(graph, {1, 2}, 0.4, config)).summary;
}

struct QueryGoldenCase {
  const char* name;
  QueryRequest request;
  uint64_t hash;
};

inline std::vector<QueryGoldenCase> QueryGoldenCases() {
  constexpr NodeId q = 5;
  constexpr double d = kQueryParamUseDefault;
  return {
      {"neighbors_q5", {QueryKind::kNeighbors, q, d, true, {}},
       0x72846d91edc5e309ULL},
      {"hop_q5", {QueryKind::kHop, q, d, true, {}}, 0x0aa2ae9624411e2fULL},
      {"rwr_q5_w", {QueryKind::kRwr, q, d, true, {}}, 0x73e67395401da1ceULL},
      {"rwr_q5_uw", {QueryKind::kRwr, q, d, false, {}},
       0xb54792d13f74800aULL},
      {"php_q5_w", {QueryKind::kPhp, q, d, true, {}}, 0xf04ebb0b9a423c5dULL},
      {"php_q5_uw", {QueryKind::kPhp, q, d, false, {}},
       0x99307c974350d7edULL},
      {"degree_w", {QueryKind::kDegree, 0, d, true, {}},
       0x0145037b88f4868cULL},
      {"degree_uw", {QueryKind::kDegree, 0, d, false, {}},
       0x6967b000ccc57ae5ULL},
      {"pagerank_w", {QueryKind::kPageRank, 0, d, true, {}},
       0x3563e4bea343c7bdULL},
      {"pagerank_uw", {QueryKind::kPageRank, 0, d, false, {}},
       0x5ea435120ffbefcfULL},
      {"clustering_w", {QueryKind::kClustering, 0, d, true, {}},
       0x1704a3bb17153ffcULL},
      {"clustering_uw", {QueryKind::kClustering, 0, d, false, {}},
       0xfcd8845df0f61fa2ULL},
  };
}

// --- Cross-stdlib reply-byte goldens ----------------------------------------
//
// Text batches over QueryGoldenSummary with the FNV-1a hash of the reply
// body (top kReplyGoldenTop, epoch 1) checked in. They pin the ranking
// order of the reply lines (src/util/ranking.h), which the QueryResult
// goldens above cannot see: "every_family" holds ties across and within
// the printed top-K in hop, degree and clustering, and "mixed16" is one
// 16-request batch of every shape. Asserted for QueryService::AnswerText
// and FormatBatchResponse (query_service_test) and over a socket
// (server_test). Regenerate only after an intentional change to the
// reply format or the ranking order; the failure prints the actual hash.

inline constexpr size_t kReplyGoldenTop = 10;

struct ReplyGoldenBatch {
  const char* name;
  const char* text;
  uint64_t hash;
};

inline std::vector<ReplyGoldenBatch> ReplyGoldenBatches() {
  return {
      {"every_family",
       "neighbors 5\nhop 5\nhop 1\nrwr 5\nrwr 1 0.2\nphp 5\nphp 2 0.5\n"
       "degree\npagerank\npagerank 0.5\nclustering\n",
       0xd30fbce0c1cf0dd1ULL},
      {"mixed16",
       "neighbors 0\nneighbors 17\nhop 42\ndegree\nrwr 3 0.1\n"
       "neighbors 100\npagerank\nphp 9\nclustering\nhop 150\n"
       "neighbors 199\npagerank 0.7\nrwr 120\ndegree\nneighbors 64\n"
       "php 33 0.8\n",
       0x92bf599ab3b21d01ULL},
  };
}

// Writes QueryGoldenSummary as a 1-shard manifest + PSB under
// ::testing::TempDir()/<dir_name> and returns the manifest path ("" on
// failure), so a fleet serves exactly the summary the goldens above were
// pinned against. Built by hand (not ShardBuild) because the golden
// fixture uses its own summarizer seed.
inline std::string WriteGoldenSingleShard(const std::string& dir_name) {
  const std::string dir = ::testing::TempDir() + "/" + dir_name;
  ::mkdir(dir.c_str(), 0755);
  const Graph graph = QueryGoldenGraph();
  const SummaryView view(QueryGoldenSummary(graph));
  const std::string psb = dir + "/shard_000.psb";
  if (!SaveSummaryBinary(view.layout(), psb, {})) return "";
  auto checksum = shard::ChecksumFile(psb);
  if (!checksum) return "";

  shard::ShardManifest manifest;
  manifest.num_shards = 1;
  manifest.num_nodes = graph.num_nodes();
  manifest.partitioner = "random";
  manifest.shards = {{"shard_000.psb", *checksum}};
  manifest.node_shard.assign(graph.num_nodes(), 0);
  const std::string path = dir + "/" + shard::kManifestFileName;
  if (!shard::SaveManifest(manifest, path)) return "";
  return path;
}

// A path graph 0-1-2-...-(n-1).
inline Graph PathGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u + 1 < n; ++u) b.AddEdge(u, u + 1);
  return std::move(b).Build();
}

// A cycle graph.
inline Graph CycleGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) b.AddEdge(u, (u + 1) % n);
  return std::move(b).Build();
}

// A complete graph K_n.
inline Graph CompleteGraph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return std::move(b).Build();
}

// A star with `leaves` leaves; node 0 is the center.
inline Graph StarGraph(NodeId leaves) {
  GraphBuilder b(leaves + 1);
  for (NodeId u = 1; u <= leaves; ++u) b.AddEdge(0, u);
  return std::move(b).Build();
}

// Two cliques of size `k` joined by a single bridge edge (0 -- k).
inline Graph TwoCliquesGraph(NodeId k) {
  GraphBuilder b(2 * k);
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) {
      b.AddEdge(u, v);
      b.AddEdge(k + u, k + v);
    }
  }
  b.AddEdge(0, k);
  return std::move(b).Build();
}

// The paper's Fig. 3 example: a = 0, b = 1, c = 2, d = 3, e = 4, with
// a, b adjacent to c, d and e adjacent to c, d... exact edges:
// a-c, a-d, b-c, b-d, c-e (the "exact reconstruction" variant).
inline Graph Fig3Graph() {
  GraphBuilder b(5);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 4);
  return std::move(b).Build();
}

}  // namespace pegasus::testing

#endif  // PEGASUS_TESTS_TEST_UTIL_H_
