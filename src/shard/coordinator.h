// Scatter-gather coordinator over shard workers.
//
// The coordinator is the client side of the sharded serving stack: it
// holds one loopback connection per shard worker (in-process ShardWorkers
// or separate `pegasus shard-worker` processes — the wire makes them
// indistinguishable) and answers query batches against the fleet.
//
// Routing (per request, after canonicalizing against the manifest's node
// count):
//   * node-local integer families (neighbors, hop) go to the one shard
//     that owns the query node — the paper's communication-free routing
//     (Alg. 3 lines 6-7) — and the worker's answer is returned verbatim;
//   * scored families (rwr, php, degree, pagerank, clustering) scatter
//     to every shard, and the merged answer takes score[v] from the
//     shard that OWNS v — each shard's summary is personalized to its
//     own node set, so the owner's estimate for v is the accurate one.
//
// Determinism: the scatter fans out over an executor — each involved
// shard's encode + send + read runs as one unit on its own socket, so a
// slow worker never serializes the others — but every unit writes its
// partial and status to index-addressed slots. Errors are reported in
// ascending shard order (the first failing shard by index, not by
// arrival), and the ownership merge runs after the fan-out, in request
// order, off nothing but the manifest's node → shard map — so neither
// worker arrival order, worker thread counts, nor connection scheduling
// can reach the output bytes. With a 1-shard manifest every route and
// every merge degenerates to "copy shard 0's answer", so the coordinator
// is byte-identical to querying the single worker directly (pinned by
// tests/coordinator_test.cc against the repo's query goldens).
//
// One fleet epoch per answer: workers publish independently, so Answer
// rejects a batch whose touched shards answered from different epochs
// (no retry) rather than merge two summaries into one reply.

#ifndef PEGASUS_SHARD_COORDINATOR_H_
#define PEGASUS_SHARD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/query/query_engine.h"
#include "src/serve/frontend.h"
#include "src/serve/shard_codec.h"
#include "src/serve/wire.h"
#include "src/shard/manifest.h"
#include "src/util/parallel.h"
#include "src/util/status.h"

namespace pegasus::shard {

class Coordinator final : public serve::Frontend {
 public:
  // Connects one socket per shard: ports[i] must be a loopback worker
  // serving shard i of `manifest` (ports.size() == num_shards). Errors:
  // kInvalidArgument on a port-count mismatch, kInternal with the errno
  // text when a connect fails.
  [[nodiscard]] static StatusOr<std::unique_ptr<Coordinator>> Connect(
      ShardManifest manifest, const std::vector<uint16_t>& ports);

  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  struct BatchResult {
    // Epoch each shard answered from; 0 for shards the batch never
    // touched.
    std::vector<uint64_t> shard_epochs;
    // The one epoch every touched shard answered from (0 for an empty
    // batch).
    uint64_t epoch = 0;
    std::vector<QueryResult> results;  // results[i] answers requests[i]
  };

  // Scatters `requests` per the routing above and merges the partials.
  // Errors: kInvalidArgument / kOutOfRange from canonicalization (the
  // message names the request index), kDataLoss / kInternal when a
  // worker connection fails or a worker reports an error,
  // kFailedPrecondition when the touched shards answered from different
  // epochs (the message lists "shard <s> epoch <e>" for each of them).
  [[nodiscard]] StatusOr<BatchResult> Answer(
      const std::vector<QueryRequest>& requests);

  // serve::Frontend. AnswerText is Answer as the socket batch reply
  // (FormatBatchResponse) naming the one fleet epoch; EpochText is one
  // "shard <s> epoch <e>" line per worker; StatsText is every worker's
  // stats block, each after a "shard <s>" line; PublishText is always
  // kFailedPrecondition. Shards answer in ascending order.
  [[nodiscard]] StatusOr<NodeId> NodeCount() const override;
  [[nodiscard]] StatusOr<std::string> AnswerText(
      const std::vector<QueryRequest>& requests, size_t top) override;
  [[nodiscard]] StatusOr<std::string> PublishText(
      const std::string& path) override;
  [[nodiscard]] StatusOr<std::string> EpochText() override;
  [[nodiscard]] StatusOr<std::string> StatsText() override;

  uint32_t num_shards() const { return manifest_.num_shards; }
  const ShardManifest& manifest() const { return manifest_; }

 private:
  explicit Coordinator(ShardManifest manifest)
      : manifest_(std::move(manifest)),
        pool_(QueryWorkerCount(static_cast<int>(manifest_.num_shards))) {}

  // Scatter half: one kShardBatch frame to shard `s`. The matching
  // gather half reads the kShardPartial. Each shard's send + read pair
  // runs as one executor unit in Answer() — sockets are per-shard, so
  // the units never touch the same fd.
  [[nodiscard]] Status SendBatch(uint32_t s,
                                 const std::vector<QueryRequest>& requests);
  [[nodiscard]] StatusOr<serve::ShardPartial> ReadPartial(uint32_t s);
  // Sends an empty `type` frame to every worker, then joins the replies
  // in shard order, each as "shard <s>" + separator + body.
  [[nodiscard]] StatusOr<std::string> Gather(serve::FrameType type,
                                             const char* separator);

  ShardManifest manifest_;
  std::vector<int> fds_;  // one connected socket per shard
  // Scatter fan-out workers, one per shard at most (capped at the
  // hardware thread count). A 1-shard coordinator spawns no threads.
  Executor pool_;
};

}  // namespace pegasus::shard

#endif  // PEGASUS_SHARD_COORDINATOR_H_
