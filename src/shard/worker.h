// Shard worker: one shard of a manifest, resident and serving.
//
// A ShardWorker is the process-local unit of the sharded serving stack:
// it loads a shard manifest, checksum-verifies its own shard's PSB file,
// mmaps it as the serving view of a QueryService, and exposes it through
// a loopback socket Server speaking the wire protocol (text kBatch
// frames for humans, binary kShardBatch → kShardPartial for the
// coordinator). `pegasus shard-worker <manifest> <index>` wraps exactly
// this class; the coordinator's in-process mode embeds N of them in one
// process, which is byte-for-byte indistinguishable from N processes
// because all communication stays on the wire.
//
// Epochs are per worker (a kPublish frame on its own socket); the
// coordinator refuses to merge shards of different epochs.

#ifndef PEGASUS_SHARD_WORKER_H_
#define PEGASUS_SHARD_WORKER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/serve/query_service.h"
#include "src/serve/server.h"
#include "src/shard/manifest.h"
#include "src/util/status.h"

namespace pegasus::shard {

class ShardWorker {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
    QueryService::Options service;  // threads / cache for this shard
  };

  // Loads the manifest, verifies shard `shard_index`'s PSB against the
  // manifest's whole-file checksum (one sequential read), mmaps it,
  // publishes it at epoch 1, and starts the socket server with the
  // default Server::Options on `port`. Errors:
  // kNotFound / kDataLoss from the manifest and PSB loaders, kOutOfRange
  // for a bad shard index, kInternal for socket failures.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardWorker>> Start(
      const std::string& manifest_path, uint32_t shard_index,
      const Options& options);
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardWorker>> Start(
      const std::string& manifest_path, uint32_t shard_index) {
    return Start(manifest_path, shard_index, Options());
  }

  ~ShardWorker() { server_.Stop(); }

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  uint16_t port() const { return server_.port(); }
  uint32_t shard_index() const { return shard_index_; }
  const ShardManifest& manifest() const { return manifest_; }
  QueryService& service() { return service_; }
  serve::Server& server() { return server_; }

 private:
  ShardWorker(ShardManifest manifest, uint32_t shard_index,
              const Options& options);

  ShardManifest manifest_;
  uint32_t shard_index_;
  QueryService service_;
  serve::Server server_;
};

}  // namespace pegasus::shard

#endif  // PEGASUS_SHARD_WORKER_H_
