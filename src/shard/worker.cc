#include "src/shard/worker.h"

#include <utility>

namespace pegasus::shard {

ShardWorker::ShardWorker(ShardManifest manifest, uint32_t shard_index,
                         const Options& options)
    : manifest_(std::move(manifest)),
      shard_index_(shard_index),
      service_(options.service),
      server_(service_, {.port = options.port}) {}

StatusOr<std::unique_ptr<ShardWorker>> ShardWorker::Start(
    const std::string& manifest_path, uint32_t shard_index,
    const Options& options) {
  auto manifest = LoadManifest(manifest_path);
  if (!manifest) return manifest.status();
  if (shard_index >= manifest->num_shards) {
    return Status::OutOfRange(
        "shard index " + std::to_string(shard_index) + " out of range; " +
        "the manifest has " + std::to_string(manifest->num_shards) +
        " shards");
  }
  const std::string dir = ManifestDir(manifest_path);
  if (Status s = VerifyShardChecksum(*manifest, dir, shard_index); !s) {
    return s;
  }
  const std::string psb_path = ShardPsbPath(*manifest, dir, shard_index);
  auto view = serve::LoadServingView(psb_path);
  if (!view) return view.status();
  if ((*view)->num_nodes() != manifest->num_nodes) {
    return Status::DataLoss(
        psb_path + ": summarizes " + std::to_string((*view)->num_nodes()) +
        " nodes, the manifest declares " +
        std::to_string(manifest->num_nodes));
  }
  // Not std::make_unique: the constructor is private.
  std::unique_ptr<ShardWorker> worker(
      new ShardWorker(*std::move(manifest), shard_index, options));
  worker->service_.Publish(*std::move(view));
  if (Status s = worker->server_.Start(); !s) return s;
  return worker;
}

}  // namespace pegasus::shard
