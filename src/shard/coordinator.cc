#include "src/shard/coordinator.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/serve/query_service.h"
#include "src/serve/text_serving.h"
#include "src/serve/wire.h"

namespace pegasus::shard {

namespace {

using serve::FrameType;

// Scored families scatter to every shard and merge by ownership;
// neighbors/hop route to the owning shard and return verbatim.
bool IsScoredQuery(QueryKind kind) {
  return kind != QueryKind::kNeighbors && kind != QueryKind::kHop;
}

StatusOr<int> ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status s = Status::Internal("connect 127.0.0.1:" +
                                      std::to_string(port) + ": " +
                                      std::strerror(errno));
    ::close(fd);
    return s;
  }
  return fd;
}

Status ShardError(uint32_t s, const Status& status) {
  return Status(status.code(),
                "shard " + std::to_string(s) + ": " + status.message());
}

}  // namespace

Coordinator::~Coordinator() {
  for (int fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

StatusOr<std::unique_ptr<Coordinator>> Coordinator::Connect(
    ShardManifest manifest, const std::vector<uint16_t>& ports) {
  if (Status s = manifest.Validate(); !s) return s;
  if (ports.size() != manifest.num_shards) {
    return Status::InvalidArgument(
        "manifest has " + std::to_string(manifest.num_shards) +
        " shards but " + std::to_string(ports.size()) +
        " worker ports were given");
  }
  std::unique_ptr<Coordinator> coordinator(
      new Coordinator(std::move(manifest)));
  coordinator->fds_.reserve(ports.size());
  for (uint32_t s = 0; s < ports.size(); ++s) {
    auto fd = ConnectLoopback(ports[s]);
    if (!fd) return ShardError(s, fd.status());
    coordinator->fds_.push_back(*fd);
  }
  return coordinator;
}

Status Coordinator::SendBatch(uint32_t s,
                              const std::vector<QueryRequest>& requests) {
  if (Status w = serve::WriteFrame(fds_[s], FrameType::kShardBatch,
                                   serve::EncodeShardBatchBody(requests));
      !w) {
    return ShardError(s, w);
  }
  return Status::Ok();
}

StatusOr<serve::ShardPartial> Coordinator::ReadPartial(uint32_t s) {
  auto frame = serve::ReadFrame(fds_[s], serve::kMaxPartialPayload);
  if (!frame) return ShardError(s, frame.status());
  if (frame->type == FrameType::kError) {
    return Status::Internal("shard " + std::to_string(s) +
                            " reported: " + frame->body);
  }
  if (frame->type != FrameType::kShardPartial) {
    return Status::Internal("shard " + std::to_string(s) +
                            " answered a shard batch with frame type " +
                            std::to_string(static_cast<int>(frame->type)));
  }
  auto partial = serve::DecodeShardPartialBody(frame->body);
  if (!partial) return ShardError(s, partial.status());
  return partial;
}

StatusOr<Coordinator::BatchResult> Coordinator::Answer(
    const std::vector<QueryRequest>& requests) {
  // Canonicalize up front for validation and routing only: client errors
  // surface here with the request index (same contract as
  // QueryService::Answer) and routing keys off the validated node. The
  // ORIGINAL requests go on the wire — canonicalization is deliberately
  // not idempotent (it replaces the use-default sentinel with concrete
  // defaults), so each worker canonicalizes the same bytes a single-view
  // server would, keeping the two paths byte-identical.
  auto canonical = serve::CanonicalizeBatch(requests, manifest_.num_nodes);
  if (!canonical) return canonical.status();

  // Sub-batch per shard, original order preserved; to_shard[s][j] is the
  // original index of shard s's j-th request.
  std::vector<std::vector<QueryRequest>> shard_requests(manifest_.num_shards);
  std::vector<std::vector<size_t>> to_shard(manifest_.num_shards);
  for (size_t i = 0; i < canonical->size(); ++i) {
    const QueryRequest& r = (*canonical)[i];
    if (IsScoredQuery(r.kind)) {
      for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
        shard_requests[s].push_back(requests[i]);
        to_shard[s].push_back(i);
      }
    } else {
      const uint32_t s = manifest_.ShardOf(r.node);
      shard_requests[s].push_back(requests[i]);
      to_shard[s].push_back(i);
    }
  }

  // Scatter-gather fan-out: each involved shard's encode + send + read
  // is one executor unit on its own socket, so request encoding and a
  // slow worker's turnaround overlap across shards instead of
  // serializing. Partials and statuses land in index-addressed slots and
  // the first error is picked in ascending SHARD order afterwards — the
  // fan-out schedule cannot reach the output bytes or the reported
  // error. The merge below depends only on the ownership map.
  BatchResult out;
  out.shard_epochs.assign(manifest_.num_shards, 0);
  std::vector<std::vector<QueryResult>> partials(manifest_.num_shards);
  std::vector<Status> statuses(manifest_.num_shards, Status::Ok());
  pool_.ParallelFor(
      manifest_.num_shards, /*grain=*/1,
      [&](int /*worker*/, size_t begin, size_t end) {
        for (size_t u = begin; u < end; ++u) {
          const uint32_t s = static_cast<uint32_t>(u);
          if (shard_requests[s].empty()) continue;
          if (Status w = SendBatch(s, shard_requests[s]); !w) {
            statuses[s] = std::move(w);
            continue;
          }
          auto partial = ReadPartial(s);
          if (!partial) {
            statuses[s] = partial.status();
            continue;
          }
          if (partial->results.size() != shard_requests[s].size()) {
            statuses[s] = Status::Internal(
                "shard " + std::to_string(s) + " answered " +
                std::to_string(partial->results.size()) + " of " +
                std::to_string(shard_requests[s].size()) + " requests");
            continue;
          }
          out.shard_epochs[s] = partial->epoch;
          partials[s] = std::move(partial->results);
        }
      });
  for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
    if (!statuses[s]) return statuses[s];
  }
  // One fleet epoch per answer: merging partials of two epochs would mix
  // two summaries in one reply.
  bool mixed = false;
  for (uint64_t epoch : out.shard_epochs) {
    if (epoch == 0) continue;
    mixed |= out.epoch != 0 && epoch != out.epoch;
    out.epoch = epoch;
  }
  if (mixed) {
    std::string touched;
    for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
      if (out.shard_epochs[s] == 0) continue;
      touched += (touched.empty() ? "shard " : ", shard ") +
                 std::to_string(s) + " epoch " +
                 std::to_string(out.shard_epochs[s]);
    }
    return Status::FailedPrecondition(
        "shards answered from different epochs (" + touched +
        "); resend once every worker has published");
  }

  // Merge. Node-local answers come back verbatim from the owning shard;
  // scored answers take score[v] from the shard owning v.
  std::vector<size_t> cursor(manifest_.num_shards, 0);
  out.results.resize(canonical->size());
  for (size_t i = 0; i < canonical->size(); ++i) {
    const QueryRequest& r = (*canonical)[i];
    if (!IsScoredQuery(r.kind)) {
      const uint32_t s = manifest_.ShardOf(r.node);
      out.results[i] = std::move(partials[s][cursor[s]++]);
      continue;
    }
    QueryResult merged;
    merged.kind = r.kind;
    merged.scores.resize(manifest_.num_nodes);
    // Every shard's sub-batches line up (scored requests went to all
    // shards in the same order), so each cursor points at this request's
    // partial.
    std::vector<const QueryResult*> parts(manifest_.num_shards);
    for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
      const QueryResult& part = partials[s][cursor[s]++];
      if (part.scores.size() != manifest_.num_nodes) {
        return Status::Internal(
            "shard " + std::to_string(s) + " returned " +
            std::to_string(part.scores.size()) + " scores for a graph of " +
            std::to_string(manifest_.num_nodes) + " nodes");
      }
      parts[s] = &part;
    }
    for (NodeId v = 0; v < manifest_.num_nodes; ++v) {
      merged.scores[v] = parts[manifest_.node_shard[v]]->scores[v];
    }
    out.results[i] = std::move(merged);
  }
  return out;
}

StatusOr<NodeId> Coordinator::NodeCount() const {
  return manifest_.num_nodes;
}

StatusOr<std::string> Coordinator::AnswerText(
    const std::vector<QueryRequest>& requests, size_t top) {
  auto batch = Answer(requests);
  if (!batch) return batch.status();
  return serve::FormatBatchResponse(
      requests, {batch->epoch, std::move(batch->results)}, top);
}

StatusOr<std::string> Coordinator::PublishText(const std::string& /*path*/) {
  return Status::FailedPrecondition(
      "a fleet publishes per worker; publish to each shard worker's socket");
}

StatusOr<std::string> Coordinator::EpochText() {
  return Gather(FrameType::kEpoch, " ");
}

StatusOr<std::string> Coordinator::StatsText() {
  return Gather(FrameType::kStats, "\n");
}

StatusOr<std::string> Coordinator::Gather(FrameType type,
                                          const char* separator) {
  for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
    if (Status w = serve::WriteFrame(fds_[s], type, ""); !w) {
      return ShardError(s, w);
    }
  }
  std::string out;
  for (uint32_t s = 0; s < manifest_.num_shards; ++s) {
    auto frame = serve::ReadFrame(fds_[s]);
    if (!frame) return ShardError(s, frame.status());
    if (frame->type != FrameType::kOk) {
      return Status::Internal("shard " + std::to_string(s) +
                              " directive failed: " + frame->body);
    }
    out += "shard " + std::to_string(s) + separator + frame->body;
  }
  return out;
}

}  // namespace pegasus::shard
