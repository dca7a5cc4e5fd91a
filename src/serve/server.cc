#include "src/serve/server.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/serve/shard_codec.h"
#include "src/serve/text_serving.h"

namespace pegasus::serve {

namespace {

// listen(2) backlog: pending connections the kernel queues before accept.
constexpr int kListenBacklog = 64;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

// publish bodies may carry stray whitespace/newlines from line-oriented
// clients; the path itself is taken verbatim otherwise.
std::string Trimmed(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// Moves an OK reply into *response.
Status Reply(StatusOr<std::string> reply, std::string* response) {
  if (!reply) return reply.status();
  *response = *std::move(reply);
  return Status::Ok();
}

}  // namespace

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    const Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status s = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  const bool was_stopping = stopping_.exchange(true);
  if (!was_stopping && listen_fd_ >= 0) {
    // Unblock accept(); on Linux a shut-down listener fails the pending
    // accept immediately.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::list<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
  }
  for (const auto& conn : connections) ::shutdown(conn->fd, SHUT_RDWR);
  for (const auto& conn : connections) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
}

void Server::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->finished.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (or the socket died); either way
      // the accept loop is over.
      return;
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ReapFinishedLocked();
      conn->id = ++accepted_;
      connections_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] {
      Handle(*conn);
      conn->finished.store(true, std::memory_order_release);
    });
  }
}

void Server::Handle(Connection& conn) {
  for (;;) {
    auto frame = ReadFrame(conn.fd);
    if (!frame) {
      // Oversized/short frames are protocol corruption: report once
      // (best effort) and drop the connection. Clean EOF and socket
      // errors just end the loop.
      if (frame.status().code() == StatusCode::kInvalidArgument) {
        // lint: status-ignored-ok(best-effort error report while dropping a corrupt connection; a failed write changes nothing)
        (void)WriteFrame(conn.fd, FrameType::kError,
                         frame.status().ToString());
      }
      return;
    }
    std::string response;
    FrameType response_type = FrameType::kOk;
    const Status status = Dispatch(*frame, conn, &response, &response_type);
    const Status write =
        status ? WriteFrame(conn.fd, response_type, response)
               : WriteFrame(conn.fd, FrameType::kError, status.ToString());
    if (!write) return;
  }
}

Status Server::Dispatch(const Frame& frame, Connection& conn,
                        std::string* response, FrameType* response_type) {
  if (frame.version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(frame.version) +
        "; this server speaks version " + std::to_string(kWireVersion));
  }
  switch (frame.type) {
    case FrameType::kBatch:
      return HandleBatch(frame.body, conn, response);
    case FrameType::kShardBatch:
      *response_type = FrameType::kShardPartial;
      return HandleShardBatch(frame.body, conn, response);
    case FrameType::kPublish:
      return Reply(service_.PublishText(Trimmed(frame.body)), response);
    case FrameType::kStats: {
      auto stats = service_.StatsText();
      if (stats) *stats += ConnectionStatsText();
      return Reply(std::move(stats), response);
    }
    case FrameType::kEpoch:
      return Reply(service_.EpochText(), response);
    case FrameType::kOk:
    case FrameType::kShardPartial:
    case FrameType::kError:
      break;  // response types are not requests
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "unknown frame type 0x%02x",
                static_cast<unsigned>(frame.type));
  return Status::InvalidArgument(buf);
}

// Counts a batch against the server-wide in-flight cap and the
// connection's in-flight count. Admission happens in the constructor;
// ok() is false when the cap (or the oversized-batch bound) rejected it,
// with the counters already rolled back. Destruction releases whatever
// was admitted.
class Server::BatchTicket {
 public:
  BatchTicket(Server& server, Connection& conn, size_t request_count)
      : server_(server), conn_(conn) {
    if (request_count > server_.options_.max_batch_requests) {
      server_.rejected_oversized_.fetch_add(1, std::memory_order_relaxed);
      status_ = Status::InvalidArgument(
          "batch of " + std::to_string(request_count) +
          " requests exceeds the per-batch cap of " +
          std::to_string(server_.options_.max_batch_requests));
      return;
    }
    const int total =
        server_.inflight_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (total > server_.options_.max_inflight_total) {
      server_.inflight_total_.fetch_sub(1, std::memory_order_relaxed);
      server_.rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      status_ = Status::FailedPrecondition(
          "server overloaded: in-flight batch cap " +
          std::to_string(server_.options_.max_inflight_total) +
          " reached; retry after the pending batches drain");
      return;
    }
    conn_.inflight.fetch_add(1, std::memory_order_relaxed);
    admitted_ = true;
  }

  ~BatchTicket() {
    if (admitted_) {
      server_.inflight_total_.fetch_sub(1, std::memory_order_relaxed);
      conn_.inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  BatchTicket(const BatchTicket&) = delete;
  BatchTicket& operator=(const BatchTicket&) = delete;

  bool ok() const { return admitted_; }
  const Status& status() const { return status_; }

 private:
  Server& server_;
  Connection& conn_;
  bool admitted_ = false;
  Status status_ = Status::Ok();
};

Status Server::HandleBatch(const std::string& body, Connection& conn,
                           std::string* response) {
  const auto nodes = service_.NodeCount();
  if (!nodes) return nodes.status();
  auto requests = ParseBatchText(body, *nodes);
  if (!requests) return requests.status();
  BatchTicket ticket(*this, conn, requests->size());
  if (!ticket.ok()) return ticket.status();
  return Reply(service_.AnswerText(*requests, options_.top), response);
}

Status Server::HandleShardBatch(const std::string& body, Connection& conn,
                                std::string* response) {
  auto requests = DecodeShardBatchBody(body);
  if (!requests) return requests.status();
  BatchTicket ticket(*this, conn, requests->size());
  if (!ticket.ok()) return ticket.status();
  auto batch = service_.Answer(*requests);
  if (!batch) return batch.status();
  *response = EncodeShardPartialBody(batch->epoch, batch->results);
  return Status::Ok();
}

Server::Stats Server::stats() const {
  Stats stats;
  stats.inflight_total = inflight_total_.load(std::memory_order_relaxed);
  stats.rejected_overload =
      rejected_overload_.load(std::memory_order_relaxed);
  stats.rejected_oversized =
      rejected_oversized_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.accepted = accepted_;
  for (const auto& conn : connections_) {
    if (conn->finished.load(std::memory_order_acquire)) continue;
    ++stats.open;
    stats.connections.push_back(
        {conn->id, conn->inflight.load(std::memory_order_relaxed)});
  }
  return stats;
}

std::string Server::ConnectionStatsText() const {
  const Stats stats = this->stats();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "connections_open %zu connections_accepted %llu\n",
                stats.open, static_cast<unsigned long long>(stats.accepted));
  std::string out = buf;
  std::snprintf(buf, sizeof(buf),
                "server_inflight %d rejected_overload %llu "
                "rejected_oversized %llu\n",
                stats.inflight_total,
                static_cast<unsigned long long>(stats.rejected_overload),
                static_cast<unsigned long long>(stats.rejected_oversized));
  out += buf;
  for (const auto& conn : stats.connections) {
    std::snprintf(buf, sizeof(buf), "conn %llu inflight %d\n",
                  static_cast<unsigned long long>(conn.id),
                  conn.inflight_batches);
    out += buf;
  }
  return out;
}

}  // namespace pegasus::serve
