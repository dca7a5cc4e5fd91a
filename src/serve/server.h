// Socket front end over a resident QueryService.
//
// A Server listens on loopback TCP, speaks the framing in
// src/serve/wire.h, and serves each connection from its own thread. All
// connections share one QueryService, so concurrent batch frames overlap
// on the work-stealing executor exactly like concurrent Answer() calls —
// the server adds transport, not scheduling. Request bodies reuse the
// `pegasus serve` text grammar (src/serve/text_serving.h), and every reply
// body comes from the service's serve::Frontend methods (AnswerText,
// PublishText, EpochText, StatsText) — the same calls the stdin loop
// (ServeTextLoop) makes — so a batch's reply is byte-identical to what the
// stdin loop prints on stdout for it (its timing line goes to stderr).
//
// Malformed *requests* (bad version byte, unknown type, bad query lines)
// get a kError frame and the connection stays open; malformed *frames*
// (oversized length prefix, mid-frame EOF) end the connection. The
// listener binds 127.0.0.1 only — there is no authentication layer, so
// non-local exposure is deliberately not configurable here.
//
// Lifecycle: Start() binds and spawns the accept thread; Stop() (also run
// by the destructor) shuts the listener down, unblocks every connection
// thread, and joins them. port() reports the bound port, which is the way
// to use an ephemeral listen port (Options::port = 0).

#ifndef PEGASUS_SERVE_SERVER_H_
#define PEGASUS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/query_service.h"
#include "src/serve/wire.h"
#include "src/util/status.h"

namespace pegasus::serve {

class Server {
 public:
  struct Options {
    uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
    size_t top = 10;    // answers per query line in batch responses

    // --- Backpressure ------------------------------------------------------
    //
    // Admission control happens before a batch touches the QueryService:
    // a batch with more requests than max_batch_requests is rejected
    // outright (kInvalidArgument), and a batch that would push the
    // server's in-flight count past max_inflight_total is rejected with
    // kFailedPrecondition and the word "overloaded" so clients can tell
    // retryable pushback from malformed input. A connection handles its
    // frames one at a time, so the server-wide cap is the only in-flight
    // limit; each connection's in-flight count (0 or 1) is reported by
    // the `stats` directive. Rejections are counted in stats().
    size_t max_batch_requests = 1 << 16;
    int max_inflight_total = 256;
  };

  Server(QueryService& service, Options options)
      : service_(service), options_(options) {}
  ~Server() { Stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds 127.0.0.1:options.port, starts listening, and spawns the accept
  // thread. kInternal with the errno text on any socket failure.
  [[nodiscard]] Status Start();

  // Stops accepting, unblocks and joins every connection thread, closes
  // all sockets. Idempotent; safe to call from any thread except a
  // connection handler's own.
  void Stop();

  // The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  struct ConnectionStats {
    uint64_t id = 0;
    int inflight_batches = 0;
  };
  struct Stats {
    uint64_t accepted = 0;  // connections ever accepted
    size_t open = 0;        // currently serving
    int inflight_total = 0;             // batches executing server-wide
    uint64_t rejected_overload = 0;     // batches refused by an in-flight cap
    uint64_t rejected_oversized = 0;    // batches refused by the request cap
    std::vector<ConnectionStats> connections;  // one entry per open conn
  };
  Stats stats() const;

  // The listener's lines of a kStats reply, after the service's
  // StatsText: open/accepted connection counts plus per-connection
  // in-flight batch counts.
  std::string ConnectionStatsText() const;

 private:
  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    std::thread thread;
    std::atomic<int> inflight{0};
    std::atomic<bool> finished{false};
  };

  void AcceptLoop();
  void Handle(Connection& conn);
  // Routes one request frame; on OK *response is the body and
  // *response_type the frame type to send (kOk except for shard batches,
  // which answer with kShardPartial).
  [[nodiscard]] Status Dispatch(const Frame& frame, Connection& conn,
                  std::string* response, FrameType* response_type);
  [[nodiscard]] Status HandleBatch(const std::string& body, Connection& conn,
                     std::string* response);
  [[nodiscard]] Status HandleShardBatch(const std::string& body,
                                        Connection& conn,
                                        std::string* response);
  // Admission control: checks the oversized-batch and in-flight caps and,
  // on success, holds both in-flight counters until destruction.
  class BatchTicket;
  // Joins and closes connections whose handler has returned.
  void ReapFinishedLocked();

  QueryService& service_;
  const Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::atomic<int> inflight_total_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_oversized_{0};

  mutable std::mutex mu_;  // guards connections_ / accepted_
  std::list<std::shared_ptr<Connection>> connections_;
  uint64_t accepted_ = 0;
};

}  // namespace pegasus::serve

#endif  // PEGASUS_SERVE_SERVER_H_
