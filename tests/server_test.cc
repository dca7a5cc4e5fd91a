// Tests for the socket front end (src/serve/server.h, src/serve/wire.h).
//
// The contract under test (ISSUE 6):
//   * framing — EncodeFrame/ReadFrame round-trip; oversized length
//     prefixes are rejected without allocation;
//   * batch serving — a batch answered over the socket is byte-identical
//     to ParseBatchText + Answer + FormatBatchResponse run in-process
//     (i.e. to what the stdin loop prints, minus the timing line);
//   * protocol errors — bad query lines, unsupported versions, and
//     unknown frame types get a kError frame and the connection stays
//     open; batch before any Publish fails kFailedPrecondition;
//   * concurrency — many clients hammering one server all receive the
//     exact expected bytes (this suite runs in the TSan CI job).
//
// All sockets are loopback; Options::port = 0 picks an ephemeral port.

#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/core/pegasus.h"
#include "src/graph/generators.h"
#include "src/serve/shard_codec.h"
#include "src/serve/text_serving.h"
#include "src/serve/wire.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using serve::Frame;
using serve::FrameType;
using serve::ReadFrame;
using serve::Server;
using serve::WriteFrame;

class ClientSocket {
 public:
  explicit ClientSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~ClientSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  ClientSocket(const ClientSocket&) = delete;
  ClientSocket& operator=(const ClientSocket&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // One request/response round trip over the live connection.
  StatusOr<Frame> RoundTrip(FrameType type, const std::string& body) {
    const Status sent = WriteFrame(fd_, type, body);
    if (!sent) return sent;
    return ReadFrame(fd_);
  }

  // Sends raw bytes (for malformed-frame tests) and reads one frame back.
  StatusOr<Frame> RawRoundTrip(const std::string& bytes) {
    if (::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(bytes.size())) {
      return Status::Internal("send failed");
    }
    return ReadFrame(fd_);
  }

 private:
  int fd_ = -1;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    Graph g = GenerateBarabasiAlbertTails(220, 3, 0.5, 11);
    num_nodes_ = g.num_nodes();
    summary_ = SummarizeGraphToRatio(g, {0, 1}, 0.5)->summary;
  }

  // Expected bytes for `body`, computed in-process through the same
  // pipeline the stdin loop uses.
  std::string ExpectedBatch(QueryService& service, const std::string& body,
                            size_t top = 10) {
    auto requests = serve::ParseBatchText(body, num_nodes_);
    EXPECT_TRUE(requests.ok()) << requests.status().ToString();
    auto batch = service.Answer(*requests);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    return serve::FormatBatchResponse(*requests, *batch, top);
  }

  NodeId num_nodes_ = 0;
  SummaryGraph summary_;
};

constexpr char kMixedBatch[] =
    "degree\n"
    "# comment lines are skipped\n"
    "pagerank 0.5\n"
    "neighbors 5\n"
    "rwr 3 0.1\n"
    "hop 7\n"
    "php 9\n"
    "clustering\n";

TEST(WireTest, EncodeReadRoundTripViaSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrame(fds[0], FrameType::kBatch, "degree\n").ok());
  auto frame = ReadFrame(fds[1]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->version, serve::kWireVersion);
  EXPECT_EQ(frame->type, FrameType::kBatch);
  EXPECT_EQ(frame->body, "degree\n");

  // Clean close reads as kNotFound (EOF at a frame boundary).
  ::close(fds[0]);
  auto eof = ReadFrame(fds[1]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fds[1]);
}

TEST(WireTest, OversizedLengthPrefixRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const uint32_t huge = serve::kMaxFramePayload + 1;
  char prefix[4];
  std::memcpy(prefix, &huge, sizeof(huge));
  ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
  auto frame = ReadFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireTest, MidFrameEofIsDataLoss) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Length says 10 bytes, only 3 arrive before close.
  const uint32_t len = 10;
  std::string partial(reinterpret_cast<const char*>(&len), 4);
  partial += "abc";
  ASSERT_EQ(::send(fds[0], partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  ::close(fds[0]);
  auto frame = ReadFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  ::close(fds[1]);
}

TEST_F(ServerTest, BatchMatchesInProcessBytes) {
  QueryService service(summary_);
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.RoundTrip(FrameType::kBatch, kMixedBatch);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kOk);
  EXPECT_EQ(reply->body, ExpectedBatch(service, kMixedBatch));
}

// The reply-byte golden batches over a socket: the body equals
// FormatBatchResponse over an in-process Answer, and the pinned hash,
// before a publish; after a publish swaps in another summary it still
// equals the in-process reference for the new epoch, so the cached
// rankings of the old epoch never leak into a new-epoch reply.
TEST_F(ServerTest, ReplyGoldenBatchesMatchInProcessAcrossPublish) {
  const Graph golden_graph = testing::QueryGoldenGraph();
  QueryService service(testing::QueryGoldenSummary(golden_graph),
                       {.num_threads = 4});
  Server server(service, {.top = testing::kReplyGoldenTop});
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());

  const auto check = [&](bool pinned) {
    for (const auto& golden : testing::ReplyGoldenBatches()) {
      auto reply = client.RoundTrip(FrameType::kBatch, golden.text);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      ASSERT_EQ(reply->type, FrameType::kOk) << reply->body;
      auto requests =
          serve::ParseBatchText(golden.text, service.view()->num_nodes());
      ASSERT_TRUE(requests.ok()) << requests.status().ToString();
      auto batch = service.Answer(*requests);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      EXPECT_EQ(reply->body,
                serve::FormatBatchResponse(*requests, *batch,
                                           testing::kReplyGoldenTop))
          << golden.name;
      if (pinned) {
        EXPECT_EQ(testing::HashBytes(reply->body), golden.hash)
            << golden.name;
      }
    }
  };
  check(/*pinned=*/true);
  ASSERT_EQ(service.Publish(summary_), 2u);
  check(/*pinned=*/false);
}

TEST_F(ServerTest, ErrorFramesKeepConnectionOpen) {
  QueryService service(summary_);
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());

  // Bad query line → kError with line context.
  auto bad = client.RoundTrip(FrameType::kBatch, "bogus 1\n");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->type, FrameType::kError);
  EXPECT_NE(bad->body.find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(bad->body.find("line 1"), std::string::npos);

  // Unsupported version byte → kError naming both versions.
  std::string payload;
  payload.push_back(static_cast<char>(9));  // version
  payload.push_back(static_cast<char>(FrameType::kEpoch));
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string raw(reinterpret_cast<const char*>(&len), 4);
  raw += payload;
  auto version = client.RawRoundTrip(raw);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(version->type, FrameType::kError);
  EXPECT_NE(version->body.find("unsupported wire version 9"),
            std::string::npos);

  // Unknown frame type → kError with the hex type.
  payload.clear();
  payload.push_back(static_cast<char>(serve::kWireVersion));
  payload.push_back(static_cast<char>(0x42));
  raw.assign(reinterpret_cast<const char*>(&len), 4);
  raw += payload;
  auto unknown = client.RawRoundTrip(raw);
  ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
  EXPECT_EQ(unknown->type, FrameType::kError);
  EXPECT_NE(unknown->body.find("unknown frame type 0x42"),
            std::string::npos);

  // After all three errors the connection still answers real batches.
  auto good = client.RoundTrip(FrameType::kBatch, "degree\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->type, FrameType::kOk);
  EXPECT_EQ(good->body, ExpectedBatch(service, "degree\n"));
}

TEST_F(ServerTest, BatchBeforePublishFailsTyped) {
  QueryService service;  // nothing published: epoch 0
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());
  auto reply = client.RoundTrip(FrameType::kBatch, "degree\n");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->body.find("FAILED_PRECONDITION"), std::string::npos);
  EXPECT_NE(reply->body.find("no summary published"), std::string::npos);
}

TEST_F(ServerTest, EpochAndStatsDirectives) {
  QueryService service(summary_);
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());

  auto epoch = client.RoundTrip(FrameType::kEpoch, "");
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch->type, FrameType::kOk);
  EXPECT_EQ(epoch->body, "epoch 1\n");

  auto stats = client.RoundTrip(FrameType::kStats, "");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->type, FrameType::kOk);
  EXPECT_NE(stats->body.find("epoch 1 "), std::string::npos);
  EXPECT_NE(stats->body.find("inflight_batches 0"), std::string::npos);
  EXPECT_NE(stats->body.find("connections_open 1"), std::string::npos);
  EXPECT_NE(stats->body.find("conn 1 inflight 0"), std::string::npos);
#if defined(__linux__)
  EXPECT_NE(stats->body.find("\nresident_kb "), std::string::npos);
  EXPECT_NE(stats->body.find(" peak_resident_kb "), std::string::npos);
#endif
}

TEST_F(ServerTest, ConcurrentClientsGetIdenticalBytes) {
  QueryService service(summary_, {.num_threads = 4});
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());
  const std::string expected = ExpectedBatch(service, kMixedBatch);

  constexpr int kClients = 6;
  constexpr int kRounds = 8;
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientSocket client(server.port());
      if (!client.ok()) {
        mismatches[static_cast<size_t>(c)] = kRounds;
        return;
      }
      for (int r = 0; r < kRounds; ++r) {
        auto reply = client.RoundTrip(FrameType::kBatch, kMixedBatch);
        if (!reply.ok() || reply->type != FrameType::kOk ||
            reply->body != expected) {
          ++mismatches[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(mismatches[static_cast<size_t>(c)], 0) << "client " << c;
  }
  const auto serving = service.serving_stats();
  EXPECT_EQ(serving.total_batches,
            static_cast<uint64_t>(kClients) * kRounds + 1);  // + expected
  EXPECT_GE(serving.max_inflight_batches, 1);
}

TEST_F(ServerTest, OversizedBatchRejectedAndCounted) {
  QueryService service(summary_);
  Server::Options options;
  options.max_batch_requests = 2;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());

  auto reply = client.RoundTrip(FrameType::kBatch,
                                "degree\npagerank\nclustering\n");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->body.find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(reply->body.find("per-batch cap"), std::string::npos);

  // A batch at the cap still serves, and the rejection was counted.
  auto good = client.RoundTrip(FrameType::kBatch, "degree\npagerank\n");
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->type, FrameType::kOk);
  EXPECT_EQ(server.stats().rejected_oversized, 1u);
  auto stats = client.RoundTrip(FrameType::kStats, "");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->body.find("rejected_oversized 1"), std::string::npos);
}

TEST_F(ServerTest, ServerCapZeroRejectsEveryBatch) {
  QueryService service(summary_);
  Server::Options options;
  options.max_inflight_total = 0;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());

  auto reply = client.RoundTrip(FrameType::kBatch, "degree\n");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->body.find("FAILED_PRECONDITION"), std::string::npos);
  EXPECT_NE(reply->body.find("server overloaded"), std::string::npos);
  EXPECT_EQ(server.stats().rejected_overload, 1u);
  EXPECT_EQ(server.stats().inflight_total, 0);  // rollback left no residue
  ASSERT_EQ(server.stats().connections.size(), 1u);
  EXPECT_EQ(server.stats().connections[0].inflight_batches, 0);

  // Directives are not batches: they bypass admission.
  auto epoch = client.RoundTrip(FrameType::kEpoch, "");
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch->type, FrameType::kOk);
}

TEST_F(ServerTest, BackpressureAccountingUnderConcurrency) {
  // With the server-wide cap at 1, concurrent clients race for the one
  // slot: every reply is either the exact expected bytes or a counted
  // "server overloaded" rejection — nothing hangs, nothing corrupts.
  QueryService service(summary_, {.num_threads = 2});
  Server::Options options;
  options.max_inflight_total = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());
  const std::string expected = ExpectedBatch(service, kMixedBatch);

  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::atomic<int> served{0}, rejected{0}, corrupt{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ClientSocket client(server.port());
      if (!client.ok()) {
        corrupt += kRounds;
        return;
      }
      for (int r = 0; r < kRounds; ++r) {
        auto reply = client.RoundTrip(FrameType::kBatch, kMixedBatch);
        if (reply.ok() && reply->type == FrameType::kOk &&
            reply->body == expected) {
          ++served;
        } else if (reply.ok() && reply->type == FrameType::kError &&
                   reply->body.find("server overloaded") !=
                       std::string::npos) {
          ++rejected;
        } else {
          ++corrupt;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(served + rejected, kClients * kRounds);
  EXPECT_GE(served, 1);  // the slot is never wedged shut
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.inflight_total, 0);
}

TEST_F(ServerTest, ShardBatchAnswersWithShardPartialFrame) {
  QueryService service(summary_);
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());
  ClientSocket client(server.port());
  ASSERT_TRUE(client.ok());

  auto requests = serve::ParseBatchText(kMixedBatch, num_nodes_);
  ASSERT_TRUE(requests.ok()) << requests.status().ToString();
  auto reply = client.RoundTrip(FrameType::kShardBatch,
                                serve::EncodeShardBatchBody(*requests));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kShardPartial);

  // The binary partial carries the same epoch and byte-identical answers
  // as an in-process Answer() on the same service.
  auto partial = serve::DecodeShardPartialBody(reply->body);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  auto direct = service.Answer(*requests);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(partial->epoch, direct->epoch);
  ASSERT_EQ(partial->results.size(), direct->results.size());
  for (size_t i = 0; i < direct->results.size(); ++i) {
    EXPECT_EQ(testing::HashQueryResult(partial->results[i]),
              testing::HashQueryResult(direct->results[i]))
        << i;
  }

  // Malformed shard batch → kError, and the connection survives.
  auto bad = client.RoundTrip(FrameType::kShardBatch, "xx");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->type, FrameType::kError);
  auto good = client.RoundTrip(FrameType::kBatch, "degree\n");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->type, FrameType::kOk);
}

TEST_F(ServerTest, StopUnblocksLiveConnections) {
  QueryService service(summary_);
  auto server = std::make_unique<Server>(service, Server::Options{});
  ASSERT_TRUE(server->Start().ok());
  ClientSocket client(server->port());
  ASSERT_TRUE(client.ok());
  // Connection is idle inside ReadFrame on the server; Stop must not hang.
  server->Stop();
  // The client observes the close as EOF / reset, not a valid frame.
  auto frame = ReadFrame(client.fd());
  EXPECT_FALSE(frame.ok());
}

}  // namespace
}  // namespace pegasus
