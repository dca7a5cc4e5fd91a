// Tests for the one text front end: ServeTextLoop
// (src/serve/text_serving.h) over a serve::Frontend (src/serve/frontend.h),
// driven through string streams over a QueryService and over a 1-shard
// in-process fleet. The contract under test:
//
//   * a batch's stdout is byte-identical to the backend's AnswerText and to
//     the socket Server's kBatch reply, and hashes to the reply goldens;
//   * the publish / epoch / stats replies are the bodies the Server sends
//     for kPublish / kEpoch / kStats, written after the pending batch;
//   * malformed query lines and directives are rejected on the error
//     stream with "stdin:<n>:" context, leave the pending batch intact,
//     and never fail the batch;
//   * the fleet's publish is a typed rejection that leaves it serving;
//   * EOF answers the pending batch.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/serve/frontend.h"
#include "src/serve/query_service.h"
#include "src/serve/server.h"
#include "src/serve/text_serving.h"
#include "src/serve/wire.h"
#include "src/shard/coordinator.h"
#include "src/shard/manifest.h"
#include "src/shard/worker.h"
#include "tests/test_util.h"

namespace pegasus {
namespace {

using serve::FrameType;
using testing::kReplyGoldenTop;

struct LoopOutput {
  std::string out;
  std::string err;
};

LoopOutput RunLoop(serve::Frontend& frontend, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  serve::ServeTextLoop(frontend, kReplyGoldenTop, in, out, err);
  return {out.str(), err.str()};
}

// One request/reply round trip on a fresh loopback connection; the reply
// body, or the kError body prefixed with "kError: ".
std::string SocketReply(uint16_t port, FrameType type,
                        const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string reply = "no connection";
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0 &&
      serve::WriteFrame(fd, type, body)) {
    auto frame = serve::ReadFrame(fd);
    reply = !frame                             ? frame.status().ToString()
            : frame->type == FrameType::kError ? "kError: " + frame->body
                                               : frame->body;
  }
  if (fd >= 0) ::close(fd);
  return reply;
}

std::vector<QueryRequest> Parse(const std::string& text) {
  auto requests =
      serve::ParseBatchText(text, testing::QueryGoldenGraph().num_nodes());
  EXPECT_TRUE(requests) << requests.status().ToString();
  return requests ? *std::move(requests) : std::vector<QueryRequest>{};
}

// Drops the resident-memory line, the one stats line that moves between
// two reads with nothing served in between.
std::string WithoutResidentLine(const std::string& stats) {
  std::istringstream in(stats);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("resident_kb ", 0) != 0) out += line + "\n";
  }
  return out;
}

class TextLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    manifest_path_ = new std::string(testing::WriteGoldenSingleShard(
        "text_loop_" + std::to_string(::getpid())));
  }
  static void TearDownTestSuite() { delete manifest_path_; }

  // The golden summary's PSB (the single shard's file).
  static std::string PsbPath() {
    return shard::ManifestDir(*manifest_path_) + "/shard_000.psb";
  }

  QueryService service_{
      testing::QueryGoldenSummary(testing::QueryGoldenGraph()),
      {.num_threads = 2}};
  static std::string* manifest_path_;
};

std::string* TextLoopTest::manifest_path_ = nullptr;

TEST_F(TextLoopTest, NodeBatchEqualsAnswerTextAndSocketReply) {
  serve::Server server(service_, {.top = kReplyGoldenTop});
  ASSERT_TRUE(server.Start());
  for (const auto& golden : testing::ReplyGoldenBatches()) {
    const LoopOutput loop = RunLoop(service_, golden.text);
    auto text = service_.AnswerText(Parse(golden.text), kReplyGoldenTop);
    ASSERT_TRUE(text) << text.status().ToString();
    EXPECT_EQ(loop.out, *text) << golden.name;
    EXPECT_EQ(loop.out,
              SocketReply(server.port(), FrameType::kBatch, golden.text))
        << golden.name;
    EXPECT_EQ(testing::HashBytes(loop.out), golden.hash) << golden.name;
    // The timing line goes to the error stream, never into the reply.
    EXPECT_EQ(loop.err.rfind("answered ", 0), 0u) << loop.err;
    EXPECT_EQ(loop.err.find("error"), std::string::npos) << loop.err;
  }
}

TEST_F(TextLoopTest, DirectiveRepliesEqualServerFrames) {
  serve::Server server(service_, {.top = kReplyGoldenTop});
  ASSERT_TRUE(server.Start());

  const LoopOutput epoch = RunLoop(service_, "epoch\n");
  EXPECT_EQ(epoch.out, "epoch 1\n");
  EXPECT_EQ(epoch.out, SocketReply(server.port(), FrameType::kEpoch, ""));

  // The socket's stats reply is the service's, then the listener's
  // connection lines.
  const LoopOutput stats = RunLoop(service_, "stats\n");
  const std::string socket_stats =
      SocketReply(server.port(), FrameType::kStats, "");
  EXPECT_TRUE(WithoutResidentLine(socket_stats)
                  .starts_with(WithoutResidentLine(stats.out) +
                               "connections_open "))
      << stats.out << "\nvs\n" << socket_stats;
  EXPECT_EQ(stats.out.rfind("epoch 1 cache_hits ", 0), 0u) << stats.out;

  // Publish the same file into two services at epoch 1: one through the
  // loop, one through a kPublish frame.
  QueryService other(testing::QueryGoldenSummary(testing::QueryGoldenGraph()),
                     {.num_threads = 1});
  serve::Server other_server(other, {.top = kReplyGoldenTop});
  ASSERT_TRUE(other_server.Start());
  const LoopOutput published = RunLoop(service_, "publish " + PsbPath());
  EXPECT_EQ(published.out.rfind("epoch 2 published (", 0), 0u)
      << published.out << published.err;
  EXPECT_EQ(published.out, SocketReply(other_server.port(),
                                       FrameType::kPublish, PsbPath()));
  EXPECT_EQ(service_.epoch(), 2u);
  EXPECT_EQ(other.epoch(), 2u);
}

TEST_F(TextLoopTest, MalformedLinesRejectedWithContextBatchSurvives) {
  const LoopOutput loop = RunLoop(service_,
                                  "degree\n"
                                  "bogus 1\n"
                                  "neighbors 999999\n"
                                  "rwr 3 -0.5\n"
                                  "epoch extra\n"
                                  "publish\n"
                                  "stats now\n"
                                  "publish a b\n"
                                  "# a comment\n"
                                  "neighbors 5\n");
  // One batch with both good lines: no rejected directive flushed it.
  auto expected =
      service_.AnswerText(Parse("degree\nneighbors 5\n"), kReplyGoldenTop);
  ASSERT_TRUE(expected) << expected.status().ToString();
  EXPECT_EQ(loop.out, *expected);
  for (const char* needle :
       {"error: stdin:2: unknown query kind 'bogus'",
        "error: stdin:3: OUT_OF_RANGE",
        "error: stdin:4: rwr: explicit parameter must be in [0, 1)",
        "error: stdin:5: epoch: unexpected trailing token 'extra'",
        "error: stdin:6: publish needs a summary path",
        "error: stdin:7: stats: unexpected trailing token 'now'",
        "error: stdin:8: publish: unexpected trailing token 'b'"}) {
    EXPECT_NE(loop.err.find(needle), std::string::npos)
        << needle << "\n" << loop.err;
  }
  EXPECT_EQ(loop.err.find("stdin:1:"), std::string::npos) << loop.err;
  EXPECT_EQ(loop.err.find("stdin:9:"), std::string::npos) << loop.err;
  EXPECT_EQ(loop.err.find("stdin:10:"), std::string::npos) << loop.err;
}

// A directive answers the queries queued before it first, so they are
// answered at the epoch that was live when they were issued.
TEST_F(TextLoopTest, DirectivesAnswerThePendingBatchFirst) {
  auto degree = service_.AnswerText(Parse("degree\n"), kReplyGoldenTop);
  auto rwr = service_.AnswerText(Parse("rwr 3\n"), kReplyGoldenTop);
  ASSERT_TRUE(degree && rwr);
  const LoopOutput loop = RunLoop(
      service_, "degree\nepoch\nrwr 3\npublish " + PsbPath() + "\n");
  const std::string head = *degree + "epoch 1\n" + *rwr;
  EXPECT_EQ(loop.out.substr(0, head.size()), head) << loop.out;
  EXPECT_EQ(loop.out.rfind("epoch 2 published (", head.size()), head.size())
      << loop.out;
}

TEST_F(TextLoopTest, FailedPublishReportedAfterPendingBatch) {
  const LoopOutput loop = RunLoop(
      service_, "degree\npublish /nonexistent/x.psb\nepoch\n");
  auto batch = service_.AnswerText(Parse("degree\n"), kReplyGoldenTop);
  ASSERT_TRUE(batch) << batch.status().ToString();
  // The batch was answered at epoch 1, then the publish failed and left
  // the service at epoch 1.
  EXPECT_EQ(loop.out, *batch + "epoch 1\n");
  EXPECT_NE(loop.err.find("error: stdin:2: "), std::string::npos) << loop.err;
}

TEST_F(TextLoopTest, NothingPublishedRejectsQueriesUntilPublish) {
  QueryService empty({.num_threads = 1});
  const LoopOutput loop =
      RunLoop(empty, "degree\npublish " + PsbPath() + "\ndegree\n");
  EXPECT_NE(loop.err.find("error: stdin:1: FAILED_PRECONDITION: no summary "
                          "published"),
            std::string::npos)
      << loop.err;
  auto batch = empty.AnswerText(Parse("degree\n"), kReplyGoldenTop);
  ASSERT_TRUE(batch) << batch.status().ToString();
  EXPECT_EQ(loop.out.rfind("epoch 1 published (", 0), 0u) << loop.out;
  EXPECT_TRUE(loop.out.ends_with(*batch)) << loop.out;
}

TEST_F(TextLoopTest, EofAnswersThePendingBatch) {
  const std::string text = "rwr 3\npagerank";  // no blank line, no '\n'
  const LoopOutput loop = RunLoop(service_, text);
  auto expected = service_.AnswerText(Parse(text), kReplyGoldenTop);
  ASSERT_TRUE(expected) << expected.status().ToString();
  EXPECT_EQ(loop.out, *expected);

  // Blank lines split batches; each batch carries its own epoch line.
  const LoopOutput two = RunLoop(service_, "degree\n\n\nclustering\n");
  auto first = service_.AnswerText(Parse("degree\n"), kReplyGoldenTop);
  auto second = service_.AnswerText(Parse("clustering\n"), kReplyGoldenTop);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(two.out, *first + *second);
}

TEST_F(TextLoopTest, OneShardFleetServesTheSameBytes) {
  ASSERT_FALSE(manifest_path_->empty());
  auto manifest = shard::LoadManifest(*manifest_path_);
  ASSERT_TRUE(manifest) << manifest.status().ToString();
  auto worker = shard::ShardWorker::Start(*manifest_path_, 0);
  ASSERT_TRUE(worker) << worker.status().ToString();
  auto fleet =
      shard::Coordinator::Connect(*std::move(manifest), {(*worker)->port()});
  ASSERT_TRUE(fleet) << fleet.status().ToString();
  shard::Coordinator& coordinator = **fleet;

  serve::Server server(service_, {.top = kReplyGoldenTop});
  ASSERT_TRUE(server.Start());
  for (const auto& golden : testing::ReplyGoldenBatches()) {
    const LoopOutput loop = RunLoop(coordinator, golden.text);
    auto text = coordinator.AnswerText(Parse(golden.text), kReplyGoldenTop);
    ASSERT_TRUE(text) << text.status().ToString();
    EXPECT_EQ(loop.out, *text) << golden.name;
    EXPECT_EQ(loop.out,
              SocketReply(server.port(), FrameType::kBatch, golden.text))
        << golden.name;
    EXPECT_EQ(testing::HashBytes(loop.out), golden.hash) << golden.name;
  }

  // Directives: per-worker epochs and stats; publish is a typed rejection
  // that answers the pending batch first and leaves the fleet serving.
  auto degree = coordinator.AnswerText(Parse("degree\n"), kReplyGoldenTop);
  auto hop = coordinator.AnswerText(Parse("hop 5\n"), kReplyGoldenTop);
  ASSERT_TRUE(degree && hop);
  const LoopOutput loop = RunLoop(
      coordinator, "degree\npublish " + PsbPath() + "\nepoch\nstats\nhop 5");
  EXPECT_TRUE(loop.out.starts_with(*degree + "shard 0 epoch 1\nshard 0\n" +
                                   "epoch 1 cache_hits "))
      << loop.out;
  EXPECT_TRUE(loop.out.ends_with(*hop)) << loop.out;
  EXPECT_NE(loop.err.find("error: stdin:2: FAILED_PRECONDITION: a fleet "
                          "publishes per worker"),
            std::string::npos)
      << loop.err;
  EXPECT_EQ((*worker)->service().epoch(), 1u);
}

}  // namespace
}  // namespace pegasus
