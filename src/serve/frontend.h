// The text front end's view of whatever answers it.
//
// `pegasus serve` answers one line grammar (src/serve/text_serving.h) from
// one summary (QueryService) or from a shard fleet (shard::Coordinator).
// Both implement this interface, and the one stdin loop (ServeTextLoop)
// and the socket Server build every reply from it, so a reply's bytes do
// not depend on the front end that carried the request. Every reply is a
// complete, '\n'-terminated body; errors are typed Statuses.

#ifndef PEGASUS_SERVE_FRONTEND_H_
#define PEGASUS_SERVE_FRONTEND_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/query/query_engine.h"
#include "src/util/status.h"

namespace pegasus::serve {

class Frontend {
 public:
  Frontend() = default;
  virtual ~Frontend() = default;
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // The node count query lines are validated against; kFailedPrecondition
  // before anything is published.
  [[nodiscard]] virtual StatusOr<NodeId> NodeCount() const = 0;

  // The batch reply: one answer line per request, in request order, then
  // "epoch <E>\n" naming the one epoch every answer came from.
  [[nodiscard]] virtual StatusOr<std::string> AnswerText(
      const std::vector<QueryRequest>& requests, size_t top) = 0;

  // Loads the summary at `path` and publishes it, or a typed rejection.
  [[nodiscard]] virtual StatusOr<std::string> PublishText(
      const std::string& path) = 0;

  // The `epoch` and `stats` directive replies.
  [[nodiscard]] virtual StatusOr<std::string> EpochText() = 0;
  [[nodiscard]] virtual StatusOr<std::string> StatsText() = 0;
};

}  // namespace pegasus::serve

#endif  // PEGASUS_SERVE_FRONTEND_H_
