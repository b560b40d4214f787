// In-process NDJSON client for the solver service.
//
// Tests need to exercise the exact request/response path the transports
// use -- parse, admit, queue, process, serialize -- without a process
// boundary. InProcessClient owns a ServerCore and turns
// one request line into one parsed response; submit_only() admits without
// draining so tests can fill the bounded queue and observe shed responses
// deterministically.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hicond/obs/json.hpp"
#include "hicond/serve/server.hpp"

namespace hicond::serve {

class InProcessClient {
 public:
  explicit InProcessClient(const ServerOptions& options = {});

  /// Submit one request line and run the queue to completion; returns the
  /// response to *this* request (identified by submission order).
  [[nodiscard]] obs::JsonValue call(const std::string& line);

  /// Raw-string variant of call() (exact bytes the wire would carry).
  [[nodiscard]] std::string call_raw(const std::string& line);

  /// Admit without processing: returns the immediate response (parse error
  /// or queue_full shed) if any, nullopt when the request was queued.
  [[nodiscard]] std::optional<std::string> submit_only(
      const std::string& line);

  /// Process every queued request, returning the responses in order.
  [[nodiscard]] std::vector<std::string> drain();

  [[nodiscard]] ServerCore& core() noexcept { return core_; }

 private:
  ServerCore core_;
};

}  // namespace hicond::serve
