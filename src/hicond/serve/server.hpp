// Newline-delimited-JSON solver service.
//
// ServerCore is the transport-independent request engine: submit() parses
// and admits one request line into a bounded queue (returning an immediate
// shed response when the queue is full -- explicit backpressure instead of
// unbounded buffering), step() executes the oldest admitted request from
// its parsed tree (each line is parsed once), and the transports (stdio and
// unix-socket connections, both through serve_connection) do nothing but
// move lines. Deadlines are checked at phase boundaries: on
// dequeue, and again between hierarchy setup and the solve, so an expired
// request is shed before it burns solver time. A shutdown request drains
// everything already admitted, then stops the loop -- exit is clean, never
// mid-request.
//
// Protocol (one JSON object per line, documented in docs/SERVING.md):
//   {"op":"load","path":P}                 read a snapshot/text graph file
//   {"op":"solve","graph":FP,...}          single RHS through the cache
//   {"op":"batch_solve","graph":FP,...}    k RHS, blocked (serve/batch.hpp)
//   {"op":"update","graph":FP,"updates":[...]}  apply an edge-update batch:
//       registers the mutated graph under its new fingerprint and installs
//       its solver by local hierarchy repair (dynamic/repair.hpp) when
//       possible, cold build otherwise; "mode":"rebuild" forces the cold
//       path. Response carries new_graph, repaired, clusters_touched.
//   {"op":"stats"}                         cache + queue counters
//   {"op":"shutdown"}                      drain and stop
// Every response is a single JSON object with "id" echoed and "ok"; errors
// carry {"ok":false,"error":CODE,"message":...} and are themselves valid
// JSON -- malformed input never kills the server.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "hicond/obs/json.hpp"
#include "hicond/serve/cache.hpp"
#include "hicond/util/timer.hpp"

namespace hicond::serve {

struct ServerOptions {
  std::size_t cache_bytes = std::size_t{256} << 20;  ///< hierarchy cache
  std::size_t queue_capacity = 64;  ///< admitted-but-unprocessed requests
  /// Applied when a request carries no "deadline_ms"; <= 0 disables.
  double default_deadline_ms = 0.0;
  /// Solver options used when a request has no "options" object.
  LaplacianSolverOptions solver{};
};

/// Concurrency contract: ServerCore itself is single-threaded -- submit()
/// and step() must be called from one thread (the transport loop), which is
/// why queue_/graphs_/counters carry no lock. The one component shared with
/// other threads, the hierarchy cache, synchronizes internally behind
/// annotated locks (serve/cache.hpp, util/thread_annotations.hpp); clang
/// builds verify that discipline with -Werror=thread-safety.
class ServerCore {
 public:
  explicit ServerCore(const ServerOptions& options = {});

  /// Parse and admit one request line. Returns an immediate response only
  /// when the request cannot be queued (parse error, unknown op, queue
  /// full); otherwise the response comes from the matching step() call.
  [[nodiscard]] std::optional<std::string> submit(const std::string& line);

  /// Execute the oldest queued request; nullopt when the queue is empty.
  [[nodiscard]] std::optional<std::string> step();

  /// True once a shutdown request has been executed (the transport should
  /// stop reading; queued work admitted before shutdown has been drained).
  [[nodiscard]] bool shutting_down() const noexcept { return shutdown_; }

  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] const HierarchyCache& cache() const noexcept {
    return cache_;
  }

 private:
  struct Pending {
    obs::JsonValue request;   ///< parsed once, at admission
    Timer since_submit;       ///< deadline clock starts at admission
    double deadline_ms = 0.0; ///< <= 0: none
    std::int64_t id = -1;     ///< echoed back; -1 when absent
  };

  std::string process(const Pending& request);

  ServerOptions options_;
  HierarchyCache cache_;
  std::deque<Pending> queue_;
  std::map<std::uint64_t, std::shared_ptr<const Graph>> graphs_;
  bool shutdown_ = false;
  std::int64_t requests_ = 0;
  std::int64_t shed_ = 0;
};

/// The one NDJSON serve loop: reads request lines from `in_fd` through
/// wire::LineBuffer, submits each, and writes every response to `out_fd`
/// with wire::write_line as soon as it exists. Returns on EOF, on a read or
/// write error, or after a shutdown request completed. At EOF a final line
/// without its '\n' is still answered. The stdio transport runs it on
/// fds 0 and 1, and each unix-socket connection on its socket fd.
void serve_connection(ServerCore& core, int in_fd, int out_fd);

/// Same protocol over a unix domain socket: binds `path`, accepts one
/// connection at a time, serves each until its EOF, and returns after a
/// shutdown request (removing the socket file). Returns 0 on clean exit.
int serve_unix_socket(ServerCore& core, const std::string& path);

}  // namespace hicond::serve
