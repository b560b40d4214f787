// A service process under test (hicond_serve or hicond_router) spoken to
// over its stdio NDJSON transport.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Service {
 public:
  /// Spawn `argv` with OMP_NUM_THREADS=`threads`, working directory `cwd`
  /// and standard error appended to `log_path`.
  Service(const std::vector<std::string>& argv, int threads,
          const std::string& cwd, const std::string& log_path);
  /// Kills whatever is still running (the process and `extra_pids`) and
  /// waits for it.
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Write one request line (a newline is appended). Blocks until written.
  void send(const std::string& line);
  /// Wait for one complete response line; throws on EOF or after
  /// `timeout_s` seconds without one.
  std::string receive(double timeout_s = 120.0);
  /// send() then receive().
  std::string call(const std::string& line, double timeout_s = 120.0);

  [[nodiscard]] pid_t pid() const { return pid_; }
  /// Processes the service spawned itself (router workers): checked and
  /// killed on teardown, since they are not this process's children.
  std::vector<pid_t> extra_pids;

  /// Send the shutdown op, close stdin and wait for the process (and its
  /// extra pids) to exit. Returns true on a clean exit with status 0.
  bool shutdown(double timeout_s = 60.0);

 private:
  void kill_all();

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mib(pid_t pid);

}  // namespace perfbench
