#include "service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "util.hpp"

extern char** environ;

namespace perfbench {

namespace {

bool alive(pid_t pid) { return ::kill(pid, 0) == 0 || errno != ESRCH; }

}  // namespace

Service::Service(const std::vector<std::string>& argv, int threads,
                 const std::string& cwd, const std::string& log_path) {
  // Everything the child needs is prepared before fork(): between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_NUM_THREADS=", 16) != 0) {
      env_store.emplace_back(*e);
    }
  }
  env_store.push_back("OMP_NUM_THREADS=" + std::to_string(threads));
  std::vector<char*> envp;
  for (std::string& s : env_store) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> arg_store = argv;
  std::vector<char*> args;
  for (std::string& s : arg_store) args.push_back(s.data());
  args.push_back(nullptr);

  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe2 failed");
  }
  const int log_fd = ::open(log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    if (log_fd >= 0) ::dup2(log_fd, 2);
    if (::chdir(cwd.c_str()) != 0) ::_exit(126);
    ::execve(args[0], args.data(), envp.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  if (log_fd >= 0) ::close(log_fd);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (pid_ < 0) {
    ::close(to_child_);
    ::close(from_child_);
    throw std::runtime_error("fork failed");
  }
}

Service::~Service() {
  kill_all();
}

void Service::kill_all() {
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
  to_child_ = from_child_ = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  for (const pid_t p : extra_pids) {
    if (p > 0 && alive(p)) ::kill(p, SIGKILL);
  }
  for (const pid_t p : extra_pids) {
    for (int i = 0; i < 500 && p > 0 && alive(p); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  extra_pids.clear();
}

void Service::send(const std::string& line) {
  std::string out = line;
  out += '\n';
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t k = ::write(to_child_, out.data() + done, out.size() - done);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("service stdin closed");
    }
    done += static_cast<std::size_t>(k);
  }
}

std::string Service::receive(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    const double left = deadline - now_s();
    if (left <= 0) {
      throw std::runtime_error("service did not answer within the timeout");
    }
    pollfd p{from_child_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (r < 0 && errno != EINTR) {
      throw std::runtime_error("poll failed");
    }
    if (r <= 0) continue;
    char chunk[1 << 16];
    const ssize_t k = ::read(from_child_, chunk, sizeof chunk);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) {
      throw std::runtime_error("service closed its output");
    }
    buffer_.append(chunk, static_cast<std::size_t>(k));
  }
}

std::string Service::call(const std::string& line, double timeout_s) {
  send(line);
  return receive(timeout_s);
}

bool Service::shutdown(double timeout_s) {
  bool clean = true;
  try {
    const std::string r = call("{\"op\":\"shutdown\"}", timeout_s);
    clean = r.find("\"ok\":true") != std::string::npos;
  } catch (const std::exception&) {
    clean = false;
  }
  ::close(to_child_);
  to_child_ = -1;
  const double deadline = now_s() + timeout_s;
  int status = 0;
  while (pid_ > 0) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (now_s() > deadline) {
      clean = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Workers that exited leave the list before kill_all(), so a recycled pid
  // is never signalled.
  std::vector<pid_t> stuck;
  for (const pid_t p : extra_pids) {
    while (p > 0 && alive(p) && now_s() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (p > 0 && alive(p)) stuck.push_back(p);
  }
  clean = clean && stuck.empty();
  extra_pids = std::move(stuck);
  kill_all();
  return clean;
}

double peak_rss_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
