#include "daemon.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kListenTimeoutS = 60.0;
constexpr double kDrainTimeoutS = 30.0;

std::string after(const std::string& line, const std::string& key) {
  const auto at = line.find(key);
  if (at == std::string::npos) return "";
  const auto begin = at + key.size();
  const auto end = line.find_first_of(" \t", begin);
  return line.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

double number_after(const std::string& line, const std::string& key) {
  const std::string text = after(line, key);
  if (text.empty()) throw std::runtime_error("perfbench: no '" + key + "' in: " + line);
  return std::stod(text);
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw std::runtime_error("perfbench: pipe failed");
  const pid_t parent = ::getpid();
  const Clock::time_point spawned = Clock::now();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("perfbench: fork failed");
  if (pid_ == 0) {
    // Child: async-signal-safe calls only. The daemon dies with the
    // benchmark, so no run can leave a server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];

  const Clock::time_point deadline =
      spawned + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kListenTimeoutS));
  std::string line;
  while (read_line(line, deadline)) {
    if (line.find("cq_serve: loaded ") == 0) {
      loaded_mib_[after(line, "loaded ")] = number_after(line, "ops, ");
    } else if (line.find("cq_serve: listening on ") == 0) {
      setup_s_ = ms_between(spawned, Clock::now()) / 1e3;
      const auto colon = line.rfind(':', line.find(" ("));
      port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
      return;
    }
  }
  kill_and_reap();
  throw std::runtime_error("perfbench: cq_serve exited or stayed silent before listening");
}

Daemon::~Daemon() { kill_and_reap(); }

double Daemon::resident_mib() const {
  double sum = 0.0;
  for (const auto& [name, mib] : loaded_mib_) sum += mib;
  return sum;
}

void Daemon::kill_and_reap() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

bool Daemon::read_line(std::string& line, Clock::time_point deadline) {
  for (;;) {
    const auto newline = pending_.find('\n');
    if (newline != std::string::npos) {
      line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      return true;
    }
    const double left_ms = ms_between(Clock::now(), deadline);
    if (left_ms <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char buffer[4096];
    const ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(buffer, static_cast<std::size_t>(n));
  }
}

double Daemon::peak_rss_mib() const { return vm_hwm_mib(pid_); }

double Daemon::cpu_ms() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

DaemonSummary Daemon::drain() {
  if (pid_ <= 0) throw std::runtime_error("perfbench: daemon already drained");
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDrainTimeoutS));
  DaemonSummary summary;
  std::string line;
  while (read_line(line, deadline)) {
    if (line.find(" completed=") != std::string::npos) {
      std::istringstream words(line.substr(std::strlen("cq_serve: ")));
      std::string name;
      words >> name;
      ServedModelSummary& m = summary.models[name];
      m.completed = static_cast<std::size_t>(number_after(line, "completed="));
      m.failed = static_cast<std::size_t>(number_after(line, "failed="));
      m.shed = static_cast<std::size_t>(number_after(line, "shed="));
      m.p50_us = number_after(line, "p50=");
      m.p99_us = number_after(line, "p99=");
    } else if (line.find("replies: result=") != std::string::npos) {
      summary.replies_result = static_cast<std::size_t>(number_after(line, "result="));
      summary.replies_busy = static_cast<std::size_t>(number_after(line, "busy="));
      summary.replies_error = static_cast<std::size_t>(number_after(line, "error="));
      summary.protocol_errors =
          static_cast<std::size_t>(number_after(line, "protocol_errors="));
    }
  }
  int status = 0;
  pid_t reaped = -1;
  while (Clock::now() < deadline) {
    reaped = ::waitpid(pid_, &status, WNOHANG);
    if (reaped != 0) break;
    ::usleep(10000);
  }
  if (reaped != pid_) {
    kill_and_reap();
    throw std::runtime_error("perfbench: cq_serve did not exit after SIGTERM");
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("perfbench: cq_serve drain exited with status " +
                             std::to_string(status));
  }
  return summary;
}

}  // namespace perfbench
