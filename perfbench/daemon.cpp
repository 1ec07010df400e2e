#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

extern char** environ;

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error{"serve daemon: " + what + ": " + std::strerror(errno)};
}

}  // namespace

Daemon::Daemon(const std::string& binary) {
  // A daemon that dies mid-query must surface as a failed write, not as
  // a SIGPIPE that kills the benchmark.
  signal(SIGPIPE, SIG_IGN);
  int in[2], out[2];
  if (pipe2(in, O_CLOEXEC) != 0) fail("pipe");
  if (pipe2(out, O_CLOEXEC) != 0) fail("pipe");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  char* argv[] = {const_cast<char*>(binary.c_str()), const_cast<char*>("serve"), nullptr};
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in[0]);
  ::close(out[1]);
  to_ = in[1];
  from_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    close();
    errno = rc;
    fail("cannot start " + binary);
  }
  try {
    if (read_line() != "hpnsim-serve v1") throw std::runtime_error{"serve daemon: bad banner"};
  } catch (...) {
    close();
    throw;
  }
}

Daemon::~Daemon() { close(); }

double Daemon::close() noexcept {
  if (to_ >= 0) {
    ::close(to_);
    to_ = -1;
  }
  if (pid_ > 0) {
    int status = 0;
    rusage usage{};
    while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    pid_ = -1;
  }
  if (from_ >= 0) {
    ::close(from_);
    from_ = -1;
  }
  return peak_rss_mb_;
}

void Daemon::write_all(const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(to_, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("write");
    }
    done += static_cast<std::size_t>(n);
  }
}

std::string Daemon::read_line() {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      return line;
    }
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[1 << 16];
    const ssize_t n = ::read(from_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("read");
    if (n == 0) throw std::runtime_error{"serve daemon: closed its output mid-reply"};
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Daemon::query(const std::string& request) {
  write_all(request);
  std::string reply = read_line();
  reply += '\n';
  if (reply.rfind("reply ", 0) != 0) {
    throw std::runtime_error{"serve daemon: not a reply: " + reply};
  }
  if (reply.find(" error ") != std::string::npos) return reply;
  for (;;) {
    std::string line = read_line();
    reply += line;
    reply += '\n';
    if (line == "end") return reply;
  }
}

std::string Daemon::stats() {
  write_all("stats\n");
  return read_line();
}

}  // namespace perfbench
