// `hpnsim_cli serve` over real pipes, driven the way an interactive client
// drives it: wait for the banner before writing anything, send one query,
// read its reply through `end`, and only then send `quit`. Every line the
// client waits for must be flushed by the daemon itself — with stdin and
// stdout untied, a line left in the output buffer deadlocks the session.
// Each read gives up after 10 s, so a missing flush fails the test instead
// of hanging it.
//
// Usage: serve_pipe_test <path to hpnsim_cli>   (exit 0 = pass)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

extern char** environ;

namespace {

constexpr int kReadTimeoutMs = 10'000;

const char* const kQuery =
    "query run\n"
    "hpnsim-scenario v1\n"
    "seed 7\n"
    "topology tiny_clos\n"
    "size 2\n"
    "wiring 2\n"
    "flow 0 1 1048576 50\n"
    "flow 1 2 1048576 51\n"
    "fault link_fail 1000000 1 0\n"
    "end\n"
    "go\n";

class Client {
 public:
  explicit Client(const char* binary) {
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error{"pipe failed"};
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    char* argv[] = {const_cast<char*>(binary), const_cast<char*>("serve"), nullptr};
    const int rc = posix_spawn(&pid_, binary, &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    to_ = in[1];
    from_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error{std::string{"cannot start "} + binary};
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Kills a daemon that is still running (a failed test), then reaps it.
  ~Client() {
    if (to_ >= 0) ::close(to_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      wait_exit();
    }
    if (from_ >= 0) ::close(from_);
  }

  void write_all(const std::string& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(to_, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw std::runtime_error{"write to the daemon failed"};
      done += static_cast<std::size_t>(n);
    }
  }

  /// The next line, without its newline; throws after kReadTimeoutMs.
  std::string read_line() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds{kReadTimeoutMs};
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      pollfd pfd{from_, POLLIN, 0};
      const int ready = left > 0 ? ::poll(&pfd, 1, static_cast<int>(left)) : 0;
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {
        throw std::runtime_error{"no complete line within " +
                                 std::to_string(kReadTimeoutMs / 1000) +
                                 " s (unflushed output?); partial: '" + buf_ + "'"};
      }
      char chunk[4096];
      const ssize_t n = ::read(from_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error{"daemon closed its output"};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reaps the daemon; its exit status.
  int wait_exit() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  std::string buf_;
};

void expect(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error{what};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <path to hpnsim_cli>\n", argv[0]);
    return 2;
  }
  // A daemon that dies mid-session must fail a write, not kill the test.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    Client c{argv[1]};
    const std::string banner = c.read_line();
    expect(banner == "hpnsim-serve v1", "bad banner '" + banner + "'");
    c.write_all(kQuery);
    const std::string head = c.read_line();
    expect(head.rfind("reply 0 ok run cold base=", 0) == 0, "bad reply header '" + head + "'");
    int lines = 1;
    for (std::string line = head; line != "end"; ++lines) line = c.read_line();
    c.write_all("quit\n");
    const std::string bye = c.read_line();
    expect(bye == "bye", "expected 'bye', got '" + bye + "'");
    const int status = c.wait_exit();
    expect(status == 0, "daemon exited with status " + std::to_string(status));
    std::printf("ok: banner, a %d-line reply and bye over pipes\n", lines);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
}
