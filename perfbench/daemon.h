// A client of the `hpnsim_cli serve` line protocol over a pair of pipes:
// the benchmark talks to the daemon binary exactly as an operator's tool
// would, one query at a time (closed loop).
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
 public:
  /// Start `binary serve` and read its banner line.
  explicit Daemon(const std::string& binary);
  /// Closes the daemon's stdin (EOF ends the session) and waits for it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Write `request` (one or more protocol lines) and read back one reply:
  /// through its `end` line, or its single `reply <i> error ...` line.
  std::string query(const std::string& request);
  /// Send `stats` and return the counters line.
  std::string stats();
  /// End the session and wait for the process; returns its peak resident
  /// set in MB. Idempotent.
  double close() noexcept;

 private:
  void write_all(const std::string& bytes);
  std::string read_line();

  pid_t pid_ = -1;
  int to_ = -1;    ///< daemon stdin
  int from_ = -1;  ///< daemon stdout
  std::string buf_;
  std::size_t pos_ = 0;
  double peak_rss_mb_ = 0.0;
};

}  // namespace perfbench
