// Shared scaffolding for the per-figure/table harness binaries.
#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/runner_pool.h"
#include "metrics/table.h"
#include "metrics/trace.h"

namespace hpn::bench {

inline constexpr const char* kResultsDir = "results";

/// Which optional harness flags a bench honours. A bench opts in only to
/// the flags it acts on; any other is a usage error (exit 2), never silently
/// ignored.
struct Accepts {
  bool csv = true;     ///< --csv: off for benches that write several tables.
  bool jobs = false;   ///< --jobs: the bench runs its cases through sweep().
  bool trace = false;  ///< --trace: the bench calls export_trace().
  /// Bench-specific value flags (e.g. microperf_solver's `--flows`); their
  /// values come back via Args::extra_value().
  std::initializer_list<const char*> value_flags = {};
};

/// Harness flags, parsed from main()'s argv:
///   --smoke          tiny-scale run for the ctest smoke suite (CI bit-rot
///                    detection, not paper numbers)
///   --csv <path>     write the result CSV to an explicit file instead of
///                    the default results/<bench-name>.csv
///   --jobs N         run independent sweep cases on N workers (default 1;
///                    table rows and CSVs are identical at any job count)
///   --trace <path>   export the simulation trace (.json => Chrome format)
///
/// Parsing is strict: an unknown flag, a flag the bench does not accept, a
/// positional argument, a missing value, or a non-numeric count prints a
/// usage line to stderr and exits 2 instead of being silently ignored (a
/// typo'd `--smok` used to run the full-scale bench in CI).
struct Args {
  bool smoke = false;
  std::string trace_path;
  std::string csv_path;
  int jobs = 1;
  std::vector<std::pair<std::string, std::string>> extra;  ///< Accepts::value_flags

  [[nodiscard]] const std::string* extra_value(std::string_view flag) const {
    for (const auto& [f, v] : extra) {
      if (f == flag) return &v;
    }
    return nullptr;
  }

  static Args parse(int argc, char** argv, const Accepts& accepts = {}) {
    const auto fail = [&](const std::string& why) { usage_error(argc, argv, accepts, why); };
    const auto need_value = [&](int& i, const char* flag) -> const char* {
      if (i + 1 >= argc) fail(std::string{"missing value for "} + flag);
      return argv[++i];
    };
    const auto parse_int = [&](const char* flag, const char* text) {
      char* end = nullptr;
      const long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0') {
        fail(std::string{flag} + " wants an integer, got '" + text + "'");
      }
      return static_cast<int>(v);
    };
    const auto refuse = [&](const char* flag, const char* why) {
      fail(std::string{flag} + " is not accepted: " + why);
    };
    Args a;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        a.smoke = true;
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        if (!accepts.csv) refuse("--csv", "this bench writes several tables, not one file");
        a.csv_path = need_value(i, "--csv");
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        if (!accepts.jobs) refuse("--jobs", "this bench has no independent cases to spread");
        a.jobs = parse_int("--jobs", need_value(i, "--jobs"));
        if (a.jobs < 1) fail("--jobs must be >= 1");
      } else if (std::strcmp(argv[i], "--trace") == 0) {
        if (!accepts.trace) refuse("--trace", "this bench exports no trace");
        a.trace_path = need_value(i, "--trace");
      } else {
        bool matched = false;
        for (const char* f : accepts.value_flags) {
          if (std::strcmp(argv[i], f) == 0) {
            a.extra.emplace_back(f, need_value(i, f));
            matched = true;
            break;
          }
        }
        if (!matched) {
          fail(argv[i][0] == '-'
                   ? std::string{"unknown flag '"} + argv[i] + "'"
                   : std::string{"unexpected argument '"} + argv[i] + "'");
        }
      }
    }
    return a;
  }

 private:
  [[noreturn]] static void usage_error(int argc, char** argv, const Accepts& accepts,
                                       const std::string& why) {
    std::cerr << "error: " << why << "\n"
              << "usage: " << (argc > 0 ? argv[0] : "bench") << " [--smoke]";
    if (accepts.csv) std::cerr << " [--csv <path>]";
    if (accepts.jobs) std::cerr << " [--jobs N]";
    if (accepts.trace) std::cerr << " [--trace <path>]";
    for (const char* f : accepts.value_flags) std::cerr << " [" << f << " <value>]";
    std::cerr << "\n";
    std::exit(2);
  }
};

/// Parameter-sweep helper: run `fn(case)` for every case on `jobs` workers
/// and return the results *in case order*, so tables and CSVs assembled
/// from them are byte-identical regardless of --jobs. Each case must be an
/// independent simulation — build its own topology/Simulator inside `fn`,
/// share nothing mutable across cases.
template <typename Case, typename Fn>
auto sweep(const std::vector<Case>& cases, int jobs, Fn&& fn) {
  exec::RunnerPool pool{jobs};
  return pool.map(cases.size(), [&](std::size_t i) { return fn(cases[i]); });
}

inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n"
            << "paper: " << claim << "\n\n";
}

inline void emit(const metrics::Table& table, const std::string& csv_name) {
  table.print(std::cout);
  const std::string path = table.save_csv(kResultsDir, csv_name);
  std::cout << "[csv] " << path << "\n";
}

/// emit() honouring --csv: an explicit path overrides results/<name>.csv.
inline void emit(const metrics::Table& table, const std::string& csv_name,
                 const Args& args) {
  if (args.csv_path.empty()) {
    emit(table, csv_name);
    return;
  }
  table.print(std::cout);
  std::ofstream os(args.csv_path);
  if (os.good()) {
    table.write_csv(os);
    std::cout << "[csv] " << args.csv_path << "\n";
  } else {
    std::cout << "[csv] failed to write " << args.csv_path << "\n";
  }
}

/// Export the tracer to `path` (--trace) if set, after the run finished.
inline void export_trace(const metrics::Tracer& tracer, const std::string& path) {
  if (path.empty()) return;
  if (tracer.save(path)) {
    std::cout << "[trace] " << path << " (" << tracer.size() << " events, "
              << tracer.dropped() << " dropped)\n";
  } else {
    std::cout << "[trace] failed to write " << path << "\n";
  }
}

}  // namespace hpn::bench
