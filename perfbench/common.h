// Shared plumbing of the hpn-sim benchmark driver: timing, order
// statistics, named metrics, per-layer spans, and the output check that
// compares a run's simulated outputs with recorded reference values.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `v` (mean of the two middle values for an even count).
double median(std::vector<double> v);

/// The q-th quantile (0..1) of `v`, linear interpolation between order
/// statistics. 0 for an empty input.
double quantile(std::vector<double> v, double q);

/// The highest percentile, capped at `want`, that leaves at least ten
/// samples above it among `n` samples; 50 is always allowed.
double tail_percentile(std::size_t n, double want);

/// Metrics of one run by name, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Wall time of the benchmark's own calls into each layer, summed by
/// layer name. Off (the untraced run), `time()` just calls through.
class Spans {
 public:
  explicit Spans(bool on) : on_{on} {}

  template <typename Fn>
  auto time(const std::string& layer, Fn&& fn) -> decltype(fn()) {
    Scope scope{*this, layer};
    return fn();
  }

  void set_on(bool on) { on_ = on; }
  /// Seconds accumulated under `layer`.
  [[nodiscard]] double seconds(const std::string& layer) const;
  /// Sum over every layer.
  [[nodiscard]] double total_seconds() const;
  void clear() { layers_.clear(); }

 private:
  struct Scope {
    Scope(Spans& spans, const std::string& layer)
        : spans_{spans}, layer_{layer}, start_{spans.on_ ? Clock::now() : Clock::time_point{}} {}
    ~Scope() {
      if (!spans_.on_) return;
      spans_.layers_[layer_] += seconds_since(start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Spans& spans_;
    const std::string& layer_;
    Clock::time_point start_;
  };

  bool on_;
  std::map<std::string, double> layers_;
};

/// Simulated outputs of a run, compared against the reference file.
/// Exact outputs (counts, answer sources) must match bit for bit;
/// approximate ones (rates, times) within kRelTolerance of the reference.
class Outputs {
 public:
  /// Relative tolerance for continuous outputs: loose enough for a
  /// floating-point reordering of the same model, tight enough that any
  /// change to what the model computes fails.
  static constexpr double kRelTolerance = 1e-6;

  void exact(const std::string& key, std::int64_t value);
  void approx(const std::string& key, double value);
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Reference lines "<workload> <seed> <key> <=|~> <value>" for this run.
  [[nodiscard]] std::string to_reference(std::string_view workload, std::uint64_t seed) const;

  /// Compare against the reference entries recorded for (workload, seed)
  /// in `reference_path`. Appends one message per mismatch to `errors`.
  /// Returns false when the file has no entry for this workload and seed
  /// (nothing to compare), true otherwise.
  bool compare(const std::string& reference_path, std::string_view workload,
               std::uint64_t seed, std::vector<std::string>& errors) const;

 private:
  struct Entry {
    bool is_exact = true;
    std::int64_t exact = 0;
    double approx = 0.0;
  };
  std::map<std::string, Entry> entries_;
};

/// Operation accounting: every operation is attempted once and fails if
/// it errored or its output check failed.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count one failure and keep its message (printed to stderr).
  void fail(const std::string& message);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return messages_.size(); }
  [[nodiscard]] const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::vector<std::string> messages_;
};

/// Whether a run that started at `run_start` should measure another pass:
/// yes until `min_passes` are done, then only while one more pass as long
/// as the last still ends within `seconds`.
bool another_pass(Clock::time_point run_start, std::size_t passes, double last_pass_s,
                  double seconds, std::size_t min_passes = 1);

/// "a, b, c" with millisecond precision, for report lines.
std::string join_seconds(const std::vector<double>& v);

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< reference outputs file
  std::string outputs_path;    ///< non-empty: write this run's outputs here
  Clock::time_point process_start = Clock::now();  ///< set first thing in main()
};

/// What a workload hands back to main(): its metrics (end-to-end or
/// per-layer, by mode), operation ledger, simulated outputs, and
/// free-form report lines for the human-readable log.
struct RunResult {
  Metrics metrics;
  Ledger ledger;
  Outputs outputs;
  std::vector<std::string> report;
};

RunResult run_train_pod(const RunOptions& options);
RunResult run_cluster_mix(const RunOptions& options);
RunResult run_serve_whatif(const RunOptions& options);

/// The benchmark's default seed: train_pod keeps the fleet's default hash
/// salt on it, and cluster_mix's fixed fleet is the trace it generates.
inline constexpr std::uint64_t kDefaultSeed = 2024;

}  // namespace perfbench
