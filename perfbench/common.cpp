#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail_percentile(std::size_t n, double want) {
  if (n <= 20) return 50.0;
  const double most = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return std::max(50.0, std::min(want, std::floor(most)));
}

double Metrics::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

double Spans::seconds(const std::string& layer) const {
  const auto it = layers_.find(layer);
  return it == layers_.end() ? 0.0 : it->second;
}

double Spans::total_seconds() const {
  double sum = 0.0;
  for (const auto& [name, s] : layers_) sum += s;
  return sum;
}

void Outputs::exact(const std::string& key, std::int64_t value) {
  entries_[key] = Entry{true, value, 0.0};
}

void Outputs::approx(const std::string& key, double value) {
  entries_[key] = Entry{false, 0, value};
}

std::string Outputs::to_reference(std::string_view workload, std::uint64_t seed) const {
  std::ostringstream os;
  for (const auto& [key, e] : entries_) {
    os << workload << ' ' << seed << ' ' << key << ' ';
    if (e.is_exact) {
      os << "= " << e.exact << '\n';
    } else {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", e.approx);
      os << "~ " << buf << '\n';
    }
  }
  return os.str();
}

bool Outputs::compare(const std::string& reference_path, std::string_view workload,
                      std::uint64_t seed, std::vector<std::string>& errors) const {
  std::ifstream in{reference_path};
  if (!in) {
    errors.push_back("cannot read reference file " + reference_path);
    return true;
  }
  std::map<std::string, std::pair<char, std::string>> ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls{line};
    std::string w, key, op, value;
    std::uint64_t s = 0;
    if (!(ls >> w >> s >> key >> op >> value) || (op != "=" && op != "~")) {
      errors.push_back("malformed reference line: " + line);
      continue;
    }
    if (w == workload && s == seed) ref[key] = {op[0], value};
  }
  if (ref.empty()) return false;
  for (const auto& [key, e] : entries_) {
    const auto it = ref.find(key);
    if (it == ref.end()) {
      errors.push_back("output " + key + " has no reference value");
      continue;
    }
    const auto& [op, text] = it->second;
    if (e.is_exact != (op == '=')) {
      errors.push_back("output " + key + " changed kind (exact vs approximate)");
    } else if (e.is_exact) {
      if (std::to_string(e.exact) != text) {
        errors.push_back("output " + key + " = " + std::to_string(e.exact) +
                         ", reference " + text);
      }
    } else {
      const double want = std::stod(text);
      const double scale = std::max(std::fabs(want), 1e-9);
      if (!(std::fabs(e.approx - want) <= kRelTolerance * scale)) {
        char buf[160];
        std::snprintf(buf, sizeof buf, " = %.17g, reference %.17g (rel. tol %g)", e.approx,
                      want, kRelTolerance);
        errors.push_back("output " + key + buf);
      }
    }
  }
  for (const auto& [key, v] : ref) {
    if (entries_.count(key) == 0) errors.push_back("reference output " + key + " not produced");
  }
  return true;
}

void Ledger::fail(const std::string& message) {
  messages_.push_back(message);
  std::cerr << "perfbench: FAILED: " << message << "\n";
}

bool another_pass(Clock::time_point run_start, std::size_t passes, double last_pass_s,
                  double seconds, std::size_t min_passes) {
  return passes < min_passes || seconds_since(run_start) + last_pass_s <= seconds;
}

std::string join_seconds(const std::vector<double>& v) {
  std::string out;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : ", ", x);
    out += buf;
  }
  return out;
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
