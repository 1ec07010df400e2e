// hpn-sim benchmark driver: runs one workload, checks its outputs, and
// prints its metrics (end-to-end, or per-layer with --trace 1) as the last
// line of stdout. See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <train_pod|cluster_mix|serve_whatif> --seed <n>
//             --seconds <s> --trace <0|1> --reference <file>
//             [--record <path>] [--emit-outputs <path>] [--commit <id>]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in the order and with the units BENCHMARK.json lists.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Every per-layer metric is printed on every workload; a layer the
// workload never calls reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"fabric.build_s", "s"},
    {"workload.plan_s", "s"},
    {"train.first_iter_s", "s"},
    {"train.steady_iter_s", "s"},
    {"ccl.establish_s", "s"},
    {"routing.cached_dsts", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"flowsim.resolves", "count"},
    {"flowsim.flows_rerated", "count"},
    {"flowsim.rerated_per_resolve", "ratio"},
    {"flowsim.link_flips", "count"},
    {"flowsim.fluid_run_s", "s"},
    {"metrics.series_s", "s"},
    {"metrics.series_calls", "count"},
    {"metrics.trace_events", "count"},
    {"metrics.trace_dropped", "count"},
    {"cluster.trace_s", "s"},
    {"cluster.run_s.locality", "s"},
    {"cluster.run_s.random", "s"},
    {"cluster.run_s.frag-min", "s"},
    {"cluster.host_s_per_sim_s", "ratio"},
    {"cluster.iterations", "count"},
    {"cluster.crashes", "count"},
    {"cluster.restarts", "count"},
    {"cluster.aborted", "count"},
    {"cold_p50_ms", "ms"},
    {"warm_p50_ms", "ms"},
    {"warm_p90_ms", "ms"},
    {"hit_p50_ms", "ms"},
    {"hit_p90_ms", "ms"},
    {"addjob_p50_ms", "ms"},
    {"run_p50_ms", "ms"},
    {"scenario.parse_ms", "ms"},
    {"scenario.canon_ms", "ms"},
    {"scenario.materialize_ms", "ms"},
    {"serve.answer_cold_ms", "ms"},
    {"serve.answer_warm_ms", "ms"},
    {"serve.answer_hit_ms", "ms"},
    {"serve.answer_addjob_ms", "ms"},
    {"serve.answer_run_ms", "ms"},
    {"serve.encode_ms", "ms"},
    {"serve.reply_bytes", "bytes"},
    {"serve.query_bytes", "bytes"},
    {"serve.protocol_ms", "ms"},
    {"serve.hit_ratio", "ratio"},
    {"serve.cold_evals", "count"},
    {"serve.warm_evals", "count"},
    {"serve.bases_built", "count"},
    {"serve.evictions", "count"},
    {"unattributed_frac", "ratio"},
    {"trace_overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <train_pod|cluster_mix|serve_whatif> --seed <n>\n"
            << "                 --seconds <s> --trace <0|1> --reference <file>\n"
            << "                 [--record <path>] [--emit-outputs <path>] [--commit <id>]\n";
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const perfbench::Metrics& m, const std::vector<MetricSpec>& specs) {
  std::string out = "{";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i) out += ", ";
    out += json_string(specs[i].name) + ": {\"value\": " + json_number(m.get(specs[i].name)) +
           ", \"unit\": " + json_string(specs[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;  // stamps process_start
  std::string record_path;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--reference") {
        opt.reference_path = v;
      } else if (a == "--record") {
        record_path = v;
      } else if (a == "--emit-outputs") {
        opt.outputs_path = v;
      } else if (a == "--commit") {
        commit = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.reference_path.empty()) {
    usage("--seed, --seconds, --trace and --reference are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds must be in (0, 600]");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "perfbench: WARNING: build type is '" << build_type
              << "', not Release; timings are not comparable with Release runs\n";
  }

  RunResult result;
  try {
    if (opt.workload == "train_pod") {
      result = perfbench::run_train_pod(opt);
    } else if (opt.workload == "cluster_mix") {
      result = perfbench::run_cluster_mix(opt);
    } else if (opt.workload == "serve_whatif") {
      result = perfbench::run_serve_whatif(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  // Reference comparison: exact and toleranced outputs of this seed.
  std::vector<std::string> mismatches;
  const bool compared =
      result.outputs.compare(opt.reference_path, opt.workload, opt.seed, mismatches);
  result.ledger.attempt();  // the reference comparison is one checked operation
  if (!mismatches.empty()) {
    for (std::size_t i = 0; i < mismatches.size() && i < 20; ++i) {
      std::cerr << "perfbench: reference mismatch: " << mismatches[i] << "\n";
    }
    result.ledger.fail(std::to_string(mismatches.size()) + " output(s) differ from " +
                       opt.reference_path);
  }
  if (!opt.outputs_path.empty()) {
    std::ofstream out{opt.outputs_path, std::ios::app};
    out << result.outputs.to_reference(opt.workload, opt.seed);
    if (!out) {
      std::cerr << "perfbench: cannot write " << opt.outputs_path << "\n";
      return 1;
    }
  }

  const std::vector<MetricSpec>& specs = opt.trace ? kPerLayer : kEndToEnd;
  if (!opt.trace) {
    for (const MetricSpec& s : specs) {
      if (!result.metrics.has(s.name)) {
        std::cerr << "perfbench: workload did not measure " << s.name << "\n";
        return 1;
      }
    }
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  for (const std::string& line : result.report) std::cout << line << "\n";
  std::cout << "reference check: "
            << (compared ? "compared " + std::to_string(result.outputs.size()) + " outputs"
                         : std::string{"no reference recorded for this seed"})
            << "\n";

  std::ostringstream record;
  record << "{\"workload\": " << json_string(opt.workload) << ", \"seed\": " << opt.seed
         << ", \"seconds\": " << json_number(opt.seconds)
         << ", \"trace\": " << (opt.trace ? 1 : 0)
         << ", \"build_type\": " << json_string(build_type)
         << ", \"compiler\": " << json_string(PERFBENCH_COMPILER) << ", \"nproc\": " << nproc
         << ", \"commit\": " << json_string(commit)
         << ", \"reference_compared\": " << (compared ? "true" : "false")
         << ", \"attempted\": " << result.ledger.attempted()
         << ", \"failed\": " << result.ledger.failed() << ", \"report\": [";
  for (std::size_t i = 0; i < result.report.size(); ++i) {
    record << (i ? ", " : "") << json_string(result.report[i]);
  }
  record << "], \"failures\": [";
  for (std::size_t i = 0; i < result.ledger.messages().size(); ++i) {
    record << (i ? ", " : "") << json_string(result.ledger.messages()[i]);
  }
  record << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : result.metrics.all()) {
    record << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
           << json_number(vu.first) << ", \"unit\": " << json_string(vu.second) << "}";
    first = false;
  }
  record << "}}";
  if (!record_path.empty()) {
    std::ofstream out{record_path};
    out << record.str() << "\n";
  }

  std::cout << "{\"correct\": " << (result.ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << result.ledger.attempted()
            << ", \"failed\": " << result.ledger.failed()
            << ", \"metrics\": " << metrics_json(result.metrics, specs) << "}" << std::endl;
  return 0;
}
