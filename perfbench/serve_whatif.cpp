// serve_whatif: one operator client in a closed loop against the
// `hpnsim_cli serve` daemon — send a query, read its reply through `end`,
// send the next. Each base is Pod-scale (16 segments x 128 hosts, 16,384
// segment-local ring flows, one link flap), the shape bench_serve uses.
//
// The seeded stream mixes five kinds of query per base: the first query on
// a new base (cold), first-time kill-links on it (warm), add-job and run
// queries, and repeats of earlier queries (hit). Three bases stay within
// the daemon's warm-base LRU (8) and result cache (64 MB), so every
// query's expected answer source is known in advance and checked.
//
// The repo has no operator query log, so the mix is an assumption, sized
// from two things it does have. Computed kill-links and hits come 1:1, as
// in bench_serve (60 warm, 60 cached on one base): 10 distinct kill-links
// per base (the base's first query, cold, and 9 warm) and 10 repeats. Four
// passes of a 30 s run then give at least 100 warm and 100 hit samples, the
// fewest for a p90 with ten samples beyond it (three passes give a p87).
// add-job and run report only a p50; their 2 and 1 per base (24 and 12
// samples at four passes) are assumed, not derived. These counts set how
// wall_s weights a class.
#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "common.h"
#include "daemon.h"
#include "exec/runner_pool.h"
#include "scenario/scenario.h"
#include "serve/serve.h"
#include "serve/wire.h"

namespace perfbench {
namespace {

using namespace hpn;

constexpr std::uint32_t kHosts = 128;
constexpr std::uint32_t kSegments = 16;
constexpr std::uint32_t kFlows = 16384;
constexpr int kBases = 3;
constexpr int kWarmKillsPerBase = 9;
constexpr int kAddJobsPerBase = 2;
constexpr int kRunsPerBase = 1;
constexpr int kHitsPerBase = 10;
/// Daemon starts timed before each pass (the pass's own start is the last).
constexpr int kSetupsPerPass = 5;
/// Workers for the cold-reference check pass (each holds one Pod base).
constexpr int kCheckWorkers = 2;

enum class Kind : std::uint8_t { kCold, kWarm, kHit, kAddJob, kRun };
constexpr const char* kKindName[] = {"cold", "warm", "hit", "addjob", "run"};

struct Query {
  Kind kind = Kind::kCold;
  std::string verb;         ///< "kill-link 7", "add-job 12 40", "run"
  int base = 0;
  std::size_t first = 0;    ///< index of the query a hit repeats (else itself)
};

struct Stream {
  std::vector<fuzz::Scenario> bases;
  std::vector<std::string> base_text;  ///< canonical scenario text
  std::vector<Query> queries;

  [[nodiscard]] std::string request(std::size_t i) const {
    const Query& q = queries[i];
    return "query " + q.verb + "\n" + base_text[static_cast<std::size_t>(q.base)] + "go\n";
  }
};

/// Pod-scale base: one ring per segment, flow caps rotated by `cap_offset`
/// (distinct caps force multi-round water-filling), one link flap so `run`
/// has time-domain work.
fuzz::Scenario pod_scenario(std::uint64_t label, std::uint32_t cap_offset,
                            std::uint32_t flap_target) {
  fuzz::Scenario s;
  s.seed = label;
  s.topology = fuzz::TopologyKind::kHpnPod;
  s.size_knob = kHosts;
  s.wiring = kSegments;
  const std::uint32_t eps_per_seg = kHosts * 2;
  const std::uint32_t total_eps = eps_per_seg * kSegments;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    const std::uint32_t src = i % total_eps;
    const std::uint32_t seg = src / eps_per_seg;
    const std::uint32_t dst = seg * eps_per_seg + (src + 1) % eps_per_seg;
    s.flows.push_back({src, dst, std::int64_t{1} << 20, 40.0 + ((i + cap_offset) % 17)});
  }
  s.faults.push_back({fuzz::ScenarioFault::Kind::kLinkFlap, 500000, flap_target, 1000000});
  return s;
}

Stream make_stream(std::uint64_t seed) {
  // Raw mt19937_64 draws only: portable across standard libraries.
  std::mt19937_64 rng{seed * 0x9E3779B97F4A7C15ULL + 0x5E55E};
  const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
  Stream st;
  for (int b = 0; b < kBases; ++b) {
    st.bases.push_back(pod_scenario(seed * 16 + static_cast<std::uint64_t>(b),
                                    static_cast<std::uint32_t>(draw(17)),
                                    static_cast<std::uint32_t>(draw(64))));
    st.base_text.push_back(st.bases.back().to_text());

    std::set<std::string> used;
    const auto fresh = [&](auto make) {
      for (;;) {
        std::string verb = make();
        if (used.insert(verb).second) return verb;
      }
    };
    const auto kill = [&] { return "kill-link " + std::to_string(draw(4096)); };
    st.queries.push_back({Kind::kCold, fresh(kill), b, st.queries.size()});
    std::vector<Kind> block;
    block.insert(block.end(), kWarmKillsPerBase, Kind::kWarm);
    block.insert(block.end(), kAddJobsPerBase, Kind::kAddJob);
    block.insert(block.end(), kRunsPerBase, Kind::kRun);
    block.insert(block.end(), kHitsPerBase, Kind::kHit);
    for (std::size_t i = block.size() - 1; i > 0; --i) std::swap(block[i], block[draw(i + 1)]);
    for (const Kind k : block) {
      const std::size_t idx = st.queries.size();
      switch (k) {
        case Kind::kWarm: st.queries.push_back({k, fresh(kill), b, idx}); break;
        case Kind::kAddJob:
          st.queries.push_back({k, fresh([&] {
                                  return "add-job " + std::to_string(2 + draw(63)) + " " +
                                         std::to_string(10 + draw(90));
                                }),
                                b, idx});
          break;
        case Kind::kRun: st.queries.push_back({k, "run", b, idx}); break;
        case Kind::kHit: {
          Query q = st.queries[draw(idx)];
          q.kind = Kind::kHit;
          st.queries.push_back(q);  // keeps the repeated query's `first`
          break;
        }
        case Kind::kCold: break;
      }
    }
  }
  return st;
}

const char* expected_source(Kind k) {
  return k == Kind::kCold ? "cold" : k == Kind::kHit ? "hit" : "warm";
}

/// The reply's answer source ("cold", "warm", "hit"), or "" for an error.
std::string reply_source(const std::string& reply) {
  std::istringstream ls{reply.substr(0, reply.find('\n'))};
  std::string tag, index, status;
  ls >> tag >> index >> status;
  if (status != "ok") return "";
  std::string word;
  std::vector<std::string> rest;
  while (ls >> word) rest.push_back(word);
  // "<verb words...> <source> base=<hex>": the source precedes base=.
  return rest.size() >= 2 ? rest[rest.size() - 2] : "";
}

/// The reply with its answer source erased, so warm, hit and cold replies
/// to one query compare byte for byte.
std::string normalized(const std::string& reply) {
  const std::size_t eol = reply.find('\n');
  std::string head = reply.substr(0, eol);
  const std::string source = reply_source(reply);
  const std::size_t at = head.rfind(" " + source + " base=");
  if (!source.empty() && at != std::string::npos) head.replace(at + 1, source.size(), "*");
  return head + reply.substr(eol);
}

/// A cold reply for one request: a fresh daemon loop, in process.
std::string cold_reply(const std::string& request) {
  std::istringstream in{request};
  std::ostringstream out;
  serve::serve_loop(in, out);
  const std::string s = out.str();
  return s.substr(s.find('\n') + 1);  // drop the banner
}

void record_outputs(Outputs& o, std::size_t i, const std::string& reply) {
  const std::string p = "q" + std::to_string(i);
  const std::string source = reply_source(reply);
  o.exact(p + ".source", source == "cold" ? 0 : source == "warm" ? 1 : source == "hit" ? 2 : -1);
  std::istringstream is{reply};
  std::string line;
  std::int64_t fct_done = 0, fcts = 0;
  double fct_sum = 0.0;
  while (std::getline(is, line)) {
    if (line.rfind("t ", 0) == 0) {
      std::istringstream ls{line};
      std::string t, idx, secs, state;
      ls >> t >> idx >> secs >> state;
      ++fcts;
      if (state == "done") {
        ++fct_done;
        fct_sum += std::stod(secs);
      }
    } else if (line.rfind("summary ", 0) == 0) {
      std::istringstream ls{line.substr(8)};
      std::string kv;
      while (ls >> kv) {
        const std::size_t eq = kv.find('=');
        const std::string k = kv.substr(0, eq), v = kv.substr(eq + 1);
        if (k == "flows" || k == "stalled") {
          o.exact(p + "." + k, std::stoll(v));
        } else {
          o.approx(p + "." + k, std::stod(v));
        }
      }
    }
  }
  if (fcts > 0) {
    o.exact(p + ".fcts", fcts);
    o.exact(p + ".fcts_done", fct_done);
    o.approx(p + ".fct_sum_s", fct_sum);
  }
}

/// "stats queries=.. hits=.." -> {"queries": .., "hits": ..}
std::map<std::string, double> parse_stats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream ls{line};
  std::string kv;
  ls >> kv;  // "stats"
  while (ls >> kv) {
    const std::size_t eq = kv.find('=');
    if (eq != std::string::npos) out[kv.substr(0, eq)] = std::stod(kv.substr(eq + 1));
  }
  return out;
}

/// Per-layer times of one in-process replay of the stream.
struct Replay {
  std::vector<double> parse_ms, canon_ms, encode_ms, answer_ms;
  std::uint64_t bases_built = 0;
};

Replay replay_in_process(const Stream& st, Ledger& ledger) {
  Replay r;
  Spans spans{true};
  serve::QueryEngine engine;
  for (std::size_t i = 0; i < st.queries.size(); ++i) {
    const Query& q = st.queries[i];
    const std::string& text = st.base_text[static_cast<std::size_t>(q.base)];
    spans.clear();
    const auto parsed = spans.time("parse", [&] { return fuzz::Scenario::from_text(text); });
    if (!parsed) {
      ledger.fail("in-process replay could not parse the scenario of query " + std::to_string(i));
      return r;
    }
    const std::string canon = spans.time("canon", [&] { return parsed->to_text(); });
    serve::QueryRequest req;
    std::istringstream vs{q.verb};
    std::string verb;
    vs >> verb;
    if (verb == "kill-link") {
      req.verb = serve::QueryRequest::Verb::kKillLink;
      vs >> req.arg0;
    } else if (verb == "add-job") {
      req.verb = serve::QueryRequest::Verb::kAddJob;
      vs >> req.arg0 >> req.arg1;
    } else {
      req.verb = serve::QueryRequest::Verb::kRun;
    }
    req.scenario = *parsed;
    const auto answers = spans.time("answer", [&] { return engine.answer({req}); });
    const std::string bytes =
        spans.time("encode", [&] { return serve::encode_result(answers[0].result); });
    const serve::Answer::Source want = q.kind == Kind::kCold  ? serve::Answer::Source::kCold
                                       : q.kind == Kind::kHit ? serve::Answer::Source::kHit
                                                              : serve::Answer::Source::kWarm;
    if (!answers[0].ok || answers[0].source != want || canon != text || bytes.empty()) {
      ledger.fail("in-process replay of query " + std::to_string(i) + " (" + q.verb +
                  ") did not answer as the daemon did");
    }
    r.parse_ms.push_back(spans.seconds("parse") * 1e3);
    r.canon_ms.push_back(spans.seconds("canon") * 1e3);
    r.answer_ms.push_back(spans.seconds("answer") * 1e3);
    r.encode_ms.push_back(spans.seconds("encode") * 1e3);
  }
  r.bases_built = engine.stats().bases_built;
  return r;
}

}  // namespace

RunResult run_serve_whatif(const RunOptions& options) {
  RunResult res;
  const Stream st = make_stream(options.seed);

  // Measured phase: whole passes of the stream, each on a fresh daemon so
  // every pass sees the same cache states, until --seconds is used up.
  // Set-up is daemon start to banner, timed several times before each pass
  // so its samples spread over the run; setup_s is their median. The one
  // cold set-up from process start (stream generation included) to the
  // first banner is reported beside it as cold_setup_s.
  std::vector<double> setup_s, pass_s;
  double cold_setup_s = 0.0;
  std::vector<std::vector<double>> latency_ms(5);
  std::vector<double> first_latency_ms;
  std::vector<std::string> first_replies;
  std::string stats_line;
  double peak_rss = 0.0;
  const auto run_start = Clock::now();
  for (int pass = 0; another_pass(run_start, pass_s.size(), pass_s.empty() ? 0.0 : pass_s.back(),
                                  options.seconds);
       ++pass) {
    for (int i = 1; i < kSetupsPerPass; ++i) {
      const auto start = Clock::now();
      const Daemon spare{PERFBENCH_DAEMON};
      setup_s.push_back(seconds_since(start));
      if (setup_s.size() == 1) cold_setup_s = seconds_since(options.process_start);
    }
    const auto setup_start = Clock::now();
    Daemon d{PERFBENCH_DAEMON};
    setup_s.push_back(seconds_since(setup_start));
    const auto start = Clock::now();
    for (std::size_t i = 0; i < st.queries.size(); ++i) {
      const Query& q = st.queries[i];
      const std::string request = st.request(i);
      const auto t0 = Clock::now();
      std::string reply = d.query(request);
      const double ms = seconds_since(t0) * 1e3;
      latency_ms[static_cast<std::size_t>(q.kind)].push_back(ms);
      res.ledger.attempt();
      const std::string source = reply_source(reply);
      if (source != expected_source(q.kind)) {
        res.ledger.fail("query " + std::to_string(i) + " (" + q.verb + ", " +
                        kKindName[static_cast<int>(q.kind)] + "): answered '" +
                        (source.empty() ? reply.substr(0, reply.find('\n')) : source) + "'");
      }
      if (pass == 0) {
        first_latency_ms.push_back(ms);
        first_replies.push_back(std::move(reply));
      } else if (reply != first_replies[i]) {
        res.ledger.fail("query " + std::to_string(i) + ": pass " + std::to_string(pass) +
                        " reply differs from pass 0");
      }
    }
    pass_s.push_back(seconds_since(start));
    if (pass == 0) stats_line = d.stats();
    peak_rss = std::max(peak_rss, d.close());
  }

  // Check pass (untimed): every hit reply equals the reply it repeats, and
  // every computed warm reply equals a cold reply from a fresh daemon loop.
  std::vector<std::size_t> need_cold;
  for (std::size_t i = 0; i < st.queries.size(); ++i) {
    const Query& q = st.queries[i];
    if (q.kind == Kind::kHit) {
      res.ledger.attempt();
      if (normalized(first_replies[i]) != normalized(first_replies[q.first])) {
        res.ledger.fail("hit reply for query " + std::to_string(i) + " (" + q.verb +
                        ") differs from its first answer");
      }
    } else if (q.kind != Kind::kCold) {
      need_cold.push_back(i);
    }
  }
  exec::RunnerPool pool{kCheckWorkers};
  const std::vector<std::string> cold = pool.map(
      need_cold.size(), [&](std::size_t k) { return cold_reply(st.request(need_cold[k])); });
  for (std::size_t k = 0; k < need_cold.size(); ++k) {
    const std::size_t i = need_cold[k];
    res.ledger.attempt();
    if (reply_source(cold[k]) != "cold" || normalized(cold[k]) != normalized(first_replies[i])) {
      res.ledger.fail("warm reply for query " + std::to_string(i) + " (" + st.queries[i].verb +
                      ") differs from a cold reply");
    }
  }
  for (std::size_t i = 0; i < first_replies.size(); ++i) {
    record_outputs(res.outputs, i, first_replies[i]);
  }

  Metrics& m = res.metrics;
  const std::vector<double>& cold_ms = latency_ms[static_cast<int>(Kind::kCold)];
  const std::vector<double>& warm_ms = latency_ms[static_cast<int>(Kind::kWarm)];
  const std::vector<double>& hit_ms = latency_ms[static_cast<int>(Kind::kHit)];
  const double warm_pct = tail_percentile(warm_ms.size(), 90.0);
  const double hit_pct = tail_percentile(hit_ms.size(), 90.0);
  m.set("cold_p50_ms", median(cold_ms), "ms");
  m.set("warm_p50_ms", median(warm_ms), "ms");
  m.set("warm_p90_ms", quantile(warm_ms, warm_pct / 100.0), "ms");
  m.set("hit_p50_ms", median(hit_ms), "ms");
  m.set("hit_p90_ms", quantile(hit_ms, hit_pct / 100.0), "ms");
  m.set("addjob_p50_ms", median(latency_ms[static_cast<int>(Kind::kAddJob)]), "ms");
  m.set("run_p50_ms", median(latency_ms[static_cast<int>(Kind::kRun)]), "ms");
  std::ostringstream counts;
  counts << "serve_whatif: passes=" << pass_s.size() << " queries/pass=" << st.queries.size()
         << " samples:";
  for (int k = 0; k < 5; ++k) {
    counts << ' ' << kKindName[k] << '=' << latency_ms[static_cast<std::size_t>(k)].size();
    m.set(std::string{kKindName[k]} + "_samples",
          static_cast<double>(latency_ms[static_cast<std::size_t>(k)].size()), "count");
  }
  counts << " (warm tail = p" << warm_pct << ", hit tail = p" << hit_pct << ")";
  res.report.push_back(counts.str());
  res.report.push_back("pass wall_s: " + join_seconds(pass_s));
  res.report.push_back("daemon " + stats_line);
  res.report.push_back("cold set-up (process start to first daemon banner): " +
                       join_seconds({cold_setup_s}) + " s");
  m.set("cold_setup_s", cold_setup_s, "s");

  if (!options.trace) {
    m.set("setup_s", median(setup_s), "s");
    m.set("wall_s", median(pass_s), "s");
    m.set("peak_rss_mb", peak_rss, "MB");
    return res;
  }

  // Traced run: replay the stream in process after the measured passes,
  // timing each layer call the daemon makes for it.
  const Replay traced = replay_in_process(st, res.ledger);
  std::vector<double> materialize_ms;
  for (const fuzz::Scenario& base : st.bases) {
    const auto start = Clock::now();
    const fuzz::Materialized mat = fuzz::materialize(base);
    materialize_ms.push_back(seconds_since(start) * 1e3);
    if (mat.flows.size() != base.flows.size()) res.ledger.fail("materialize dropped flows");
  }
  std::vector<std::vector<double>> answer_ms(5);
  std::vector<double> protocol_ms;
  double layer_ms = 0.0, latency_total = 0.0, reply_bytes = 0.0, query_bytes = 0.0;
  for (std::size_t i = 0; i < st.queries.size(); ++i) {
    answer_ms[static_cast<std::size_t>(st.queries[i].kind)].push_back(traced.answer_ms[i]);
    protocol_ms.push_back(first_latency_ms[i] - traced.answer_ms[i]);
    // encode_result runs inside answer for every computed answer (to fill
    // the result cache), so encode_ms is not added again; the daemon's text
    // reply and the pipe transfer are timed by no layer call.
    layer_ms += traced.parse_ms[i] + traced.answer_ms[i];
    latency_total += first_latency_ms[i];
    reply_bytes += static_cast<double>(first_replies[i].size());
    query_bytes += static_cast<double>(st.request(i).size());
  }
  const double n = static_cast<double>(st.queries.size());
  m.set("scenario.parse_ms", median(traced.parse_ms), "ms");
  m.set("scenario.canon_ms", median(traced.canon_ms), "ms");
  m.set("scenario.materialize_ms", median(materialize_ms), "ms");
  m.set("serve.answer_cold_ms", median(answer_ms[0]), "ms");
  m.set("serve.answer_warm_ms", median(answer_ms[1]), "ms");
  m.set("serve.answer_hit_ms", median(answer_ms[2]), "ms");
  m.set("serve.answer_addjob_ms", median(answer_ms[3]), "ms");
  m.set("serve.answer_run_ms", median(answer_ms[4]), "ms");
  m.set("serve.encode_ms", median(traced.encode_ms), "ms");
  m.set("serve.reply_bytes", reply_bytes / n, "bytes");
  m.set("serve.query_bytes", query_bytes / n, "bytes");
  m.set("serve.protocol_ms", median(protocol_ms), "ms");
  const auto stats = parse_stats(stats_line);
  const double queries = stats.count("queries") ? stats.at("queries") : 0.0;
  m.set("serve.hit_ratio", queries > 0 ? stats.at("hits") / queries : 0.0, "ratio");
  m.set("serve.cold_evals", stats.count("cold") ? stats.at("cold") : 0.0, "count");
  m.set("serve.warm_evals", stats.count("warm") ? stats.at("warm") : 0.0, "count");
  m.set("serve.evictions", stats.count("evictions") ? stats.at("evictions") : 0.0, "count");
  m.set("serve.bases_built", static_cast<double>(traced.bases_built), "count");
  m.set("unattributed_frac", 1.0 - layer_ms / latency_total, "ratio");
  // The replay runs after the protocol passes, which carry no spans, so
  // tracing costs the measured passes nothing.
  m.set("trace_overhead_frac", 0.0, "ratio");
  return res;
}

}  // namespace perfbench
