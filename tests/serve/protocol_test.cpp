// serve_loop protocol battery: framing, poisoned queries (bad verb, parse
// error, oversized, mid-stream disconnect), batching semantics, stats, and
// byte-stable transcripts at any --jobs — plus the golden transcript the
// smoke load-test pins (regenerate with HPN_UPDATE_GOLDEN=1).
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "scenario/scenario.h"
#include "serve/serve.h"

namespace hpn::serve {
namespace {

std::string tiny_scenario_text() {
  return
      "hpnsim-scenario v1\n"
      "seed 7\n"
      "topology tiny_clos\n"
      "size 2\n"
      "wiring 2\n"
      "flow 0 1 1048576 50\n"
      "flow 1 2 1048576 51\n"
      "fault link_fail 1000000 1 0\n"
      "end\n";
}

std::string run_serve(const std::string& script, ServeOptions options = {}) {
  std::istringstream in{script};
  std::ostringstream out;
  EXPECT_EQ(serve_loop(in, out, options), 0);
  return out.str();
}

/// First line of every transcript.
void expect_banner(const std::string& transcript) {
  EXPECT_EQ(transcript.substr(0, 16), "hpnsim-serve v1\n");
}

TEST(ServeProtocol, AnswersARunQuery) {
  const std::string transcript =
      run_serve("query run\n" + tiny_scenario_text() + "go\nquit\n");
  expect_banner(transcript);
  EXPECT_NE(transcript.find("reply 0 ok run cold base="), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("alloc 2\n"), std::string::npos);
  EXPECT_NE(transcript.find("fct 2\n"), std::string::npos);
  EXPECT_NE(transcript.find("summary flows=2"), std::string::npos);
  EXPECT_NE(transcript.find("bye\n"), std::string::npos);
}

TEST(ServeProtocol, SecondIdenticalQueryIsAHit) {
  const std::string script = "query kill-link 0\n" + tiny_scenario_text() + "go\n" +
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "go\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("reply 0 ok kill-link cold base="), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("reply 0 ok kill-link hit base="), std::string::npos)
      << transcript;
  // Hit and cold replies must carry byte-identical payload lines.
  std::istringstream is{transcript};
  std::string line;
  std::vector<std::string> bodies;
  std::string cur;
  bool in_reply = false;
  while (std::getline(is, line)) {
    if (line.rfind("reply 0 ok kill-link", 0) == 0) {
      in_reply = true;
      cur.clear();
      continue;  // the reply header differs (cold vs hit) by design
    }
    if (in_reply) {
      cur += line + "\n";
      if (line == "end") {
        bodies.push_back(cur);
        in_reply = false;
      }
    }
  }
  ASSERT_EQ(bodies.size(), 2u) << transcript;
  EXPECT_EQ(bodies[0], bodies[1]);
}

TEST(ServeProtocol, UnknownVerbIsAPerQueryError) {
  const std::string transcript =
      run_serve("query explode 3\n" + tiny_scenario_text() + "go\nquit\n");
  EXPECT_NE(transcript.find("reply 0 error unknown verb 'explode'"), std::string::npos)
      << transcript;
}

TEST(ServeProtocol, BadVerbDoesNotDesyncTheNextQuery) {
  // The scenario after a bad verb is still consumed, so query 1 parses.
  const std::string script = "query explode\n" + tiny_scenario_text() +
                             "query run\n" + tiny_scenario_text() + "go\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("reply 0 error unknown verb 'explode'"), std::string::npos);
  EXPECT_NE(transcript.find("reply 1 ok run cold"), std::string::npos) << transcript;
}

TEST(ServeProtocol, MalformedScenarioReportsThePinnedParserMessage) {
  const std::string script =
      "query run\nhpnsim-scenario v1\nseed 7\nseed 8\nend\ngo\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(
      transcript.find("reply 0 error scenario parse error: line 3: duplicate 'seed'"),
      std::string::npos)
      << transcript;
}

TEST(ServeProtocol, OversizedQueryIsRejected) {
  ServeOptions options;
  options.max_query_bytes = 64;
  const std::string transcript =
      run_serve("query run\n" + tiny_scenario_text() + "go\nquit\n", options);
  EXPECT_NE(transcript.find("reply 0 error oversized query (limit 64 bytes)"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, MidStreamDisconnectIsReportedNotHung) {
  // EOF inside the inline scenario: the partial query answers with a
  // disconnect error at the implicit flush instead of vanishing.
  const std::string transcript =
      run_serve("query run\nhpnsim-scenario v1\nseed 7\n");  // no 'end', then EOF
  EXPECT_NE(transcript.find("reply 0 error disconnected mid-scenario"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, EofIsAnImplicitGo) {
  const std::string transcript = run_serve("query run\n" + tiny_scenario_text());
  EXPECT_NE(transcript.find("reply 0 ok run cold"), std::string::npos) << transcript;
}

TEST(ServeProtocol, UnknownCommandIsAProtocolError) {
  const std::string transcript = run_serve("launch-missiles\nquit\n");
  EXPECT_NE(transcript.find("protocol-error unknown command 'launch-missiles'"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, StatsLineReportsCacheCounters) {
  const std::string script = "query kill-link 0\n" + tiny_scenario_text() + "go\n" +
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "stats\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("stats queries=2 hits=1 misses=1 computes=1 warm=0 "
                            "cold=1 evictions=0"),
            std::string::npos)
      << transcript;
}

TEST(ServeProtocol, TextualVariantsHitTheSameCacheEntry) {
  // Same scenario, different formatting: CRLF, comments, extra whitespace.
  const std::string variant =
      "# capacity probe\r\n"
      "hpnsim-scenario v1\r\n"
      "\r\n"
      "  seed 7\n"
      "topology tiny_clos   # dual ToR\n"
      "size 2\n"
      "wiring 2\n"
      "flow 0 1 1048576 50\n"
      "flow 1 2 1048576 51\n"
      "fault link_fail 1000000 1 0\n"
      "end\n";
  const std::string script = "query add-job 3 25\n" + tiny_scenario_text() + "go\n" +
                             "query add-job 3 25\n" + variant + "go\nquit\n";
  const std::string transcript = run_serve(script);
  EXPECT_NE(transcript.find("reply 0 ok add-job cold base="), std::string::npos)
      << transcript;
  EXPECT_NE(transcript.find("reply 0 ok add-job hit base="), std::string::npos)
      << "variant must hit the canonical entry\n"
      << transcript;
}

TEST(ServeProtocol, TranscriptIsByteStableAtAnyJobs) {
  // A batch with two distinct bases, a duplicate, an error, and a resize:
  // the full transcript must be byte-identical at any worker count.
  const std::string other =
      "hpnsim-scenario v1\n"
      "seed 11\n"
      "topology rail_only\n"
      "size 4\n"
      "wiring 0\n"
      "flow 0 2 524288 40\n"
      "flow 1 3 524288 41\n"
      "end\n";
  const std::string script = "query kill-link 1\n" + tiny_scenario_text() +
                             "query run\n" + other +
                             "query add-job 3 20\n" + tiny_scenario_text() +
                             "query kill-link 1\n" + tiny_scenario_text() +
                             "query explode\n" + other +
                             "query resize 3\n" + other + "go\nstats\nquit\n";
  std::vector<std::string> transcripts;
  for (const int jobs : {1, 2, 8}) {
    ServeOptions options;
    options.engine.jobs = jobs;
    transcripts.push_back(run_serve(script, options));
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_EQ(transcripts[0], transcripts[2]);
}

/// Each "reply ..." block of a transcript, through its `end` line (an
/// error reply is its one line).
std::vector<std::string> reply_blocks(const std::string& transcript) {
  std::vector<std::string> blocks;
  std::istringstream is{transcript};
  std::string line;
  bool open = false;
  while (std::getline(is, line)) {
    if (line.rfind("reply ", 0) == 0) {
      blocks.push_back(line + "\n");
      open = line.find(" error ") == std::string::npos;
    } else if (open) {
      blocks.back() += line + "\n";
      open = line != "end";
    }
  }
  return blocks;
}

std::string base_hash_of(const std::string& reply) {
  const std::size_t at = reply.find(" base=");
  return at == std::string::npos ? "" : reply.substr(at + 6, 16);
}

/// The rule the protocol framed scenarios with before it scanned lines in
/// place: strip one CR, then the first istringstream token is `end`.
bool token_rule_is_end(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::istringstream ts{line};
  std::string tok;
  ts >> tok;
  return tok == "end";
}

TEST(ServeProtocol, EndLinesFrameExactlyAsTheTokenRule) {
  const std::string body =
      "hpnsim-scenario v1\nseed 7\ntopology tiny_clos\nsize 2\nwiring 2\n"
      "flow 0 1 1048576 50\n";
  const std::vector<std::pair<std::string, bool>> cases = {
      {"end", true},       {"  end", true},      {"\tend", true},
      {"end\r", true},     {"end junk", true},   {"end\t", true},
      {" \v\fend \r", true}, {"endx", false},    {"xend", false},
      {"", false},         {"END", false},       {"en d", false},
  };
  for (const auto& [candidate, terminates] : cases) {
    ASSERT_EQ(token_rule_is_end(candidate), terminates) << "'" << candidate << "'";
    // A terminating candidate closes the scenario, so the plain `end` after
    // it reaches the command loop as an unknown command; otherwise the
    // candidate is scenario text and the plain `end` closes the scenario.
    const std::string transcript =
        run_serve("query run\n" + body + candidate + "\nend\ngo\nquit\n");
    EXPECT_EQ(transcript.find("protocol-error unknown command 'end'") != std::string::npos,
              terminates)
        << "'" << candidate << "'\n"
        << transcript;
  }
}

TEST(ServeProtocol, RepeatedParseErrorAnswersThePinnedErrorEveryTime) {
  // Parse errors are never memoized: the second copy re-parses and fails
  // with the same pinned message, and a valid query between them is
  // unaffected.
  const std::string bad = "hpnsim-scenario v1\nseed 7\nseed 8\nend\n";
  const std::string script = "query run\n" + bad + "go\nquery run\n" + tiny_scenario_text() +
                             "go\nquery run\n" + bad + "go\nquit\n";
  const std::vector<std::string> replies = reply_blocks(run_serve(script));
  ASSERT_EQ(replies.size(), 3u);
  const std::string pinned =
      "reply 0 error scenario parse error: line 3: duplicate 'seed'\n";
  EXPECT_EQ(replies[0], pinned);
  EXPECT_EQ(replies[1].rfind("reply 0 ok run cold base=", 0), 0u) << replies[1];
  EXPECT_EQ(replies[2], pinned);
}

TEST(ServeProtocol, ScenariosDifferingInOneByteGetDifferentBases) {
  std::string other = tiny_scenario_text();
  const std::size_t at = other.find("flow 1 2 1048576 51");
  ASSERT_NE(at, std::string::npos);
  other[at + 18] = '2';  // cap 51 -> 52
  const std::string script = "query kill-link 0\n" + tiny_scenario_text() + "go\n" +
                             "query kill-link 0\n" + other + "go\nquit\n";
  const std::vector<std::string> replies = reply_blocks(run_serve(script));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].rfind("reply 0 ok kill-link cold base=", 0), 0u) << replies[1];
  EXPECT_FALSE(base_hash_of(replies[0]).empty());
  EXPECT_NE(base_hash_of(replies[0]), base_hash_of(replies[1]));
}

TEST(ServeProtocol, ScenarioEvictedFromTheParseMemoAnswersIdentically) {
  // One warm base and no result cache: the third query's scenario was
  // evicted by the second's, so it is parsed and evaluated again from
  // scratch, and must reply exactly as the first did.
  ServeOptions options;
  options.engine.max_bases = 1;
  options.engine.cache_bytes = 0;
  const std::string other =
      "hpnsim-scenario v1\nseed 11\ntopology rail_only\nsize 4\nwiring 0\n"
      "flow 0 2 524288 40\nend\n";
  const std::string script = "query kill-link 1\n" + tiny_scenario_text() + "go\n" +
                             "query kill-link 1\n" + other + "go\n" +
                             "query kill-link 1\n" + tiny_scenario_text() + "go\nquit\n";
  const std::vector<std::string> replies = reply_blocks(run_serve(script, options));
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("reply 0 ok kill-link cold base=", 0), 0u) << replies[0];
  EXPECT_EQ(replies[2], replies[0]);
}

// ---------------------------------------------------------------------------
// Golden transcript: the smoke load-test's scripted query mix, pinned
// byte-for-byte. Regenerate with HPN_UPDATE_GOLDEN=1 after an intentional
// protocol change.

std::string golden_path() { return std::string{HPN_GOLDEN_DIR} + "/serve_session.txt"; }

TEST(ServeGolden, ScriptedSessionMatchesGoldenTranscript) {
  const std::string script = "query run\n" + tiny_scenario_text() +
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "query kill-link 1\n" + tiny_scenario_text() +
                             "query add-job 4 25\n" + tiny_scenario_text() +
                             "go\n"
                             "query kill-link 0\n" + tiny_scenario_text() +
                             "query resize 3\n" + tiny_scenario_text() +
                             "go\nstats\nquit\n";
  ServeOptions options;
  options.engine.jobs = 2;
  const std::string transcript = run_serve(script, options);
  if (std::getenv("HPN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(golden_path(), std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write " << golden_path();
    os << transcript;
    GTEST_SKIP() << "updated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path()
                         << " (run with HPN_UPDATE_GOLDEN=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  if (transcript != want.str()) {
    const std::string actual = golden_path() + ".actual";
    std::ofstream os(actual, std::ios::binary);
    os << transcript;
    FAIL() << "transcript diverged from golden; wrote " << actual;
  }
}

}  // namespace
}  // namespace hpn::serve
