// Tracer unit tests: ring-buffer semantics, filters, exporters.
#include "metrics/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.h"

namespace hpn::metrics {
namespace {

TimePoint at_us(std::int64_t us) { return TimePoint::origin() + Duration::micros(us); }

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(at_us(1), TraceEventKind::kFlowStart, 7);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 0u);  // nothing allocated until enable()
}

TEST(TracerTest, RecordsInOrderWhileEnabled) {
  Tracer t;
  t.enable(64);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1, kTraceNoId, 100.0);
  t.record(at_us(2), TraceEventKind::kFlowStart, 2, kTraceNoId, 200.0);
  t.record(at_us(3), TraceEventKind::kFlowFinish, 1, kTraceNoId, 0.5);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].a, 1u);
  EXPECT_EQ(evs[1].a, 2u);
  EXPECT_EQ(evs[2].kind, TraceEventKind::kFlowFinish);
  EXPECT_DOUBLE_EQ(evs[1].value, 200.0);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, DisableStopsRecordingButKeepsEvents) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kLinkDown, 3);
  t.disable();
  t.record(at_us(2), TraceEventKind::kLinkUp, 3);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events().front().kind, TraceEventKind::kLinkDown);
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops) {
  Tracer t;
  t.enable(4);
  for (std::uint32_t i = 0; i < 6; ++i) {
    t.record(at_us(i), TraceEventKind::kFlowStart, i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().a, 2u);  // events 0 and 1 were overwritten
  EXPECT_EQ(evs.back().a, 5u);
}

TEST(TracerTest, ReenableSameCapacityKeepsEvents) {
  Tracer t;
  t.enable(16);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1);
  t.enable(16);  // same capacity: no reallocation, no loss
  EXPECT_EQ(t.size(), 1u);
  t.enable(32);  // different capacity: clears
  EXPECT_TRUE(t.empty());
}

TEST(TracerTest, EventsOfFiltersByKindAndEntity) {
  Tracer t;
  t.enable(64);
  t.record(at_us(1), TraceEventKind::kQueueDepth, 10, kTraceNoId, 1.0);
  t.record(at_us(2), TraceEventKind::kQueueDepth, 11, kTraceNoId, 2.0);
  t.record(at_us(3), TraceEventKind::kQueueDepth, 10, kTraceNoId, 3.0);
  t.record(at_us(4), TraceEventKind::kLinkDown, 10);
  EXPECT_EQ(t.events_of(TraceEventKind::kQueueDepth).size(), 3u);
  const auto link10 = t.events_of(TraceEventKind::kQueueDepth, 10);
  ASSERT_EQ(link10.size(), 2u);
  EXPECT_DOUBLE_EQ(link10[1].value, 3.0);
  EXPECT_EQ(t.events_of(TraceEventKind::kLinkUp).size(), 0u);
}

TEST(TracerTest, SeriesExtractsTimeSeries) {
  Tracer t;
  t.enable(64);
  t.record(at_us(1), TraceEventKind::kQueueDepth, 5, kTraceNoId, 100.0);
  t.record(at_us(2), TraceEventKind::kQueueDepth, 6, kTraceNoId, 999.0);
  t.record(at_us(3), TraceEventKind::kQueueDepth, 5, kTraceNoId, 300.0);
  const TimeSeries s = t.series(TraceEventKind::kQueueDepth, 5);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.points()[0].value, 100.0);
  EXPECT_DOUBLE_EQ(s.points()[1].value, 300.0);
  EXPECT_EQ(s.points()[1].at, at_us(3));
}

TEST(TracerTest, WatchFiltersLinks) {
  Tracer t;
  const LinkId a{3}, b{9};
  EXPECT_FALSE(t.watching(a));  // disabled tracer watches nothing
  t.enable(8);
  EXPECT_FALSE(t.watching(a));
  t.watch_link(a);
  EXPECT_TRUE(t.watching(a));
  EXPECT_FALSE(t.watching(b));
  t.watch_all_links(true);
  EXPECT_TRUE(t.watching(b));
}

TEST(TracerTest, SpanIdsAreMonotonic) {
  Tracer t;
  const std::uint32_t s1 = t.begin_span();
  const std::uint32_t s2 = t.begin_span();
  EXPECT_LT(s1, s2);
}

TEST(TracerTest, ClearResets) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.enabled());  // clear does not disable
}

TEST(TracerTest, CsvHasHeaderAndOneLinePerEvent) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1, kTraceNoId, 4096.0);
  t.record(at_us(2), TraceEventKind::kCollectiveBegin, 1, 16, 1024.0, "all_reduce");
  std::ostringstream os;
  t.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_ns,kind,a,b,value,label"), std::string::npos);
  EXPECT_NE(csv.find("1000,flow_start,1,,4096,"), std::string::npos);
  EXPECT_NE(csv.find("2000,collective_begin,1,16,1024,all_reduce"), std::string::npos);
}

TEST(TracerTest, ChromeJsonPairsSpansAndEmitsCounters) {
  Tracer t;
  t.enable(16);
  const std::uint32_t span = t.begin_span();
  t.record(at_us(1), TraceEventKind::kCollectiveBegin, span, 8, 1e6, "all_reduce");
  t.record(at_us(5), TraceEventKind::kQueueDepth, 2, kTraceNoId, 4096.0);
  t.record(at_us(9), TraceEventKind::kCollectiveEnd, span, kTraceNoId, 0.0, "all_reduce");
  t.record(at_us(10), TraceEventKind::kLinkDown, 2);
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  // Async begin/end pair with matching ids.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // Counter for the queue sample, instant for the link event.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("queue_depth:link2"), std::string::npos);
  // Balanced delimiters (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TracerTest, SavePicksFormatBySuffix) {
  Tracer t;
  t.enable(8);
  t.record(at_us(1), TraceEventKind::kFlowStart, 1);

  const std::string csv_path = ::testing::TempDir() + "trace_test_out.csv";
  ASSERT_TRUE(t.save(csv_path));
  std::ifstream csv{csv_path};
  std::string first;
  std::getline(csv, first);
  EXPECT_EQ(first, "time_ns,kind,a,b,value,label");
  std::remove(csv_path.c_str());

  const std::string json_path = ::testing::TempDir() + "trace_test_out.json";
  ASSERT_TRUE(t.save(json_path));
  std::ifstream json{json_path};
  std::getline(json, first);
  EXPECT_EQ(first.rfind("{\"displayTimeUnit\"", 0), 0u);
  std::remove(json_path.c_str());

  EXPECT_FALSE(t.save("/nonexistent-dir/trace.json"));
}

// ---- Query differential -----------------------------------------------------
// series(kind, a) and events_of(kind, a) answer from a lazily built index;
// the oracle is a brute-force filter over events(), which in turn must be
// exactly the last capacity() events recorded.

bool same_event(const TraceEvent& x, const TraceEvent& y) {
  return x.at == y.at && x.kind == y.kind && x.a == y.a && x.b == y.b &&
         std::memcmp(&x.value, &y.value, sizeof x.value) == 0 && x.label == y.label;
}

constexpr TraceEventKind kQueryKinds[] = {TraceEventKind::kQueueDepth,
                                          TraceEventKind::kLinkUtilization,
                                          TraceEventKind::kFlowStart, TraceEventKind::kLinkDown};
/// Entities 0..5 are recorded; 6 and 99 never are; kTraceNoId sometimes is.
constexpr std::uint32_t kQueryEntities[] = {0, 1, 2, 3, 4, 5, 6, 99, kTraceNoId};

class TracerQueryTest : public ::testing::Test {
 protected:
  Tracer t;
  Rng rng{20241017};
  std::vector<TraceEvent> recorded;  ///< Everything since the last reset.
  std::int64_t now_us = 0;

  void record(int n) {
    static const char* const kLabels[] = {nullptr, "fluid", "all_reduce"};
    for (int i = 0; i < n; ++i) {
      now_us += rng.uniform_int(0, 3);  // repeated timestamps included
      const auto kind = kQueryKinds[rng.uniform_index(3)];  // never kLinkDown
      const std::uint32_t a = rng.uniform_int(0, 9) == 0
                                  ? kTraceNoId
                                  : static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
      const TraceEvent ev{at_us(now_us), kind, a, b, rng.uniform_real(0.0, 1e6),
                          kLabels[rng.uniform_index(3)]};
      t.record(ev.at, ev.kind, ev.a, ev.b, ev.value, ev.label);
      recorded.push_back(ev);
    }
  }

  void reset_shadow() {
    recorded.clear();
    now_us = 0;
  }

  void expect_queries_match() {
    const std::vector<TraceEvent> all = t.events();
    const std::size_t kept = std::min(recorded.size(), t.capacity());
    ASSERT_EQ(all.size(), kept);
    ASSERT_EQ(t.size(), kept);
    EXPECT_EQ(t.dropped(), recorded.size() - kept);
    for (std::size_t i = 0; i < kept; ++i) {
      ASSERT_TRUE(same_event(all[i], recorded[recorded.size() - kept + i])) << "event " << i;
    }
    for (const TraceEventKind kind : kQueryKinds) {
      std::vector<TraceEvent> of_kind;
      for (const TraceEvent& ev : all) {
        if (ev.kind == kind) of_kind.push_back(ev);
      }
      const std::vector<TraceEvent> got_kind = t.events_of(kind);
      ASSERT_EQ(got_kind.size(), of_kind.size()) << to_string(kind);
      for (std::size_t i = 0; i < of_kind.size(); ++i) {
        EXPECT_TRUE(same_event(got_kind[i], of_kind[i])) << to_string(kind) << " #" << i;
      }
      for (const std::uint32_t a : kQueryEntities) {
        std::vector<TraceEvent> want;
        for (const TraceEvent& ev : all) {
          if (ev.kind == kind && ev.a == a) want.push_back(ev);
        }
        const TimeSeries ts = t.series(kind, a);
        ASSERT_EQ(ts.size(), want.size()) << to_string(kind) << ":" << a;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(ts.points()[i].at, want[i].at);
          EXPECT_EQ(std::memcmp(&ts.points()[i].value, &want[i].value, sizeof(double)), 0);
        }
        if (a == kTraceNoId) continue;  // events_of treats kTraceNoId as "any"
        const std::vector<TraceEvent> got = t.events_of(kind, a);
        ASSERT_EQ(got.size(), want.size()) << to_string(kind) << ":" << a;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_TRUE(same_event(got[i], want[i])) << to_string(kind) << ":" << a << " #" << i;
        }
      }
    }
  }
};

TEST_F(TracerQueryTest, WrappedRingMatchesBruteForce) {
  t.enable(64);
  record(1000);
  ASSERT_GT(t.dropped(), 0u);
  expect_queries_match();
}

TEST_F(TracerQueryTest, QueriesInterleavedWithRecording) {
  t.enable(128);
  for (const int n : {0, 1, 50, 30, 47, 200, 1, 128, 3}) {
    record(n);
    expect_queries_match();
  }
  EXPECT_GT(t.dropped(), 0u);
}

// No query between the reset and the re-recording: the ring ends at the
// same event count the index was built at, so only the reset itself can
// mark the index stale.
TEST_F(TracerQueryTest, ClearThenRerecordToSameTotal) {
  t.enable(32);
  record(40);
  expect_queries_match();
  t.clear();
  reset_shadow();
  record(40);
  expect_queries_match();
  t.clear();
  reset_shadow();
  expect_queries_match();  // empty
}

TEST_F(TracerQueryTest, EnableWithNewCapacityInvalidates) {
  t.enable(32);
  record(40);
  expect_queries_match();
  t.enable(48);  // reallocates and clears
  reset_shadow();
  record(40);
  expect_queries_match();
  t.enable(48);  // same capacity: events (and index) stay
  expect_queries_match();
  record(100);
  expect_queries_match();
}

TEST_F(TracerQueryTest, EntityWithoutEventsIsEmpty) {
  t.enable(256);
  record(200);
  EXPECT_TRUE(t.series(TraceEventKind::kQueueDepth, 99).empty());
  EXPECT_TRUE(t.events_of(TraceEventKind::kQueueDepth, 6).empty());
  EXPECT_TRUE(t.events_of(TraceEventKind::kLinkDown, 1).empty());
  EXPECT_EQ(t.series(TraceEventKind::kLinkDown, 1).name(), "link_down:1");
  expect_queries_match();
}

TEST_F(TracerQueryTest, SeededStreamsMatchBruteForce) {
  for (const std::size_t cap : {1u, 2u, 7u, 64u, 1000u}) {
    t.enable(cap);
    t.clear();
    reset_shadow();
    for (int round = 0; round < 6; ++round) {
      record(static_cast<int>(rng.uniform_int(0, 300)));
      expect_queries_match();
    }
  }
}

}  // namespace
}  // namespace hpn::metrics
