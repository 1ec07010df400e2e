#include "metrics/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace hpn::metrics {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kFlowStart: return "flow_start";
    case TraceEventKind::kFlowFinish: return "flow_finish";
    case TraceEventKind::kFlowAbort: return "flow_abort";
    case TraceEventKind::kFlowReroute: return "flow_reroute";
    case TraceEventKind::kFlowStall: return "flow_stall";
    case TraceEventKind::kFlowResume: return "flow_resume";
    case TraceEventKind::kLinkDown: return "link_down";
    case TraceEventKind::kLinkUp: return "link_up";
    case TraceEventKind::kLinkUtilization: return "link_util";
    case TraceEventKind::kQueueDepth: return "queue_depth";
    case TraceEventKind::kPfcPause: return "pfc_pause";
    case TraceEventKind::kPfcResume: return "pfc_resume";
    case TraceEventKind::kPacketDrop: return "packet_drop";
    case TraceEventKind::kBgpWithdraw: return "bgp_withdraw";
    case TraceEventKind::kBgpUpdate: return "bgp_update";
    case TraceEventKind::kFibUpdate: return "fib_update";
    case TraceEventKind::kCollectiveBegin: return "collective_begin";
    case TraceEventKind::kCollectiveEnd: return "collective_end";
    case TraceEventKind::kIterationBegin: return "iteration_begin";
    case TraceEventKind::kIterationEnd: return "iteration_end";
    case TraceEventKind::kJobBegin: return "job_begin";
    case TraceEventKind::kJobEnd: return "job_end";
  }
  return "unknown";
}

void Tracer::enable(std::size_t capacity) {
  HPN_CHECK_MSG(capacity > 0, "tracer needs a nonzero ring");
  if (ring_.size() != capacity) {
    ring_.assign(capacity, TraceEvent{});
    total_ = 0;
    invalidate_index();
  }
  enabled_ = true;
}

void Tracer::push(const TraceEvent& ev) {
  ring_[total_ % ring_.size()] = ev;
  ++total_;
}

void Tracer::watch_link(LinkId link) {
  HPN_CHECK(link.is_valid());
  if (watched_.size() <= link.index()) watched_.resize(link.index() + 1, 0);
  watched_[link.index()] = 1;
}

std::size_t Tracer::size() const {
  return static_cast<std::size_t>(std::min<std::uint64_t>(total_, ring_.size()));
}

std::uint64_t Tracer::dropped() const {
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

void Tracer::clear() {
  total_ = 0;
  next_span_ = 1;
  invalidate_index();
}

namespace {

std::uint64_t index_key(TraceEventKind kind, std::uint32_t a) {
  return std::uint64_t{static_cast<std::uint8_t>(kind)} << 32 | a;
}

}  // namespace

std::span<const Tracer::IndexEntry> Tracer::lookup(TraceEventKind kind,
                                                   std::uint32_t a) const {
  if (indexed_total_ != total_) {
    // Slots in chronological order; the stable sort keeps that order
    // within each key.
    index_.clear();
    index_.reserve(size());
    for_each([&](const TraceEvent& ev) {
      index_.push_back({index_key(ev.kind, ev.a),
                        static_cast<std::size_t>(&ev - ring_.data())});
    });
    std::stable_sort(index_.begin(), index_.end(),
                     [](const IndexEntry& x, const IndexEntry& y) { return x.key < y.key; });
    indexed_total_ = total_;
  }
  const std::uint64_t key = index_key(kind, a);
  const auto lo = std::partition_point(index_.begin(), index_.end(),
                                       [key](const IndexEntry& e) { return e.key < key; });
  const auto hi =
      std::partition_point(lo, index_.end(), [key](const IndexEntry& e) { return e.key == key; });
  return {lo, hi};
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  for_each([&](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

std::vector<TraceEvent> Tracer::events_of(TraceEventKind kind, std::uint32_t a) const {
  std::vector<TraceEvent> out;
  if (a != kTraceNoId) {
    const std::span<const IndexEntry> hits = lookup(kind, a);
    out.reserve(hits.size());
    for (const IndexEntry& e : hits) out.push_back(ring_[e.slot]);
    return out;
  }
  for_each([&](const TraceEvent& ev) {
    if (ev.kind == kind) out.push_back(ev);
  });
  return out;
}

TimeSeries Tracer::series(TraceEventKind kind, std::uint32_t a) const {
  TimeSeries ts{std::string{to_string(kind)} + ":" + std::to_string(a)};
  for (const IndexEntry& e : lookup(kind, a)) ts.record(ring_[e.slot].at, ring_[e.slot].value);
  return ts;
}

void Tracer::write_csv(std::ostream& os) const {
  os << "time_ns,kind,a,b,value,label\n";
  char num[32];
  for_each([&](const TraceEvent& ev) {
    os << ev.at.as_nanos() << ',' << to_string(ev.kind) << ',';
    if (ev.a != kTraceNoId) os << ev.a;
    os << ',';
    if (ev.b != kTraceNoId) os << ev.b;
    std::snprintf(num, sizeof num, "%.9g", ev.value);
    os << ',' << num << ',' << (ev.label != nullptr ? ev.label : "") << '\n';
  });
}

namespace {

/// Microsecond timestamp for the chrome `ts` field.
void put_ts(std::ostream& os, TimePoint at) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(at.as_nanos()) / 1e3);
  os << buf;
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  // One process; tracks (tid) separate the layers so the timeline groups
  // flows, links, control plane, collectives and iterations.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char num[32];
  for_each([&](const TraceEvent& ev) {
    if (!first) os << ",\n";
    first = false;
    const std::string_view kind = to_string(ev.kind);
    switch (ev.kind) {
      case TraceEventKind::kCollectiveBegin:
      case TraceEventKind::kCollectiveEnd:
      case TraceEventKind::kIterationBegin:
      case TraceEventKind::kIterationEnd:
      case TraceEventKind::kJobBegin:
      case TraceEventKind::kJobEnd: {
        const bool begin = ev.kind == TraceEventKind::kCollectiveBegin ||
                           ev.kind == TraceEventKind::kIterationBegin ||
                           ev.kind == TraceEventKind::kJobBegin;
        const bool iter = ev.kind == TraceEventKind::kIterationBegin ||
                          ev.kind == TraceEventKind::kIterationEnd;
        const bool job = ev.kind == TraceEventKind::kJobBegin ||
                         ev.kind == TraceEventKind::kJobEnd;
        os << "{\"name\":\"";
        if (ev.label != nullptr) {
          os << ev.label;
        } else {
          os << (job ? "job" : iter ? "iteration" : "collective");
        }
        if (iter || job) os << ' ' << ev.a;
        os << "\",\"cat\":\"" << (job ? "cluster" : iter ? "train" : "ccl")
           << "\",\"ph\":\"" << (begin ? 'b' : 'e') << "\",\"id\":" << ev.a
           << ",\"pid\":1,\"tid\":" << (job ? 4 : iter ? 1 : 2) << ",\"ts\":";
        put_ts(os, ev.at);
        os << "}";
        break;
      }
      case TraceEventKind::kLinkUtilization:
      case TraceEventKind::kQueueDepth: {
        std::snprintf(num, sizeof num, "%.6g", ev.value);
        os << "{\"name\":\"" << kind << ":link" << ev.a
           << "\",\"ph\":\"C\",\"pid\":1,\"ts\":";
        put_ts(os, ev.at);
        os << ",\"args\":{\"value\":" << num << "}}";
        break;
      }
      default: {
        std::snprintf(num, sizeof num, "%.6g", ev.value);
        os << "{\"name\":\"" << kind;
        if (ev.a != kTraceNoId) os << ' ' << ev.a;
        os << "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":3,\"ts\":";
        put_ts(os, ev.at);
        os << ",\"args\":{\"value\":" << num;
        if (ev.b != kTraceNoId) os << ",\"b\":" << ev.b;
        os << "}}";
        break;
      }
    }
  });
  os << "\n]}\n";
}

bool Tracer::save(const std::string& path) const {
  std::ofstream f{path};
  if (!f.good()) return false;
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    write_chrome_json(f);
  } else {
    write_csv(f);
  }
  return f.good();
}

}  // namespace hpn::metrics
