#include "flowsim/shardnet.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <tuple>

#include "common/check.h"

namespace hpn::flowsim {

using metrics::TraceEventKind;

ShardedFlowNet::ShardedFlowNet(const topo::Topology& topology,
                               const topo::Partition& partition,
                               sim::ShardedSimulator& sharded, ShardNetConfig config)
    : topo_{&topology}, part_{&partition}, sim_{&sharded}, config_{config} {
  HPN_CHECK_MSG(partition.shards == sharded.shards(),
                "partition has " << partition.shards << " shards, simulator "
                                 << sharded.shards());
  HPN_CHECK(config_.chunk > DataSize::zero());
  links_.resize(topology.link_count());
  for (const topo::Link& l : topology.links()) links_[l.id.index()].up = l.up;
  scratch_.resize(static_cast<std::size_t>(sharded.shards()));
}

DataSize ShardedFlowNet::chunk_size(const Flow& f, std::uint32_t k) const {
  const std::int64_t cbits = config_.chunk.as_bits();
  const std::int64_t remaining = f.size.as_bits() - static_cast<std::int64_t>(k) * cbits;
  return DataSize::bits(std::min(cbits, remaining));
}

FlowId ShardedFlowNet::start_flow(std::vector<LinkId> path, DataSize size,
                                  TimePoint start, Bandwidth inject_rate) {
  HPN_CHECK_MSG(!path.empty(), "flow needs at least one hop");
  HPN_CHECK(size > DataSize::zero());
  HPN_CHECK(inject_rate.as_bits_per_sec() > 0.0);
  for (std::size_t i = 0; i < path.size(); ++i) {
    const topo::Link& l = topo_->link(path[i]);
    // latency > 0 is the engine's no-same-instant-forwarding invariant: a
    // pump may never create work at its own instant (see header).
    HPN_CHECK_MSG(l.latency > Duration::zero(),
                  "link " << l.id << " has zero latency");
    HPN_CHECK(l.capacity.as_bits_per_sec() > 0.0);
    if (i + 1 < path.size()) {
      HPN_CHECK_MSG(l.dst == topo_->link(path[i + 1]).src,
                    "path breaks between hop " << i << " and " << i + 1);
    }
  }
  const std::int64_t cbits = config_.chunk.as_bits();
  Flow f;
  f.id = FlowId{static_cast<FlowId::underlying>(flows_.size())};
  f.path = std::move(path);
  f.size = size;
  f.start = start;
  f.rate = inject_rate;
  f.chunks = static_cast<std::uint32_t>((size.as_bits() + cbits - 1) / cbits);
  const FlowId id = f.id;
  const int home = owner(f.path.front());
  flows_.push_back(std::move(f));
  sim_->post(home, home, start, key_of(id, 0), [this, id] { inject(id, 0); });
  return id;
}

void ShardedFlowNet::inject(FlowId flow, std::uint32_t k) {
  Flow& f = flows_[flow.index()];
  const int home = owner(f.path.front());
  if (k == 0) {
    core(home).trace(TraceEventKind::kFlowStart, flow.value(), metrics::kTraceNoId,
                     f.size.as_bytes());
  }
  stage(f.path.front(), Staged{flow, k, 0});
  if (k + 1 < f.chunks) {
    // Cumulative pacing formula — no per-step rounding drift, and identical
    // on every decomposition because the whole chain lives on the home shard.
    const DataSize sent = DataSize::bits(config_.chunk.as_bits() *
                                         static_cast<std::int64_t>(k + 1));
    core(home).schedule_at(f.start + sent / f.rate,
                           [this, flow, k] { inject(flow, k + 1); });
  }
}

void ShardedFlowNet::stage(LinkId link, Staged s) {
  LinkState& st = links_[link.index()];
  st.staged.push_back(s);
  if (!st.pump_armed) {
    st.pump_armed = true;
    // Armed *during* this instant's execution, so its sequence number is
    // larger than every event already queued for this instant — the pump
    // fires after all same-instant staging, on every decomposition.
    core(owner(link)).schedule_now([this, link] { pump(link); });
  }
}

void ShardedFlowNet::pump(LinkId link) {
  const int shard = owner(link);
  LinkState& st = links_[link.index()];
  st.pump_armed = false;
  if (!st.up) {
    st.parked.insert(st.parked.end(), st.staged.begin(), st.staged.end());
    st.staged.clear();
    return;
  }
  // Canonical transmit order: arrival order (which is decomposition-
  // dependent) never matters.
  std::sort(st.staged.begin(), st.staged.end(), [](const Staged& a, const Staged& b) {
    return std::tie(a.flow, a.chunk) < std::tie(b.flow, b.chunk);
  });
  const TimePoint now = core(shard).now();
  const topo::Link& l = topo_->link(link);
  for (const Staged& s : st.staged) {
    const Flow& f = flows_[s.flow.index()];
    const Duration tx = chunk_size(f, s.chunk) / l.capacity;  // rounds up, >= 1 ns
    const TimePoint depart = std::max(now, st.free) + tx;
    st.free = depart;
    const TimePoint arrive = depart + l.latency;
    ++scratch_[static_cast<std::size_t>(shard)].chunk_hops;
    if (s.hop + 1 == f.path.size()) {
      // Completion bookkeeping stays on the last link's owner — no cross
      // post for the final propagation.
      const FlowId fid = s.flow;
      core(shard).schedule_at(arrive, [this, fid] { deliver(fid); });
    } else {
      const LinkId next = f.path[s.hop + 1];
      const Staged ns{s.flow, s.chunk, s.hop + 1};
      sim_->post(shard, owner(next), arrive, key_of(s.flow, s.chunk),
                 [this, next, ns] { stage(next, ns); });
    }
  }
  st.staged.clear();
}

void ShardedFlowNet::deliver(FlowId flow) {
  Flow& f = flows_[flow.index()];
  if (++f.delivered < f.chunks) return;
  const int shard = owner(f.path.back());
  const TimePoint now = core(shard).now();
  scratch_[static_cast<std::size_t>(shard)].results.push_back(FlowResult{
      flow, now, f.size, static_cast<std::uint32_t>(f.path.size())});
  core(shard).trace(TraceEventKind::kFlowFinish, flow.value(), metrics::kTraceNoId,
                    (now - f.start).as_seconds());
}

void ShardedFlowNet::fail_link(LinkId link, TimePoint at) {
  const int shard = owner(link);
  sim_->post(shard, shard, at, 0, [this, link] {
    links_[link.index()].up = false;
    core(owner(link)).trace(TraceEventKind::kLinkDown, link.value());
  });
}

void ShardedFlowNet::repair_link(LinkId link, TimePoint at) {
  const int shard = owner(link);
  sim_->post(shard, shard, at, 0, [this, link] {
    LinkState& st = links_[link.index()];
    st.up = true;
    core(owner(link)).trace(TraceEventKind::kLinkUp, link.value());
    if (!st.parked.empty()) {
      st.staged.insert(st.staged.end(), st.parked.begin(), st.parked.end());
      st.parked.clear();
      if (!st.pump_armed) {
        st.pump_armed = true;
        core(owner(link)).schedule_now([this, link] { pump(link); });
      }
    }
  });
}

void ShardedFlowNet::enable_tracing(std::size_t capacity) {
  for (int s = 0; s < sim_->shards(); ++s) core(s).tracer().enable(capacity);
}

std::vector<ShardedFlowNet::FlowResult> ShardedFlowNet::results() const {
  std::vector<FlowResult> all;
  for (const ShardScratch& sc : scratch_) {
    all.insert(all.end(), sc.results.begin(), sc.results.end());
  }
  std::sort(all.begin(), all.end(),
            [](const FlowResult& a, const FlowResult& b) { return a.id < b.id; });
  return all;
}

std::size_t ShardedFlowNet::completed() const {
  std::size_t n = 0;
  for (const ShardScratch& sc : scratch_) n += sc.results.size();
  return n;
}

std::uint64_t ShardedFlowNet::chunk_hops() const {
  std::uint64_t n = 0;
  for (const ShardScratch& sc : scratch_) n += sc.chunk_hops;
  return n;
}

void ShardedFlowNet::write_csv(std::ostream& os) const {
  os << "flow,finish_ns,size_bits,hops\n";
  for (const FlowResult& r : results()) {
    os << r.id.value() << ',' << r.finish.as_nanos() << ',' << r.size.as_bits()
       << ',' << r.hops << '\n';
  }
}

void ShardedFlowNet::write_trace_csv(std::ostream& os) const {
  std::vector<metrics::TraceEvent> all;
  for (int s = 0; s < sim_->shards(); ++s) {
    const metrics::Tracer& tr = sim_->shard(s).tracer();
    // A wrapped ring retains a decomposition-dependent subset; fail loudly
    // rather than let the equivalence contract silently rot.
    HPN_CHECK_MSG(tr.dropped() == 0,
                  "shard " << s << " trace ring overflowed (" << tr.dropped()
                           << " dropped) — raise enable_tracing capacity");
    tr.for_each([&](const metrics::TraceEvent& ev) { all.push_back(ev); });
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const metrics::TraceEvent& x, const metrics::TraceEvent& y) {
                     return std::tie(x.at, x.kind, x.a, x.b, x.value) <
                            std::tie(y.at, y.kind, y.a, y.b, y.value);
                   });
  // Same line format as metrics::Tracer::write_csv, so shards=1 output is
  // directly diffable against a single Tracer dump.
  os << "time_ns,kind,a,b,value,label\n";
  char num[32];
  for (const metrics::TraceEvent& ev : all) {
    os << ev.at.as_nanos() << ',' << to_string(ev.kind) << ',';
    if (ev.a != metrics::kTraceNoId) os << ev.a;
    os << ',';
    if (ev.b != metrics::kTraceNoId) os << ev.b;
    std::snprintf(num, sizeof num, "%.9g", ev.value);
    os << ',' << num << ',' << (ev.label != nullptr ? ev.label : "") << '\n';
  }
}

}  // namespace hpn::flowsim
