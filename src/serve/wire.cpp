#include "serve/wire.h"

#include <bit>
#include <cstring>

namespace hpn::serve {

namespace wire {

namespace {

template <typename T>
void put_le(std::string& out, T v) {
  static_assert(std::endian::native == std::endian::little ||
                std::endian::native == std::endian::big);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
      std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
    }
  }
  out.append(reinterpret_cast<const char*>(bytes), sizeof(T));
}

template <typename T>
bool get_le(std::string_view in, std::size_t& pos, T& v) {
  if (in.size() - pos < sizeof(T) || pos > in.size()) return false;
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, in.data() + pos, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < sizeof(T) / 2; ++i) {
      std::swap(bytes[i], bytes[sizeof(T) - 1 - i]);
    }
  }
  std::memcpy(&v, bytes, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
void put_i64(std::string& out, std::int64_t v) { put_le(out, v); }
void put_f64(std::string& out, double v) { put_le(out, std::bit_cast<std::uint64_t>(v)); }
void put_string(std::string& out, std::string_view v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  out.append(v.data(), v.size());
}

bool get_u8(std::string_view in, std::size_t& pos, std::uint8_t& v) {
  return get_le(in, pos, v);
}
bool get_u16(std::string_view in, std::size_t& pos, std::uint16_t& v) {
  return get_le(in, pos, v);
}
bool get_u32(std::string_view in, std::size_t& pos, std::uint32_t& v) {
  return get_le(in, pos, v);
}
bool get_u64(std::string_view in, std::size_t& pos, std::uint64_t& v) {
  return get_le(in, pos, v);
}
bool get_i64(std::string_view in, std::size_t& pos, std::int64_t& v) {
  return get_le(in, pos, v);
}
bool get_f64(std::string_view in, std::size_t& pos, double& v) {
  std::uint64_t bits = 0;
  if (!get_le(in, pos, bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}
bool get_string(std::string_view in, std::size_t& pos, std::string& v) {
  std::uint32_t len = 0;
  if (!get_u32(in, pos, len)) return false;
  if (in.size() - pos < len) return false;
  v.assign(in.data() + pos, len);
  pos += len;
  return true;
}

}  // namespace wire

namespace {

using namespace wire;

void set_err(std::string* error, std::string_view msg) {
  if (error != nullptr) *error = msg;
}

/// Shared envelope check: 4-byte magic + u16 version.
bool check_envelope(std::string_view bytes, std::size_t& pos, std::string_view magic,
                    std::string* error) {
  if (bytes.size() < magic.size() || bytes.substr(0, magic.size()) != magic) {
    set_err(error, "bad magic");
    return false;
  }
  pos = magic.size();
  std::uint16_t version = 0;
  if (!get_u16(bytes, pos, version)) {
    set_err(error, "truncated header");
    return false;
  }
  if (version != kVersion) {
    set_err(error, "unsupported version " + std::to_string(version));
    return false;
  }
  return true;
}

}  // namespace

std::string encode_scenario(const fuzz::Scenario& s) {
  std::string out;
  out.append(kScenarioMagic);
  put_u16(out, kVersion);
  put_u64(out, s.seed);
  put_u8(out, static_cast<std::uint8_t>(s.topology));
  put_u32(out, s.size_knob);
  put_u32(out, s.wiring);
  put_u32(out, static_cast<std::uint32_t>(s.flows.size()));
  for (const fuzz::ScenarioFlow& f : s.flows) {
    put_u32(out, f.src);
    put_u32(out, f.dst);
    put_i64(out, f.size_bytes);
    put_f64(out, f.cap_gbps);
  }
  put_u32(out, static_cast<std::uint32_t>(s.faults.size()));
  for (const fuzz::ScenarioFault& f : s.faults) {
    put_u8(out, static_cast<std::uint8_t>(f.kind));
    put_i64(out, f.at_ns);
    put_u32(out, f.target);
    put_i64(out, f.down_for_ns);
  }
  put_u32(out, static_cast<std::uint32_t>(s.jobs.size()));
  for (const fuzz::ScenarioJob& j : s.jobs) {
    put_i64(out, j.arrival_ns);
    put_u32(out, j.hosts);
    put_u32(out, j.iters);
  }
  return out;
}

std::optional<fuzz::Scenario> decode_scenario(std::string_view bytes,
                                              std::string* error) {
  std::size_t pos = 0;
  if (!check_envelope(bytes, pos, kScenarioMagic, error)) return std::nullopt;
  fuzz::Scenario s;
  std::uint8_t topology = 0;
  std::uint32_t flow_count = 0;
  if (!get_u64(bytes, pos, s.seed) || !get_u8(bytes, pos, topology) ||
      !get_u32(bytes, pos, s.size_knob) || !get_u32(bytes, pos, s.wiring) ||
      !get_u32(bytes, pos, flow_count)) {
    set_err(error, "truncated scenario");
    return std::nullopt;
  }
  if (topology > static_cast<std::uint8_t>(fuzz::TopologyKind::kHpnPod)) {
    set_err(error, "unknown topology id " + std::to_string(topology));
    return std::nullopt;
  }
  s.topology = static_cast<fuzz::TopologyKind>(topology);
  s.flows.reserve(std::min<std::uint32_t>(flow_count, 4096));
  for (std::uint32_t i = 0; i < flow_count; ++i) {
    fuzz::ScenarioFlow f;
    if (!get_u32(bytes, pos, f.src) || !get_u32(bytes, pos, f.dst) ||
        !get_i64(bytes, pos, f.size_bytes) || !get_f64(bytes, pos, f.cap_gbps)) {
      set_err(error, "truncated scenario");
      return std::nullopt;
    }
    s.flows.push_back(f);
  }
  std::uint32_t fault_count = 0;
  if (!get_u32(bytes, pos, fault_count)) {
    set_err(error, "truncated scenario");
    return std::nullopt;
  }
  s.faults.reserve(std::min<std::uint32_t>(fault_count, 4096));
  for (std::uint32_t i = 0; i < fault_count; ++i) {
    fuzz::ScenarioFault f;
    std::uint8_t kind = 0;
    if (!get_u8(bytes, pos, kind) || !get_i64(bytes, pos, f.at_ns) ||
        !get_u32(bytes, pos, f.target) || !get_i64(bytes, pos, f.down_for_ns)) {
      set_err(error, "truncated scenario");
      return std::nullopt;
    }
    if (kind > static_cast<std::uint8_t>(fuzz::ScenarioFault::Kind::kTorCrash)) {
      set_err(error, "unknown fault kind id " + std::to_string(kind));
      return std::nullopt;
    }
    f.kind = static_cast<fuzz::ScenarioFault::Kind>(kind);
    s.faults.push_back(f);
  }
  std::uint32_t job_count = 0;
  if (!get_u32(bytes, pos, job_count)) {
    set_err(error, "truncated scenario");
    return std::nullopt;
  }
  s.jobs.reserve(std::min<std::uint32_t>(job_count, 4096));
  for (std::uint32_t i = 0; i < job_count; ++i) {
    fuzz::ScenarioJob j;
    if (!get_i64(bytes, pos, j.arrival_ns) || !get_u32(bytes, pos, j.hosts) ||
        !get_u32(bytes, pos, j.iters)) {
      set_err(error, "truncated scenario");
      return std::nullopt;
    }
    s.jobs.push_back(j);
  }
  if (pos != bytes.size()) {
    set_err(error, "trailing bytes after scenario");
    return std::nullopt;
  }
  return s;
}

std::string encode_result(const QueryResult& r) {
  // Sized up front: a Pod result runs to ~150 KB, and growing by doubling
  // would copy it over a dozen times on every computed answer.
  constexpr std::size_t kRecord = 9;  // f64 + u8 per flow or FCT
  std::string out;
  out.reserve(kResultMagic.size() + 2 + 3 * 4 + 4 + 2 * 8 +
              kRecord * (r.base_flows.size() + r.job_flows.size() + r.fcts.size()));
  out.append(kResultMagic);
  put_u16(out, kVersion);
  const auto put_flows = [&out](const std::vector<QueryResult::Flow>& flows) {
    put_u32(out, static_cast<std::uint32_t>(flows.size()));
    for (const QueryResult::Flow& f : flows) {
      put_f64(out, f.gbps);
      put_u8(out, f.stalled ? 1 : 0);
    }
  };
  put_flows(r.base_flows);
  put_flows(r.job_flows);
  put_u32(out, static_cast<std::uint32_t>(r.fcts.size()));
  for (const QueryResult::Fct& f : r.fcts) {
    put_f64(out, f.seconds);
    put_u8(out, f.completed ? 1 : 0);
  }
  put_u32(out, r.stalled);
  put_f64(out, r.total_gbps);
  put_f64(out, r.min_gbps);
  return out;
}

std::optional<QueryResult> decode_result(std::string_view bytes, std::string* error) {
  std::size_t pos = 0;
  if (!check_envelope(bytes, pos, kResultMagic, error)) return std::nullopt;
  QueryResult r;
  const auto get_flows = [&](std::vector<QueryResult::Flow>& flows) -> bool {
    std::uint32_t count = 0;
    if (!get_u32(bytes, pos, count)) return false;
    flows.reserve(std::min<std::uint32_t>(count, 1u << 20));
    for (std::uint32_t i = 0; i < count; ++i) {
      QueryResult::Flow f;
      std::uint8_t stalled = 0;
      if (!get_f64(bytes, pos, f.gbps) || !get_u8(bytes, pos, stalled)) return false;
      f.stalled = stalled != 0;
      flows.push_back(f);
    }
    return true;
  };
  const auto fail = [&]() -> std::optional<QueryResult> {
    set_err(error, "truncated result");
    return std::nullopt;
  };
  if (!get_flows(r.base_flows) || !get_flows(r.job_flows)) return fail();
  std::uint32_t fct_count = 0;
  if (!get_u32(bytes, pos, fct_count)) return fail();
  r.fcts.reserve(std::min<std::uint32_t>(fct_count, 1u << 20));
  for (std::uint32_t i = 0; i < fct_count; ++i) {
    QueryResult::Fct f;
    std::uint8_t completed = 0;
    if (!get_f64(bytes, pos, f.seconds) || !get_u8(bytes, pos, completed)) {
      return fail();
    }
    f.completed = completed != 0;
    r.fcts.push_back(f);
  }
  if (!get_u32(bytes, pos, r.stalled) || !get_f64(bytes, pos, r.total_gbps) ||
      !get_f64(bytes, pos, r.min_gbps)) {
    return fail();
  }
  if (pos != bytes.size()) {
    set_err(error, "trailing bytes after result");
    return std::nullopt;
  }
  return r;
}

}  // namespace hpn::serve
