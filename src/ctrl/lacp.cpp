#include "ctrl/lacp.h"

#include <cstdio>

namespace hpn::ctrl {

namespace {

/// Physical ports per chip — the bound that makes the offset scheme safe.
constexpr std::uint16_t kMaxPhysicalPorts = 256;

}  // namespace

MacAddress MacAddress::chassis(std::uint32_t serial) {
  // Locally-administered unicast OUI, serialized per switch.
  return MacAddress{{0x02, 0x1A, 0x2B, static_cast<std::uint8_t>(serial >> 16),
                     static_cast<std::uint8_t>(serial >> 8),
                     static_cast<std::uint8_t>(serial)}};
}

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02X:%02X:%02X:%02X:%02X:%02X", bytes[0], bytes[1],
                bytes[2], bytes[3], bytes[4], bytes[5]);
  return buf;
}

TorLacpAgent::TorLacpAgent(TorLacpConfig config) : config_{config} {
  HPN_CHECK_MSG(config_.port_id_offset >= kMaxPhysicalPorts,
                "portID offset must exceed the physical port count ("
                    << kMaxPhysicalPorts << ") to avoid collisions");
}

Lacpdu TorLacpAgent::respond(const Lacpdu& from_host, std::uint16_t physical_port) const {
  (void)from_host;  // stock LACP would negotiate over the stack link here
  HPN_CHECK_MSG(physical_port < kMaxPhysicalPorts,
                "physical port " << physical_port << " out of range");
  Lacpdu out;
  out.actor_system = config_.system_mac;
  out.actor_port = static_cast<std::uint16_t>(physical_port + config_.port_id_offset);
  out.actor_key = config_.aggregation_key;
  return out;
}

HostBond::Verdict HostBond::evaluate(const std::optional<Lacpdu>& from_tor0,
                                     const std::optional<Lacpdu>& from_tor1) {
  if (!from_tor0 && !from_tor1) return {State::kDown, "no LACP partner on either port"};
  if (!from_tor0 || !from_tor1) return {State::kDegraded, "one port has no LACP partner"};
  if (!(from_tor0->actor_system == from_tor1->actor_system)) {
    return {State::kDegraded, "sysID mismatch: " + from_tor0->actor_system.to_string() +
                                  " vs " + from_tor1->actor_system.to_string() +
                                  " — ports refuse to aggregate"};
  }
  if (from_tor0->actor_key != from_tor1->actor_key) {
    return {State::kDegraded, "aggregation key mismatch"};
  }
  if (from_tor0->actor_port == from_tor1->actor_port) {
    return {State::kDegraded, "duplicate portID " + std::to_string(from_tor0->actor_port) +
                                  " — partner looks like one port, not two"};
  }
  return {State::kAggregated, ""};
}

}  // namespace hpn::ctrl
