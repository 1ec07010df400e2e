// Non-stacked dual-ToR LACP (§4.2).
//
// Two *independent* ToRs must answer a host's LACPDUs as if they were one
// chassis. The paper's customized vendor module achieves this with:
//   (1) the same sysID on both ToRs, generated from a pre-configured
//       RFC-reserved virtual-router MAC (00:00:5E:00:01:01) instead of the
//       chassis MAC, and
//   (2) disjoint portIDs, by adding a per-ToR offset > 256 to the physical
//       port number (a ToR has < 256 ports, so shifted IDs cannot collide
//       with real ones).
// The host's bond (mode 4, dynamic link aggregation) accepts the bundle iff
// both responses carry one sysID and distinct portIDs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "common/check.h"

namespace hpn::ctrl {

struct MacAddress {
  std::array<std::uint8_t, 6> bytes{};

  /// The RFC 3768 VRRP virtual-router MAC the paper pre-configures.
  static constexpr MacAddress reserved_virtual_router() {
    return MacAddress{{0x00, 0x00, 0x5E, 0x00, 0x01, 0x01}};
  }
  /// A vendor chassis MAC (what stock LACP would use) — unique per switch.
  static MacAddress chassis(std::uint32_t serial);

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const MacAddress&, const MacAddress&) = default;
};

/// LACP Data Unit, reduced to the actor fields that decide aggregation.
struct Lacpdu {
  MacAddress actor_system;   ///< sysID source.
  std::uint16_t actor_port = 0;
  std::uint16_t actor_key = 0;
};

struct TorLacpConfig {
  /// Pre-configured MAC for sysID generation. Both ToRs of a set must agree.
  MacAddress system_mac = MacAddress::reserved_virtual_router();
  /// Added to the physical port number; must exceed the max port count (256)
  /// and differ between the two ToRs of a set.
  std::uint16_t port_id_offset = 300;
  std::uint16_t aggregation_key = 1;
};

/// The customized LACP module running on one ToR.
class TorLacpAgent {
 public:
  explicit TorLacpAgent(TorLacpConfig config);

  /// Respond to a host LACPDU received on `physical_port`.
  [[nodiscard]] Lacpdu respond(const Lacpdu& from_host, std::uint16_t physical_port) const;

  [[nodiscard]] const TorLacpConfig& config() const { return config_; }

 private:
  TorLacpConfig config_;
};

/// Host-side bond (mode 4). Feeds it the responses from both ToRs; it forms
/// a bundle only when the virtual-single-device illusion holds.
class HostBond {
 public:
  enum class State {
    kDown,        ///< No usable port.
    kDegraded,    ///< Exactly one port carrying traffic.
    kAggregated,  ///< Both ports in one LAG.
  };

  struct Verdict {
    State state = State::kDown;
    std::string reason;  ///< Human-readable when not aggregated.
  };

  /// Evaluate the two ToRs' LACPDU responses (nullopt = no response, e.g.
  /// link down).
  static Verdict evaluate(const std::optional<Lacpdu>& from_tor0,
                          const std::optional<Lacpdu>& from_tor1);
};

}  // namespace hpn::ctrl
