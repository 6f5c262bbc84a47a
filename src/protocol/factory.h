// Protocol factory: builds any of the querying protocols from a uniform
// input bundle. Protocols that need prior knowledge (the A_G domain for the
// Noise protocols, the distribution/histogram for ED_Hist) get it from the
// bundle, which Engine::DiscoverInputs fills via the discovery protocol.
#ifndef TCELLS_PROTOCOL_FACTORY_H_
#define TCELLS_PROTOCOL_FACTORY_H_

#include <map>
#include <memory>
#include <string>

#include "protocol/protocols.h"

namespace tcells::protocol {

/// Prior knowledge some protocols require. Fill it by hand (when the domain
/// is public, e.g. district lists) or with Engine::DiscoverInputs.
struct ProtocolInputs {
  /// The A_G domain (Noise protocols; also derivable from `distribution`).
  std::shared_ptr<const std::vector<storage::Tuple>> group_domain;
  /// The A_G distribution (ED_Hist). Key -> occurrence count.
  std::map<storage::Tuple, uint64_t> distribution;
  /// ED_Hist bucket count; 0 = |distribution| / 5 (h = 5, §6.3).
  size_t histogram_buckets = 0;
};

/// Builds a protocol instance. FailedPrecondition when `kind` needs inputs
/// the bundle does not carry.
Result<std::unique_ptr<Protocol>> MakeProtocol(ProtocolKind kind,
                                               const ProtocolInputs& inputs);

/// Overload for input-free protocols (BasicSfw, SAgg).
Result<std::unique_ptr<Protocol>> MakeProtocol(ProtocolKind kind);

/// Parses a protocol name as used by the benches/CLI: "basic"/"Basic_SFW",
/// "s_agg"/"S_Agg", "r_noise"/"Rnf_Noise", "c_noise"/"C_Noise",
/// "ed_hist"/"ED_Hist" (case-insensitive).
Result<ProtocolKind> ProtocolKindFromName(const std::string& name);

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_FACTORY_H_
