#include "protocol/factory.h"

#include "common/strings.h"

namespace tcells::protocol {

Result<std::unique_ptr<Protocol>> MakeProtocol(ProtocolKind kind,
                                               const ProtocolInputs& inputs) {
  switch (kind) {
    case ProtocolKind::kBasicSfw:
      return std::unique_ptr<Protocol>(new BasicSfwProtocol());
    case ProtocolKind::kSAgg:
      return std::unique_ptr<Protocol>(new SAggProtocol());
    case ProtocolKind::kRnfNoise:
    case ProtocolKind::kCNoise: {
      auto domain = inputs.group_domain;
      if (!domain && !inputs.distribution.empty()) {
        auto derived = std::make_shared<std::vector<storage::Tuple>>();
        derived->reserve(inputs.distribution.size());
        for (const auto& [key, count] : inputs.distribution) {
          derived->push_back(key);
        }
        domain = derived;
      }
      if (!domain || domain->empty()) {
        return Status::FailedPrecondition(
            "Noise protocols need the A_G domain (group_domain or "
            "distribution)");
      }
      return std::unique_ptr<Protocol>(
          new NoiseProtocol(kind == ProtocolKind::kCNoise, std::move(domain)));
    }
    case ProtocolKind::kEdHist: {
      if (inputs.distribution.empty()) {
        return Status::FailedPrecondition(
            "ED_Hist needs the A_G distribution");
      }
      size_t buckets = inputs.histogram_buckets;
      if (buckets == 0) {
        buckets = std::max<size_t>(1, inputs.distribution.size() / 5);
      }
      return std::unique_ptr<Protocol>(
          EdHistProtocol::FromDistribution(inputs.distribution, buckets)
              .release());
    }
  }
  return Status::InvalidArgument("unknown protocol kind");
}

Result<std::unique_ptr<Protocol>> MakeProtocol(ProtocolKind kind) {
  return MakeProtocol(kind, ProtocolInputs{});
}

Result<ProtocolKind> ProtocolKindFromName(const std::string& name) {
  struct NameMap {
    const char* name;
    ProtocolKind kind;
  };
  static constexpr NameMap kNames[] = {
      {"basic", ProtocolKind::kBasicSfw},
      {"basic_sfw", ProtocolKind::kBasicSfw},
      {"s_agg", ProtocolKind::kSAgg},
      {"r_noise", ProtocolKind::kRnfNoise},
      {"rnf_noise", ProtocolKind::kRnfNoise},
      {"c_noise", ProtocolKind::kCNoise},
      {"ed_hist", ProtocolKind::kEdHist},
  };
  for (const auto& entry : kNames) {
    if (EqualsIgnoreCase(name, entry.name)) return entry.kind;
  }
  return Status::InvalidArgument("unknown protocol name: " + name);
}

}  // namespace tcells::protocol
