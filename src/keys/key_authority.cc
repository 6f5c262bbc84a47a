#include "keys/key_authority.h"

#include <limits>
#include <utility>

#include "crypto/hmac.h"

namespace tcells::keys {

namespace {

constexpr uint32_t kLastEpoch = std::numeric_limits<uint32_t>::max();

}  // namespace

Result<std::unique_ptr<KeyAuthority>> KeyAuthority::Create(const Bytes& master,
                                                           size_t num_devices,
                                                           uint64_t seed) {
  if (master.size() != 16) {
    return Status::InvalidArgument("authority master must be 16 bytes");
  }
  TCELLS_ASSIGN_OR_RETURN(
      crypto::BroadcastChannel channel,
      crypto::BroadcastChannel::Create(
          crypto::DeriveKey(master, "bc-tree"), num_devices));
  std::unique_ptr<KeyAuthority> authority(new KeyAuthority(
      master, std::move(channel), num_devices, seed));
  std::lock_guard<std::mutex> lock(authority->mu_);
  TCELLS_RETURN_IF_ERROR(authority->ResealLocked(0));
  return authority;
}

KeyAuthority::KeyAuthority(Bytes master, crypto::BroadcastChannel channel,
                           size_t num_devices, uint64_t seed)
    : master_(std::move(master)),
      channel_(std::move(channel)),
      num_devices_(num_devices),
      rng_(seed ^ 0x6b657973ULL) {}

Result<crypto::BroadcastDeviceKeys> KeyAuthority::EnrollDevice(
    uint64_t tds_id) const {
  return channel_.DeviceKeys(static_cast<size_t>(tds_id));
}

uint32_t KeyAuthority::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

bool KeyAuthority::IsRevoked(uint64_t tds_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return revoked_.count(static_cast<size_t>(tds_id)) > 0;
}

Bytes KeyAuthority::CurrentBlock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_block_;
}

Status KeyAuthority::ResealLocked(uint32_t epoch) {
  // Seal the trailing window of epoch secrets (oldest first) so a TDS that
  // missed up to kEpochWindow-1 rollovers can still serve queries posted
  // under those epochs. 64-bit bounds: `epoch + 1` wraps at the last epoch.
  const uint64_t end = uint64_t{epoch} + 1;
  const uint64_t oldest = end >= kEpochWindow ? end - kEpochWindow : 0;
  EpochSecrets window;
  window.inner_epoch = epoch;
  window.secrets.reserve(end - oldest);
  for (uint64_t e = oldest; e < end; ++e) {
    window.secrets.push_back(
        DeriveEpochSecret(master_, static_cast<uint32_t>(e)));
  }
  Bytes payload = EncodeEpochSecrets(epoch, window.secrets);
  TCELLS_ASSIGN_OR_RETURN(crypto::BroadcastMessage message,
                          channel_.Encrypt(payload, revoked_, &rng_));
  EpochBlock block;
  block.epoch = epoch;
  block.message = std::move(message);
  current_block_ = block.Encode();
  epoch_ = epoch;
  window_ = std::move(window);
  secret_state_ = crypto::HmacState(window_.secrets.back());
  return Status::OK();
}

Status KeyAuthority::Revoke(const std::vector<uint64_t>& tds_ids) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t id : tds_ids) {
    if (id >= num_devices_) {
      return Status::InvalidArgument("revoked TDS id out of range");
    }
  }
  if (epoch_ == kLastEpoch) {
    return Status::OutOfRange("key epochs exhausted; cannot revoke");
  }
  for (uint64_t id : tds_ids) revoked_.insert(static_cast<size_t>(id));
  return ResealLocked(epoch_ + 1);
}

Status KeyAuthority::Rollover() {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch_ == kLastEpoch) {
    return Status::OutOfRange("key epochs exhausted; cannot roll over");
  }
  return ResealLocked(epoch_ + 1);
}

ssi::QueryKeyPosting KeyAuthority::NewPosting(uint64_t query_id,
                                              Rng* rng) const {
  ssi::QueryKeyPosting posting;
  posting.query_id = query_id;
  posting.nonce = rng->NextBytes(ssi::QueryKeyPosting::kNonceSize);
  std::lock_guard<std::mutex> lock(mu_);
  posting.epoch = epoch_;
  return posting;
}

Result<std::shared_ptr<const crypto::KeyStore>> KeyAuthority::QuerierKeysFor(
    const ssi::QueryKeyPosting& posting) const {
  Bytes secret;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (posting.epoch > epoch_) {
      return Status::NotFound("posting epoch is in the future");
    }
    const Bytes* in_window = window_.SecretFor(posting.epoch);
    if (in_window == nullptr) {
      return Status::NotFound("posting epoch fell out of the key window");
    }
    secret = *in_window;
  }
  return DeriveQueryKeys(secret, posting);
}

Status KeyAuthority::VerifyContribution(const ContributionTag& tag,
                                        uint64_t query_id,
                                        const Bytes& digest) const {
  crypto::HmacState secret;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tag.epoch != epoch_) {
      return Status::PermissionDenied("contribution tag epoch is stale");
    }
    if (revoked_.count(static_cast<size_t>(tag.tds_id)) > 0) {
      return Status::PermissionDenied("contributing TDS is revoked");
    }
    secret = secret_state_;
  }
  const auto expected =
      ContributionMac(ContributionKey(secret, tag.tds_id), query_id, digest);
  if (tag.mac.size() != expected.size() ||
      !crypto::ConstantTimeEqual(tag.mac.data(), expected.data(),
                                 expected.size())) {
    return Status::PermissionDenied("contribution tag failed to verify");
  }
  return Status::OK();
}

}  // namespace tcells::keys
