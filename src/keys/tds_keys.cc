#include "keys/tds_keys.h"

#include <utility>

namespace tcells::keys {

TdsKeyState::TdsKeyState(uint64_t tds_id,
                         crypto::BroadcastDeviceKeys device_keys,
                         EpochBlockSource* source)
    : tds_id_(tds_id), device_keys_(std::move(device_keys)), source_(source) {}

Status TdsKeyState::RefreshLocked() {
  TCELLS_ASSIGN_OR_RETURN(Bytes encoded, source_->FetchLatestBlock(tds_id_));
  TCELLS_ASSIGN_OR_RETURN(EpochBlock block, EpochBlock::Decode(encoded));
  if (has_window_ && block.epoch <= window_.inner_epoch) {
    // Same or older than what we hold: nothing to adopt. A replayed stale
    // block can never roll a TDS backwards.
    return Status::OK();
  }
  TCELLS_ASSIGN_OR_RETURN(
      Bytes payload, crypto::BroadcastChannel::Decrypt(block.message,
                                                       device_keys_));
  TCELLS_ASSIGN_OR_RETURN(EpochSecrets window, DecodeEpochSecrets(payload));
  if (window.inner_epoch != block.epoch) {
    // The authenticated body disagrees with the public epoch label: someone
    // re-stamped an old block. Ignore it.
    return Status::Corruption("epoch block inner/outer epoch mismatch");
  }
  window_ = std::move(window);
  has_window_ = true;
  return Status::OK();
}

Status TdsKeyState::Refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  return RefreshLocked();
}

Result<std::shared_ptr<const crypto::KeyStore>> TdsKeyState::KeysFor(
    const ssi::QueryKeyPosting& posting) {
  Bytes cache_key;
  posting.EncodeTo(&cache_key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = session_cache_.find(cache_key);
  if (it != session_cache_.end()) return it->second;
  const Bytes* secret =
      has_window_ ? window_.SecretFor(posting.epoch) : nullptr;
  if (secret == nullptr) {
    // Window miss: maybe the fleet rolled forward (or this TDS never
    // refreshed). One refresh attempt; a failure here (revoked, forged
    // block, transport loss) leaves the old window in place.
    (void)RefreshLocked();
    secret = has_window_ ? window_.SecretFor(posting.epoch) : nullptr;
  }
  if (secret == nullptr) {
    return Status::NotFound("posting epoch unreachable for this TDS");
  }
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const crypto::KeyStore> keys,
                          DeriveQueryKeys(*secret, posting));
  if (session_cache_.size() >= kSessionCacheCapacity) {
    session_cache_.erase(session_order_.front());
    session_order_.pop_front();
  }
  session_order_.push_back(cache_key);
  session_cache_.emplace(std::move(cache_key), keys);
  return keys;
}

Result<ContributionTag> TdsKeyState::Tag(uint64_t query_id,
                                         const Bytes& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  // Best-effort refresh: an honest TDS tags under the newest epoch it can
  // open; when the refresh fails (revoked / hostile block) the last good
  // window keeps the TDS serving and the authority decides admission.
  (void)RefreshLocked();
  if (!has_window_) {
    return Status::FailedPrecondition("TDS has no epoch window yet");
  }
  ContributionTag tag;
  tag.epoch = window_.inner_epoch;
  tag.tds_id = tds_id_;
  tag.mac = ContributionMac(
      DeriveContributionKey(window_.secrets.back(), tds_id_), query_id,
      digest);
  return tag;
}

Result<uint32_t> TdsKeyState::known_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_window_) return Status::NotFound("no epoch window adopted yet");
  return window_.inner_epoch;
}

size_t TdsKeyState::session_cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_cache_.size();
}

}  // namespace tcells::keys
