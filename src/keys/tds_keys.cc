#include "keys/tds_keys.h"

#include <utility>

namespace tcells::keys {

TdsKeyState::TdsKeyState(uint64_t tds_id,
                         crypto::BroadcastDeviceKeys device_keys,
                         EpochBlockSource* source,
                         const RefreshCounters* counters)
    : tds_id_(tds_id),
      device_keys_(std::move(device_keys)),
      source_(source),
      counters_(counters) {}

Status TdsKeyState::AdoptLocked(const Bytes& encoded) {
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
  contribution_key_ = DeriveContributionKey(window_.secrets.back(), tds_id_);
  if (counters_ != nullptr) counters_->adopted->Increment();
  return Status::OK();
}

Status TdsKeyState::Adopt(const Bytes& encoded) {
  if (counters_ != nullptr) counters_->fetched->Increment();
  Status adopted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    adopted = AdoptLocked(encoded);
    if (adopted.ok()) held_tag_ = ssi::EpochBlockTag(encoded);
  }
  if (!adopted.ok() && counters_ != nullptr) counters_->refused->Increment();
  return adopted;
}

uint64_t TdsKeyState::held_tag() const {
  std::lock_guard<std::mutex> lock(mu_);
  return held_tag_;
}

Status TdsKeyState::Refresh() { return RefreshAll({this}).front(); }

std::vector<Status> TdsKeyState::RefreshAll(
    const std::vector<TdsKeyState*>& states) {
  std::vector<Status> out(states.size());
  if (states.empty()) return out;
  EpochBlockSource* source = states.front()->source_;
  std::vector<size_t> batched;
  std::vector<uint64_t> ids;
  std::vector<uint64_t> held_tags;
  for (size_t i = 0; i < states.size(); ++i) {
    if (states[i]->source_ == source) {
      batched.push_back(i);
      ids.push_back(states[i]->tds_id_);
      held_tags.push_back(states[i]->held_tag());
    } else {
      out[i] = states[i]->Refresh();
    }
  }
  std::vector<Result<Bytes>> blocks = source->FetchLatestBlocks(ids, held_tags);
  for (size_t k = 0; k < batched.size(); ++k) {
    TdsKeyState* state = states[batched[k]];
    Status& status = out[batched[k]];
    if (k >= blocks.size()) {
      status = Status::Internal("block source returned too few replies");
    } else if (!blocks[k].ok()) {
      status = blocks[k].status();
    } else if (blocks[k]->empty() && held_tags[k] != 0) {
      // The block this state adopted is still the latest; adopting it again
      // would be an OK no-op.
      if (state->counters_ != nullptr) {
        state->counters_->fetched->Increment();
        state->counters_->current->Increment();
      }
    } else {
      status = state->Adopt(*blocks[k]);
    }
  }
  return out;
}

bool TdsKeyState::Reaches(uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  return has_window_ && window_.SecretFor(epoch) != nullptr;
}

Result<Bytes> TdsKeyState::SecretFor(uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Bytes* secret = has_window_ ? window_.SecretFor(epoch) : nullptr;
  if (secret == nullptr) {
    return Status::NotFound("posting epoch unreachable for this TDS");
  }
  return *secret;
}

Result<std::shared_ptr<const crypto::KeyStore>> TdsKeyState::KeysFor(
    const ssi::QueryKeyPosting& posting) {
  Result<Bytes> secret = SecretFor(posting.epoch);
  if (!secret.ok()) {
    // Window miss outside a batched refresh (e.g. a compute TDS that never
    // collected this query): one refresh attempt; a failure here (revoked,
    // forged block, transport loss) leaves the old window in place.
    (void)Refresh();
    secret = SecretFor(posting.epoch);
  }
  TCELLS_RETURN_IF_ERROR(secret.status());
  return DeriveQueryKeysShared(*secret, posting);
}

Result<ContributionTag> TdsKeyState::Tag(uint64_t query_id,
                                         const Bytes& digest) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_window_) {
    return Status::FailedPrecondition("TDS has no epoch window yet");
  }
  ContributionTag tag;
  tag.epoch = window_.inner_epoch;
  tag.tds_id = tds_id_;
  tag.mac = ContributionMac(contribution_key_, query_id, digest);
  return tag;
}

Result<uint32_t> TdsKeyState::known_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!has_window_) return Status::NotFound("no epoch window adopted yet");
  return window_.inner_epoch;
}

}  // namespace tcells::keys
