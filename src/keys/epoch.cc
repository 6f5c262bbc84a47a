#include "keys/epoch.h"

#include <map>
#include <mutex>
#include <string>

#include "common/hex.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace tcells::keys {

Bytes EpochBlock::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.PutU32(epoch);
  w.PutU32(static_cast<uint32_t>(message.header.size()));
  for (const auto& [node, wrap] : message.header) {
    w.PutU32(node);
    w.PutBytes(wrap);
  }
  w.PutBytes(message.body);
  return out;
}

Result<EpochBlock> EpochBlock::Decode(const Bytes& data) {
  ByteReader reader(data);
  EpochBlock block;
  TCELLS_ASSIGN_OR_RETURN(block.epoch, reader.GetU32());
  // Smallest header entry is node id (4) + empty wrap length (4).
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader.GetCountU32(8));
  if (n == 0) return Status::Corruption("epoch block covers no subtree");
  block.message.header.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t node;
    TCELLS_ASSIGN_OR_RETURN(node, reader.GetU32());
    if (node == 0) return Status::Corruption("epoch block has node id 0");
    TCELLS_ASSIGN_OR_RETURN(Bytes wrap, reader.GetBytes());
    block.message.header.emplace_back(node, std::move(wrap));
  }
  TCELLS_ASSIGN_OR_RETURN(block.message.body, reader.GetBytes());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after epoch block");
  }
  return block;
}

Bytes EncodeEpochSecrets(uint32_t inner_epoch,
                         const std::vector<Bytes>& secrets) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU32(inner_epoch);
  w.PutU8(static_cast<uint8_t>(secrets.size()));
  for (const Bytes& secret : secrets) w.PutRaw(secret.data(), secret.size());
  return out;
}

const Bytes* EpochSecrets::SecretFor(uint32_t epoch) const {
  if (epoch > inner_epoch) return nullptr;
  uint32_t age = inner_epoch - epoch;
  if (age >= secrets.size()) return nullptr;
  return &secrets[secrets.size() - 1 - age];
}

Result<EpochSecrets> DecodeEpochSecrets(const Bytes& data) {
  ByteReader reader(data);
  EpochSecrets out;
  TCELLS_ASSIGN_OR_RETURN(out.inner_epoch, reader.GetU32());
  TCELLS_ASSIGN_OR_RETURN(uint8_t count, reader.GetU8());
  if (count == 0 || count > kEpochWindow) {
    return Status::Corruption("epoch secret window out of range");
  }
  // 64-bit: inner_epoch + 1 wraps to 0 at the last epoch.
  if (uint64_t{count} > uint64_t{out.inner_epoch} + 1) {
    return Status::Corruption("epoch secret window predates epoch 0");
  }
  out.secrets.reserve(count);
  for (uint8_t i = 0; i < count; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Bytes secret, reader.GetRaw(16));
    out.secrets.push_back(std::move(secret));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after epoch secrets");
  }
  return out;
}

Bytes DeriveEpochSecret(const Bytes& authority_master, uint32_t epoch) {
  return crypto::DeriveKey(authority_master, "ems-" + std::to_string(epoch));
}

Bytes DeriveContributionKey(const Bytes& epoch_secret, uint64_t tds_id) {
  return crypto::DeriveKey(epoch_secret, "auth-" + std::to_string(tds_id));
}

Result<std::shared_ptr<const crypto::KeyStore>> DeriveQueryKeys(
    const Bytes& epoch_secret, const ssi::QueryKeyPosting& posting) {
  if (posting.nonce.size() != ssi::QueryKeyPosting::kNonceSize) {
    return Status::InvalidArgument("key posting nonce must be 16 bytes");
  }
  std::string suffix =
      std::to_string(posting.query_id) + "-" + ToHex(posting.nonce);
  Bytes k1q = crypto::DeriveKey(epoch_secret, "qk1-" + suffix);
  Bytes k2q = crypto::DeriveKey(epoch_secret, "qk2-" + suffix);
  return crypto::KeyStore::Create(k1q, k2q);
}

namespace {

struct QueryKeysMemo {
  std::mutex mu;
  std::map<Bytes, std::shared_ptr<const crypto::KeyStore>> entries;
};

QueryKeysMemo& Memo() {
  static QueryKeysMemo memo;
  return memo;
}

}  // namespace

Result<std::shared_ptr<const crypto::KeyStore>> DeriveQueryKeysShared(
    const Bytes& epoch_secret, const ssi::QueryKeyPosting& posting) {
  QueryKeysMemo& memo = Memo();
  Bytes key = epoch_secret;
  posting.EncodeTo(&key);
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    auto it = memo.entries.find(key);
    if (it != memo.entries.end()) return it->second;
  }
  // Derive outside the lock; a concurrent miss on the same key does the work
  // twice but both produce byte-identical keys.
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const crypto::KeyStore> keys,
                          DeriveQueryKeys(epoch_secret, posting));
  std::lock_guard<std::mutex> lock(memo.mu);
  if (memo.entries.size() >= kQueryKeysMemoCapacity) memo.entries.clear();
  // Keep the first fill so previously handed-out pointers stay canonical.
  return memo.entries.emplace(std::move(key), std::move(keys)).first->second;
}

size_t QueryKeysMemoSize() {
  QueryKeysMemo& memo = Memo();
  std::lock_guard<std::mutex> lock(memo.mu);
  return memo.entries.size();
}

Bytes ContributionDigest(const std::vector<ssi::EncryptedItem>& items) {
  crypto::Sha256 hasher;
  for (const ssi::EncryptedItem& item : items) {
    hasher.Update(item.encoding().data(), item.EncodedSize());
  }
  auto digest = hasher.Finish();
  return Bytes(digest.begin(), digest.end());
}

Bytes ContributionMac(const Bytes& contribution_key, uint64_t query_id,
                      const Bytes& digest) {
  Bytes message;
  ByteWriter w(&message);
  w.PutU64(query_id);
  w.PutBytes(digest);
  auto mac = crypto::HmacSha256(contribution_key, message);
  return Bytes(mac.begin(), mac.end());
}

}  // namespace tcells::keys
