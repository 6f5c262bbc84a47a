// Complete-subtree broadcast encryption (Naor–Naor–Lotspiech), the
// alternative key-distribution path of footnote 7: "a broadcast encryption
// scheme can also be used to securely exchange keys between TDSs and
// querier".
//
// N devices are the leaves of a binary tree; device i is burned with the
// keys of every node on its leaf-to-root path (log2 N + 1 keys). To send a
// payload to all non-revoked devices, the operator computes the minimal set
// of subtrees that covers exactly the non-revoked leaves and wraps a fresh
// payload key under each cover node's key. A revoked device holds no cover
// node key and learns nothing; every other device unwraps with a single
// lookup. The cover has at most r*log2(N/r) nodes for r revocations.
#ifndef TCELLS_CRYPTO_BROADCAST_H_
#define TCELLS_CRYPTO_BROADCAST_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/hmac.h"

namespace tcells::crypto {

/// One device's burned-in key material: (node id, node key) for its path.
struct BroadcastDeviceKeys {
  size_t device_index = 0;
  std::vector<std::pair<uint32_t, Bytes>> node_keys;
};

/// A broadcast: the wrapped payload key per cover node, plus the sealed body.
struct BroadcastMessage {
  /// node id -> wrap, in strictly ascending node id order (Encrypt emits it
  /// so; Decrypt looks entries up by binary search).
  std::vector<std::pair<uint32_t, Bytes>> header;
  Bytes body;  // nDet_payloadkey(payload)
};

/// Operator-side state (the key tree is derived from a master secret, so
/// only the 16-byte master needs safekeeping).
class BroadcastChannel {
 public:
  /// Supports up to `num_devices` devices (tree padded to a power of two).
  static Result<BroadcastChannel> Create(const Bytes& master,
                                         size_t num_devices);

  size_t num_devices() const { return num_devices_; }
  size_t capacity() const { return capacity_; }

  /// The keys to burn into device `index`.
  Result<BroadcastDeviceKeys> DeviceKeys(size_t index) const;

  /// The cover node ids for a revocation set (exposed for analysis/tests),
  /// in ascending order. Ids at or beyond num_devices() are ignored.
  std::vector<uint32_t> Cover(const std::set<size_t>& revoked) const;

  /// Seals `payload` for every device not in `revoked`.
  Result<BroadcastMessage> Encrypt(const Bytes& payload,
                                   const std::set<size_t>& revoked,
                                   Rng* rng) const;

  /// Device side: unwraps with the burned-in keys. NotFound when the device
  /// is not covered (i.e. it was revoked). The device's entry is found by
  /// binary search, so the header must be ascending (EpochBlock::Decode
  /// refuses any other order); in an unordered one the lookup may miss.
  static Result<Bytes> Decrypt(const BroadcastMessage& message,
                               const BroadcastDeviceKeys& device);

 private:
  BroadcastChannel(const Bytes& master, size_t num_devices, size_t capacity)
      : master_(master), num_devices_(num_devices), capacity_(capacity) {}

  Bytes NodeKey(uint32_t node) const;

  HmacState master_;  ///< every node key is one MAC under this state
  size_t num_devices_;
  size_t capacity_;  // padded leaf count (power of two)
};

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_BROADCAST_H_
