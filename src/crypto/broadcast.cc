#include "crypto/broadcast.h"

#include <algorithm>
#include <bit>

#include "crypto/encryption.h"

namespace tcells::crypto {

Result<BroadcastChannel> BroadcastChannel::Create(const Bytes& master,
                                                  size_t num_devices) {
  if (master.size() != 16) {
    return Status::InvalidArgument("broadcast master must be 16 bytes");
  }
  if (num_devices == 0) {
    return Status::InvalidArgument("need at least one device");
  }
  // Heap numbering stores node ids in uint32 and the leaves occupy
  // capacity .. 2*capacity-1, so the padded leaf count must stay <= 2^31 or
  // the leaf ids wrap around and distinct devices would share keys.
  if (num_devices > (size_t{1} << 31)) {
    return Status::InvalidArgument("broadcast tree capped at 2^31 devices");
  }
  size_t capacity = 1;
  while (capacity < num_devices) capacity *= 2;
  return BroadcastChannel(master, num_devices, capacity);
}

Bytes BroadcastChannel::NodeKey(uint32_t node) const {
  return DeriveKey(master_, NumberedLabel("bc-node-", node));
}

Result<BroadcastDeviceKeys> BroadcastChannel::DeviceKeys(size_t index) const {
  if (index >= num_devices_) {
    return Status::InvalidArgument("device index out of range");
  }
  BroadcastDeviceKeys out;
  out.device_index = index;
  out.node_keys.reserve(std::bit_width(capacity_));
  // Heap numbering: root = 1, leaves = capacity .. 2*capacity-1.
  for (uint32_t node = static_cast<uint32_t>(capacity_ + index); node >= 1;
       node /= 2) {
    out.node_keys.emplace_back(node, NodeKey(node));
    if (node == 1) break;
  }
  return out;
}

std::vector<uint32_t> BroadcastChannel::Cover(
    const std::set<size_t>& revoked) const {
  // A node is "dirty" if its subtree contains a revoked leaf or a padding
  // leaf (padding leaves beyond num_devices_ must never be covered — their
  // keys exist but no real device holds them, so covering them is harmless
  // for security yet would waste header space; treating them as revoked
  // keeps the cover tight and the invariants uniform).
  //
  // The dirty marks live in a bitmap over heap ids (2 * capacity_ bits).
  // Only the paths of revoked leaves and of the first padding leaf are
  // marked, each walk stopping at the first node already marked; a subtree
  // lying wholly in the padding stays unmarked and is recognised by its
  // first leaf instead.
  const bool any_revoked = !revoked.empty() && *revoked.begin() < num_devices_;
  if (!any_revoked && num_devices_ == capacity_) {
    return {1};  // nobody revoked, no padding: the root covers everyone
  }
  std::vector<uint64_t> dirty((2 * capacity_ + 63) / 64, 0);
  auto is_dirty = [&](uint64_t node) {
    return (dirty[node / 64] >> (node % 64)) & 1;
  };
  auto mark = [&](size_t leaf_index) {
    for (uint64_t node = capacity_ + leaf_index; node >= 1 && !is_dirty(node);
         node /= 2) {
      dirty[node / 64] |= uint64_t{1} << (node % 64);
    }
  };
  for (size_t r : revoked) {
    if (r < num_devices_) mark(r);
  }
  if (num_devices_ < capacity_) mark(num_devices_);

  // Cover = maximal clean subtrees = clean children of dirty nodes, read in
  // ascending heap order so the cover comes out ascending.
  const int leaf_depth = std::bit_width(capacity_) - 1;
  auto clean = [&](uint64_t node) {
    const int depth = std::bit_width(node) - 1;
    const uint64_t first_leaf = (node << (leaf_depth - depth)) - capacity_;
    return !is_dirty(node) && first_leaf < num_devices_;
  };
  std::vector<uint32_t> cover;
  for (size_t word = 0; word * 64 < capacity_; ++word) {
    for (uint64_t bits = dirty[word]; bits != 0; bits &= bits - 1) {
      const uint64_t node = word * 64 + std::countr_zero(bits);
      if (node >= capacity_) break;  // leaves have no children
      for (uint64_t child : {2 * node, 2 * node + 1}) {
        if (clean(child)) cover.push_back(static_cast<uint32_t>(child));
      }
    }
  }
  return cover;
}

Result<BroadcastMessage> BroadcastChannel::Encrypt(
    const Bytes& payload, const std::set<size_t>& revoked, Rng* rng) const {
  Bytes payload_key = rng->NextBytes(16);
  TCELLS_ASSIGN_OR_RETURN(NDetEnc body_sealer, NDetEnc::Create(payload_key));
  BroadcastMessage message;
  message.body = body_sealer.Encrypt(payload, rng);
  for (uint32_t node : Cover(revoked)) {
    TCELLS_ASSIGN_OR_RETURN(NDetEnc wrapper, NDetEnc::Create(NodeKey(node)));
    message.header.emplace_back(node, wrapper.Encrypt(payload_key, rng));
  }
  return message;
}

Result<Bytes> BroadcastChannel::Decrypt(const BroadcastMessage& message,
                                        const BroadcastDeviceKeys& device) {
  // A device holds one key per node on its leaf-to-root path; in a cover at
  // most one of them appears. Walk the path from the root down and take the
  // first held node the header lists.
  for (auto held = device.node_keys.rbegin(); held != device.node_keys.rend();
       ++held) {
    const uint32_t node = held->first;
    auto entry = std::lower_bound(
        message.header.begin(), message.header.end(), node,
        [](const auto& header_entry, uint32_t id) {
          return header_entry.first < id;
        });
    if (entry == message.header.end() || entry->first != node) continue;
    TCELLS_ASSIGN_OR_RETURN(NDetEnc wrapper, NDetEnc::Create(held->second));
    TCELLS_ASSIGN_OR_RETURN(Bytes payload_key, wrapper.Decrypt(entry->second));
    TCELLS_ASSIGN_OR_RETURN(NDetEnc body_sealer, NDetEnc::Create(payload_key));
    return body_sealer.Decrypt(message.body);
  }
  return Status::NotFound("device is not covered by this broadcast");
}

}  // namespace tcells::crypto
