// SsiNode: the server side of the SSI RPC surface. It owns the querybox hub
// (and through it every active query's storage + adversary view) plus the
// transient transfer state the framed protocol needs — staged partitions
// TDSs download, round outputs they upload, and delivered results the
// querier fetches. Handle() is the single entry point: one batch request
// frame in (ssi_wire.h; a count of 1 is a single call), one batch reply frame
// out. The frame's calls dispatch in frame order under one hold of a mutex,
// so the node can serve the TCP loop thread and in-process callers alike.
#ifndef TCELLS_NET_SSI_NODE_H_
#define TCELLS_NET_SSI_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "net/channel.h"
#include "ssi/querybox.h"

namespace tcells::net {

/// One call's dispatch: its request payload (u8 MsgType + fields) in, its
/// reply envelope out. A non-OK return means the call could not be decoded.
using CallHandler = std::function<Result<Bytes>(const Bytes& call)>;
/// A decorator around a node's per-call dispatch (ByzantineProxy): sees each
/// call and the honest dispatch, and returns the reply envelope to send.
using CallFilter =
    std::function<Result<Bytes>(const Bytes& call, const CallHandler& honest)>;

class SsiNode {
 public:
  /// `filter` (optional) wraps the dispatch of every call of every frame.
  explicit SsiNode(CallFilter filter = nullptr);

  /// Processes one batch request frame and returns the batch reply frame,
  /// each reply envelope tagged with its call's correlation ID. A non-OK
  /// return means the frame or one of its calls could not be decoded — a
  /// bare single-call frame included — and transports drop the connection;
  /// application-level failures are encoded inside the reply envelopes.
  Result<Bytes> Handle(const Bytes& request);

  /// Adapts Handle into the transport-facing handler type.
  Handler handler() {
    return [this](const Bytes& request) { return Handle(request); };
  }

  /// Active queries in the hub (for tests / diagnostics).
  size_t num_active_queries() const;

 private:
  /// One call under mu_: dispatch + error-envelope wrapping.
  Result<Bytes> HandleCall(const Bytes& call);
  Result<Bytes> Dispatch(const Bytes& call);

  CallFilter filter_;
  mutable std::mutex mu_;
  ssi::QueryboxHub hub_;
  /// query_id → tds_id → accepted bit of the first collection upload. A
  /// duplicate delivery (transport retry after a lost reply) replays that
  /// bit instead of appending the contribution a second time.
  std::map<uint64_t, std::map<uint64_t, bool>> collection_accepted_;
  /// query_id → encoded body of the first kTakeCollected reply. The take
  /// drains the storage, so a duplicate delivery (transport retry after a
  /// lost reply) must replay the same bytes instead of an empty partition.
  std::map<uint64_t, Bytes> collected_taken_;
  /// query_id → token → partition staged for TDS download.
  std::map<uint64_t, std::map<uint64_t, ssi::Partition>> staged_;
  /// query_id → token → round output uploaded by the processing TDS.
  std::map<uint64_t, std::map<uint64_t, ssi::Partition>> outputs_;
  /// query_id → final result items awaiting querier download.
  std::map<uint64_t, std::vector<ssi::EncryptedItem>> results_;
  /// Latest published key-epoch block (encoded keys::EpochBlock, opaque
  /// here). Deliberately NOT per-query and NOT touched by kRetire: the key
  /// schedule outlives every query.
  Bytes epoch_block_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_NODE_H_
