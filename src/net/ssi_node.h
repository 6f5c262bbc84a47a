// SsiNode: the server side of the SSI RPC surface, and the SSI's whole
// per-query state: one record per posted query holding its querybox post,
// the TDSs that served it, the collected items, the adversary view, and the
// transient transfer state the framed protocol needs — staged partitions
// TDSs download, round outputs they upload, and the delivered result the
// querier fetches. kPostGlobal / kPostPersonal create a record and kRetire
// removes it; nothing else does. Every other per-query call on an id with no
// record is NotFound and stores nothing.
//
// Handle() is the single entry point: one batch request frame in
// (ssi_wire.h; a count of 1 is a single call), one batch reply frame out.
// The frame's calls dispatch in frame order under one hold of a mutex, so
// the node can serve the TCP loop thread and in-process callers alike. Each
// call is read as a view into the request frame, and each reply envelope is
// written straight into the reply frame, reserved at the size of the last
// reply to a frame of the same message type: a frame costs the node one
// reply buffer, however many calls it carries.
//
// Items are stored as the wire bytes they arrived in. Every incoming item
// vector goes through ssi::ItemScanner, which validates it (and feeds the
// adversary view) without materializing an item; every outgoing one is those
// validated bytes served verbatim.
#ifndef TCELLS_NET_SSI_NODE_H_
#define TCELLS_NET_SSI_NODE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/channel.h"
#include "ssi/ssi.h"

namespace tcells::net {

/// One call's dispatch: its request payload (u8 MsgType + fields) in, its
/// reply envelope appended to `reply`, the reply frame being written. A
/// non-OK return means the call could not be decoded.
using CallHandler =
    std::function<Status(std::span<const uint8_t> call, Bytes* reply)>;
/// A decorator around a node's per-call dispatch (ByzantineProxy): sees each
/// call and the honest dispatch, and leaves the reply envelope to send at
/// the end of `reply`, where the honest dispatch appends its own.
using CallFilter = std::function<Status(
    std::span<const uint8_t> call, const CallHandler& honest, Bytes* reply)>;

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

  /// Posted queries not yet retired (for tests / diagnostics).
  size_t num_active_queries() const;

 private:
  /// One posted query's SSI state.
  struct Query {
    struct Post {
      Bytes encoded;  ///< Served as-is by kFetchPosts.
      std::optional<uint64_t> personal_tds;  ///< nullopt = global.
    };
    /// What a round token holds: the partition staged for TDS download
    /// until the processing TDS uploads its output, then that output until
    /// the token is staged again. Each write replaces the other, so a reused
    /// token never mixes rounds.
    struct Transfer {
      bool uploaded = false;
      Bytes items;  ///< Item-vector encoding.
    };
    Post post;
    /// tds_id → accept bit of its first collection upload, or nullopt when
    /// it acknowledged the query without one. A duplicate upload (transport
    /// retry after a lost reply) replays the bit instead of appending the
    /// contribution a second time.
    /// Looked up, never iterated.
    std::unordered_map<uint64_t, std::optional<bool>> served;
    /// Every accepted collection item, as the concatenation of the item
    /// encodings the uploads carried, and how many items that is.
    Bytes collected;
    uint32_t collected_count = 0;
    /// Set by the first kTakeCollected, which closes the storage area: a
    /// later upload is acknowledged but discarded, and every take — a
    /// duplicate delivery included — serves the same `collected` bytes.
    bool taken = false;
    ssi::AdversaryView view;
    /// Set by the first kObserveAggregation: a retry after a lost reply
    /// observes nothing twice.
    bool aggregation_observed = false;
    std::map<uint64_t, Transfer> transfers;  ///< By round token.
    /// Item-vector encoding of the final result awaiting querier download.
    /// Its first delivery is the filtering-phase leakage the view records; a
    /// retried delivery records nothing more.
    std::optional<Bytes> result;
  };

  /// One call under mu_: dispatch, and on an application error an error
  /// envelope in place of whatever the call wrote.
  Status HandleCall(std::span<const uint8_t> call, Bytes* reply);
  /// Appends the call's OK envelope to `reply`, or returns its error.
  Status Dispatch(std::span<const uint8_t> call, Bytes* reply);
  Status Post(std::span<const uint8_t> raw,
              std::optional<uint64_t> personal_tds);
  /// The posted record of `query_id`, or NotFound.
  Result<Query*> Posted(uint64_t query_id);

  CallFilter filter_;
  mutable std::mutex mu_;
  /// By the MsgType byte of a frame's first call: the size of the last
  /// reply frame Handle wrote for such a frame, which it reserves for the
  /// next.
  std::array<uint32_t, 256> reply_size_hint_{};
  std::map<uint64_t, Query> queries_;
  /// Latest published key-epoch block (encoded keys::EpochBlock, opaque
  /// here). Deliberately NOT per-query and NOT touched by kRetire: the key
  /// schedule outlives every query.
  Bytes epoch_block_;
  uint64_t epoch_block_tag_ = 0;  ///< ssi::EpochBlockTag(epoch_block_)
};

}  // namespace tcells::net

#endif  // TCELLS_NET_SSI_NODE_H_
