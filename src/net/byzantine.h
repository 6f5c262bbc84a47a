// ByzantineProxy: a decorator around an SsiNode's per-call dispatch that
// models an actively malicious SSI. Where FaultyTransport corrupts the
// *transport* (lost frames, delays, garbled bytes), this proxy speaks the
// protocol correctly but lies at the application level — serving stale or
// misattributed round outputs, forging status/accept bytes, reordering
// collected items — exactly the behaviors the paper's threat model (a
// compromised Supporting Server Infrastructure) allows. It sees every call
// of every frame, so its lies apply at any batch size.
//
// Every lie but one is a pure function of the call's wire keys and of what
// was recorded under those same keys: RunRound stages, fetches, uploads and
// takes one (query, token) in order inside one task, and a token's rounds
// run one after another. Reversing the collection, forging accept bytes or
// errors, replaying a token's first take and echoing its staged input are
// therefore deterministic across thread counts, batch sizes and backends.
// swap_round_outputs is not: it serves token t^1's upload, which another
// task may or may not have made by the time token t is taken, so what it
// serves depends on arrival order (open in ROADMAP.md).
//
// The client side must either reject each tampering class (clean abort) or
// survive it with the degradation visible in metrics (partitions_tampered /
// partitions_lost / collection_participants): no silent wrong answers.
#ifndef TCELLS_NET_BYZANTINE_H_
#define TCELLS_NET_BYZANTINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "net/ssi_node.h"
#include "net/ssi_wire.h"

namespace tcells::net {

/// Which lies the proxy tells. All off = transparent pass-through.
struct TamperPlan {
  /// kTakeCollected: serve the collected items in reverse order. A correct
  /// engine treats the collected set as unordered, so this must be
  /// *tolerated* (same result as the oracle).
  bool reverse_collected = false;
  /// kTakeRoundOutput: serve the first reply ever recorded for this
  /// (query, token) again — a stale round output from an earlier round. The
  /// client's digest check must flag it (partitions_tampered).
  bool replay_round_output = false;
  /// kTakeRoundOutput: serve the bytes staged for this (query, token) as if
  /// they were the TDS's output — the SSI "echoes" the input instead of the
  /// computed result. Caught by the digest check.
  bool echo_input_as_output = false;
  /// kTakeRoundOutput for token t: serve the output uploaded for token t^1
  /// (partition outputs swapped pairwise). Caught by the digest check.
  bool swap_round_outputs = false;
  /// kUploadCollection: rewrite the accept byte to 0 — every TDS is told its
  /// contribution was rejected while the SSI keeps (and later serves) it.
  /// The querier forwards uploads only while collection is open, when an
  /// honest SSI accepts them all, so it aborts the query with Corruption.
  bool forge_accept_byte = false;
  /// Replace OK replies of this message type with a NotFound error.
  std::optional<MsgType> forge_error_on;
};

/// How often each lie was told (only counted when the served bytes actually
/// differ from the honest reply).
struct TamperStats {
  uint64_t reversed_collected = 0;
  uint64_t replayed_round_outputs = 0;
  uint64_t echoed_inputs = 0;
  uint64_t swapped_round_outputs = 0;
  uint64_t forged_accepts = 0;
  uint64_t forged_errors = 0;

  uint64_t total() const {
    return reversed_collected + replayed_round_outputs + echoed_inputs +
           swapped_round_outputs + forged_accepts + forged_errors;
  }
};

class ByzantineProxy {
 public:
  /// The proxy records the partition payloads that pass through it so later
  /// lies can replay them.
  explicit ByzantineProxy(TamperPlan plan);

  /// The tampering filter to install in a node: SsiNode(proxy.filter()).
  CallFilter filter();

  TamperStats stats() const;

 private:
  Status Serve(std::span<const uint8_t> request, const CallHandler& honest,
               Bytes* reply);

  TamperPlan plan_;

  mutable std::mutex mu_;
  TamperStats stats_;
  using Key = std::pair<uint64_t, uint64_t>;  // (query_id, token)
  /// Partition payloads seen at kStagePartition / kUploadRoundOutput, and
  /// the first reply served per key at kTakeRoundOutput.
  std::map<Key, Bytes> staged_;
  std::map<Key, Bytes> uploaded_;
  std::map<Key, Bytes> first_take_reply_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_BYZANTINE_H_
