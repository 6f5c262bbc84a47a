// FaultyTransport / FaultyChannel: a deterministic fault-injection decorator
// around any Transport backend (loopback or TCP). Faults — dropped requests
// and replies, delays, duplicate deliveries, reorderings, truncations, bit
// flips, stale replays and mid-query disconnects — are driven by a FaultPlan
// combining per-message-type probabilities with scripted triggers ("drop the
// 3rd kTakeRoundOutput").
//
// A fault acts on a whole frame and is keyed by the frame's first call
// (ssi_wire.h), so a plan is call-granular when every frame carries one call
// — which the engine arranges whenever a fault plan is set.
//
// Determinism contract: every fault decision is a pure function of
// (plan seed, message type, the message's leading wire keys, the per-key
// attempt index) — never of arrival order, thread id or wall clock. The
// engine serializes all calls for one (type, query, token) key, so the same
// seed yields the same fault sequence for any thread count and on either
// backend. The event log preserves injection order (schedule-dependent); use
// canonical_events()/CanonicalLog() for cross-run comparison.
#ifndef TCELLS_NET_FAULTY_H_
#define TCELLS_NET_FAULTY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "net/channel.h"
#include "net/ssi_wire.h"

namespace tcells::net {

enum class FaultKind : uint8_t {
  kNone = 0,
  kDropRequest,   ///< request never reaches the SSI → Unavailable
  kDropReply,     ///< SSI processes the request, reply lost → Unavailable
  kDelay,         ///< injected latency; ≥ deadline → DeadlineExceeded
  kDuplicate,     ///< request delivered twice (first reply lost)
  kReorder,       ///< the key's previous request is re-delivered first
  kTruncate,      ///< reply cut to FaultPlan::truncate_at bytes
  kBitFlip,       ///< one deterministic bit of the reply flipped
  kStaleReplay,   ///< the key's previous reply frame served instead of the
                  ///< fresh one; its correlation IDs are stale, so SsiClient
                  ///< drops it and retries
  kDisconnect,    ///< channel dies; every later call on it fails until re-dial
};

const char* FaultKindName(FaultKind kind);

/// Per-kind injection probabilities, evaluated per call in declaration
/// order; the first hit wins. All zero = pass through.
struct FaultProbabilities {
  double drop_request = 0;
  double drop_reply = 0;
  double delay = 0;
  double duplicate = 0;
  double reorder = 0;
  double truncate = 0;
  double bit_flip = 0;
  double stale_replay = 0;
  double disconnect = 0;
};

/// A scripted trigger: fire `kind` on the nth..nth+repeat-1-th matching call
/// of `type`. Scripted faults take precedence over probabilities.
struct ScriptedFault {
  MsgType type = MsgType::kPostGlobal;
  FaultKind kind = FaultKind::kDropRequest;
  /// Which counter `nth` indexes: attempts of one (type, key_a, key_b)
  /// message key, or all calls of the type. Per-key counting is invariant
  /// under thread scheduling (each key's calls are serialized by the
  /// engine); per-type counting is only deterministic in single-threaded
  /// scenarios or for types called from serial sections.
  enum class Scope : uint8_t { kPerKey, kPerType };
  Scope scope = Scope::kPerKey;
  /// 1-based index of the first matching call to fault.
  uint64_t nth = 1;
  /// Number of consecutive matching calls to fault; 0 = every one from
  /// `nth` on.
  uint64_t repeat = 1;
  /// Optional filters on the leading wire keys (first / second u64 of the
  /// request — query_id, tds_id or token depending on the type).
  std::optional<uint64_t> key_a;
  std::optional<uint64_t> key_b;
};

struct FaultPlan {
  /// Seed mixed into every probabilistic decision.
  uint64_t seed = 1;
  /// Default probabilities for every message type.
  FaultProbabilities probs;
  /// Per-type overrides (replace the defaults entirely for that type).
  std::map<MsgType, FaultProbabilities> per_type;
  std::vector<ScriptedFault> script;
  /// Latency injected by kDelay; values ≥ the call deadline turn the fault
  /// into a DeadlineExceeded whose reply the server still produced.
  double delay_seconds = 0.01;
  /// kTruncate resizes the reply envelope to this many bytes.
  size_t truncate_at = 1;

  const FaultProbabilities& ProbsFor(MsgType type) const {
    auto it = per_type.find(type);
    return it != per_type.end() ? it->second : probs;
  }
};

/// One injected fault, recorded at decision time.
struct FaultEvent {
  uint8_t type = 0;  ///< raw MsgType
  uint64_t key_a = 0;
  uint64_t key_b = 0;
  /// 1-based attempt index of this (type, key_a, key_b) message key.
  uint64_t key_attempt = 0;
  FaultKind kind = FaultKind::kNone;
};

class FaultyTransport : public Transport {
 public:
  /// `inner` is borrowed and must outlive this transport. `clock` (null =
  /// real wall clock) times injected delays; campaigns pass a VirtualClock
  /// so delay faults cost no real time.
  FaultyTransport(Transport* inner, FaultPlan plan, Clock* clock = nullptr);
  ~FaultyTransport() override;

  Result<std::unique_ptr<Channel>> Connect() override;
  const char* name() const override;

  /// Injected faults in injection order (schedule-dependent under threads).
  std::vector<FaultEvent> events() const;
  /// Injected faults sorted by (type, key, attempt, kind): identical across
  /// thread counts and backends for the same plan and workload.
  std::vector<FaultEvent> canonical_events() const;
  /// canonical_events() rendered one per line, for logs and byte-compares.
  std::string CanonicalLog() const;

  /// Total faults injected.
  uint64_t injected_count() const;

  /// Shared injector state (implementation detail, public so the channel
  /// type in the .cc can reach it).
  struct State;

 private:
  Transport* inner_;
  std::string name_;
  std::shared_ptr<State> state_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_FAULTY_H_
