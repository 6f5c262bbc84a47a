// Adversarial scenario campaign: a manifest of (protocol, workload, fault
// plan, tamper plan) scenarios executed against the real engine, each
// checked against a plaintext oracle and a set of robustness invariants:
//
//   * whenever a scenario completes with no loss, no tampering and full
//     collection participation, its result must equal the oracle's;
//   * whenever the result diverges from the oracle, the divergence must be
//     visible in metrics (partitions_lost / partitions_tampered /
//     collection_participants / contributions_rejected) — no silent wrong
//     answers;
//   * scenarios with pinned expectations (exact partitions_lost /
//     partitions_tampered, completion vs abort) must match them exactly.
//
// Every scenario is deterministic: the same spec produces a byte-identical
// ScenarioOutcome::Canonical() dump for any worker-thread count and on
// either transport backend (loopback or TCP). See docs/TESTING.md "Tier 5".
#ifndef TCELLS_CAMPAIGN_CAMPAIGN_H_
#define TCELLS_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/byzantine.h"
#include "net/channel.h"
#include "net/faulty.h"
#include "protocol/protocols.h"

namespace tcells::sim {

/// One campaign scenario: a self-contained world plus an adversary.
struct ScenarioSpec {
  std::string name;
  protocol::ProtocolKind protocol = protocol::ProtocolKind::kSAgg;

  // Workload shape (workload::BuildGenericFleet).
  size_t num_tds = 32;
  size_t num_groups = 4;
  /// Zipf exponent of the group popularity (0 = uniform).
  double group_skew = 0.0;
  size_t rows_per_tds = 2;

  uint64_t seed = 11;
  size_t num_threads = 1;
  /// SSI shards behind the engine's router (Engine::Config::num_shards).
  size_t num_shards = 1;
  double dropout_rate = 0.0;
  /// Transport retry budget: max_dropout_retries + 1 attempts per message.
  size_t max_dropout_retries = 4;

  /// The adversary. Null members = honest transport / honest SSI.
  std::shared_ptr<const net::FaultPlan> faults;
  std::shared_ptr<const net::TamperPlan> tampering;

  // ---- Dynamic key management (docs/KEYS.md) ----

  /// Run under Engine KeyMode::kDynamic: per-query session keys, epoch
  /// blocks on the SSI, contribution admission checks.
  bool dynamic_keys = false;
  /// Override the scenario query with a DURATION-bounded one (ticked
  /// connectivity), so mid-collection key events have ticks to land on.
  /// 0 = the protocol's default single-pass query.
  uint64_t duration_ticks = 0;
  /// TDS ids revoked right after engine bring-up, before the query is
  /// posted. Primed with the epoch-0 window, they still answer — and every
  /// answer is rejected by the admission check.
  std::vector<uint64_t> revoke_before;
  /// TDS ids revoked at the start of collection tick `revoke_at_tick`
  /// (mid-query churn).
  std::vector<uint64_t> revoke_at;
  std::optional<uint64_t> revoke_at_tick;
  /// Roll the key epoch (no revocation change) at the start of this tick:
  /// in-flight queries must keep completing, oracle-matching.
  std::optional<uint64_t> rollover_at_tick;
  /// Byzantine key server: at the start of this tick, republish the stale
  /// epoch-0 block over the current one. TDSs must refuse the downgrade.
  std::optional<uint64_t> stale_block_at_tick;
  /// Byzantine key server: at the start of this tick, publish forged bytes
  /// as the epoch block. TDSs must reject it and keep their last good
  /// window.
  std::optional<uint64_t> forged_block_at_tick;

  // Pinned expectations; unset = any value is acceptable (the general
  // invariants above still apply).
  std::optional<bool> expect_complete;
  std::optional<uint64_t> expect_partitions_lost;
  std::optional<uint64_t> expect_partitions_tampered;
  std::optional<uint64_t> expect_contributions_rejected;
};

/// Everything one scenario execution produced, reduced to deterministic
/// values (no wall-clock, no allocation addresses).
struct ScenarioOutcome {
  std::string name;
  bool completed = false;
  /// Status of the aborted run ("" when completed).
  std::string abort_status;

  std::string result_table;  ///< QueryResult::ToString() ("" when aborted)
  bool oracle_match = false; ///< result SameRows the plaintext reference
  /// No loss, no tampering, full collection participation: the scenario has
  /// no excuse for diverging from the oracle.
  bool clean = false;

  uint64_t partitions_lost = 0;
  uint64_t partitions_tampered = 0;
  uint64_t collection_participants = 0;
  /// Dynamic key mode: uploads discarded by the contribution admission
  /// check (RunMetrics::contributions_rejected).
  uint64_t contributions_rejected = 0;
  uint64_t eligible_tds = 0;
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;

  /// Summed over every shard; the log concatenates each shard's
  /// FaultyTransport::CanonicalLog() in shard order.
  uint64_t faults_injected = 0;
  std::string fault_log;
  uint64_t tampers = 0;  ///< ByzantineProxy stats total, over every shard

  /// Invariant violations detected for this scenario (empty = pass).
  std::vector<std::string> violations;

  /// Deterministic byte dump: identical across thread counts and backends
  /// for the same spec. The campaign determinism tests compare these.
  std::string Canonical() const;
};

/// Executes one scenario end to end: builds the world, runs the plaintext
/// oracle, runs the engine under the scenario's adversary on `backend`, and
/// evaluates the invariants. Errors are only returned for harness failures
/// (bad spec, world construction); a query abort is a normal outcome.
Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    net::TransportKind backend);

struct CampaignResult {
  std::vector<ScenarioOutcome> outcomes;
  size_t total_violations = 0;

  /// Concatenated per-scenario canonical dumps.
  std::string Canonical() const;
};

/// Runs every scenario in order (any scenario's harness failure aborts the
/// campaign). Violations do not abort — they are collected for the caller.
Result<CampaignResult> RunCampaign(const std::vector<ScenarioSpec>& manifest,
                                   net::TransportKind backend);

/// The full manifest: all 5 protocols under probabilistic and scripted
/// transport faults, Zipf-skewed workloads, and every byzantine tampering
/// class.
std::vector<ScenarioSpec> DefaultManifest();

/// A small deterministic subset for the default build's `ctest -L sim`.
std::vector<ScenarioSpec> SmokeManifest();

}  // namespace tcells::sim

#endif  // TCELLS_CAMPAIGN_CAMPAIGN_H_
