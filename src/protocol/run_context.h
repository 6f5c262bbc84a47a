// RunContext / RunOptions / RunMetrics: shared machinery for executing a
// protocol end to end over a Fleet and the SSI, with cost accounting,
// simulated-time tracking and fault injection (TDS dropouts with SSI
// re-dispatch, §3.2 Correctness).
//
// RunMetrics, with its CostAccountant, is the only per-query tally a running
// query writes. The trace's counts and the engine.* registry counters are
// derived from it: each round span from that round's share of the phase
// tally, the collection span and the registry counters by QuerySession once
// the query completes.
#ifndef TCELLS_PROTOCOL_RUN_CONTEXT_H_
#define TCELLS_PROTOCOL_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "keys/key_authority.h"
#include "net/ssi_api.h"
#include "net/ssi_client.h"
#include "obs/trace.h"
#include "protocol/fleet.h"
#include "protocol/parallel_executor.h"
#include "sim/cost_accountant.h"
#include "sim/device_model.h"
#include "ssi/ssi.h"
#include "tds/config.h"

namespace tcells::protocol {

/// Tuning knobs for a run. Defaults follow the paper's fixed parameters
/// (§6.3) where applicable.
struct RunOptions {
  /// Fraction of the fleet available for aggregation/filtering phases
  /// (the paper sweeps 1%/10%/100% of N_t; default 10%).
  double compute_availability = 0.1;
  /// Probability that a TDS goes offline mid-partition; the SSI re-sends the
  /// partition to another TDS after a timeout.
  double dropout_rate = 0.0;
  size_t max_dropout_retries = 16;
  /// Simulated timeout before the SSI re-dispatches a lost partition (s).
  double dropout_timeout_seconds = 1.0;

  /// S_Agg reduction factor; 3.6 is the analytical optimum (§6.1.1).
  double alpha = 3.6;
  /// Expected number of groups (sizes the first S_Agg round at alpha*G
  /// tuples per partition); 0 = unknown, fall back to alpha.
  size_t expected_groups = 0;

  /// Rnf_Noise: fake tuples per true tuple.
  int nf = 2;

  /// Pad collection payloads to this plaintext size (0 = off).
  size_t pad_payload_to = 0;

  /// Collection connectivity model for DURATION-bounded queries: per tick,
  /// each TDS that has not yet contributed connects with this probability
  /// (seldom-connected tokens: low; always-on meters: 1.0). Queries without
  /// a DURATION bound do a single full pass.
  double connect_prob_per_tick = 0.2;

  /// Worker threads for the parallel fleet engine: the collection pass and
  /// every aggregation/filtering round fan their partitions out across this
  /// many threads (the calling thread included). 1 = fully serial; 0 = use
  /// std::thread::hardware_concurrency(). Results are bit-identical for any
  /// value: each TDS/partition draws from its own Rng stream keyed by its
  /// identity (Rng::Keyed), so thread scheduling can never reach the bits.
  size_t num_threads = 0;
  /// Hard cap on num_threads (sanity bound: each is one pool thread).
  static constexpr size_t kMaxThreads = 256;

  /// Clock the transport retry backoff sleeps go through (borrowed; must
  /// outlive every run using these options). Null = real wall clock. The
  /// fault-injection campaign installs a VirtualClock so injected delays and
  /// retry storms complete instantly and deterministically.
  Clock* clock = nullptr;

  uint64_t seed = 42;

  /// Dynamic key mode (borrowed; may be null = static keys, bit-identical to
  /// the pre-key-management behaviour). When set, every submitted query gets
  /// a per-query key posting minted by this authority, TDS contributions are
  /// admission-checked against it (epoch-stamped HMAC), and revoked TDSs are
  /// excluded from the compute pool.
  keys::KeyAuthority* key_authority = nullptr;

  /// Invoked at the start of every collection connection tick with the tick
  /// number (may be empty). The fault-injection campaign uses it to revoke
  /// TDSs / roll the key epoch at a deterministic point mid-query.
  std::function<void(uint64_t)> tick_hook;

  /// Cooperative cancellation flag (borrowed; may be null). Checked at the
  /// run's natural serial boundaries — each collection tick and wave, each
  /// aggregation/filtering round, each per-query completion step — so a
  /// cancelled run stops promptly, returns Status::Cancelled, and never
  /// leaves a phase half-applied. Engine::QueryHandle::Cancel sets it.
  const std::atomic<bool>* cancel = nullptr;

  /// Sanity-checks the knob values (rates in range, alpha finite and above
  /// the fixed point, retry budget consistent with the dropout rate,
  /// num_threads at most kMaxThreads). Invoked at query submit time — by
  /// QuerySession::Submit and Engine::Create — so malformed configurations
  /// fail fast instead of deep inside a round.
  Status Validate() const;
};

/// The SSI client retry schedule a RunOptions implies: the dropout retry
/// budget also bounds transport-level attempts (max_dropout_retries + 1),
/// backoff sleeps go through `clock`, and the per-message deadline and
/// backoff keep net::RetryPolicy's defaults. (Injected dropouts cost
/// dropout_timeout_seconds of *simulated* time; transport retries cost real
/// wall clock.)
net::RetryPolicy TransportRetryPolicy(const RunOptions& options);

/// Transport failures degrade a run (a TDS misses the exchange, a round loses
/// the partition); anything else aborts it.
bool IsTransportError(const Status& s);
double WallMicrosSince(std::chrono::steady_clock::time_point t0);

/// Simulated wall-clock per phase, computed on the critical path: each round
/// of partitions runs in parallel across the available TDSs; a round's time
/// is the slowest partition times the assignment waves needed.
struct PhaseTimes {
  double aggregation_seconds = 0;
  double filtering_seconds = 0;
};

/// Everything measured during one protocol run.
struct RunMetrics {
  sim::CostAccountant accountant;
  PhaseTimes times;
  /// The aggregation phase's iterations, copied from the accountant when the
  /// query completes.
  size_t aggregation_rounds = 0;
  size_t available_compute_tds = 0;
  /// Connection ticks the collection window stayed open (1 for a plain full
  /// pass; bounded by the SIZE ... DURATION clause otherwise).
  uint64_t collection_ticks = 0;
  /// TDSs that contributed to the collection phase before it closed: the
  /// collection phase's partitions, copied from the accountant when the
  /// collection window closes.
  size_t collection_participants = 0;
  /// Dynamic key mode: collection uploads whose contribution tag failed the
  /// authority's admission check (stale epoch / revoked TDS / bad MAC). Each
  /// is acknowledged but discarded — the query completes without it, and the
  /// rejection is visible here instead of silently folding a revoked TDS's
  /// data into the result. Always 0 in static key mode.
  size_t contributions_rejected = 0;
  /// Partitions abandoned after the transport retry budget was exhausted;
  /// the round completed without their items (graceful degradation). Always
  /// 0 on a fault-free loopback transport. Tampered partitions (below) are
  /// also counted here — their items are discarded the same way.
  size_t partitions_lost = 0;
  /// Partitions whose round output came back from the SSI with bytes that do
  /// not match what the TDS uploaded (a byzantine SSI replaying or swapping
  /// outputs). Each is also counted once in partitions_lost.
  size_t partitions_tampered = 0;

  /// Real wall-clock spent executing each phase in this process (µs):
  /// collection covers the session's connection-tick work attributed to this
  /// query, aggregation/filtering cover the RunRound calls. Unlike
  /// PhaseTimes (simulated critical-path seconds) these measure the host's
  /// actual execution cost; they depend on machine load and thread count and
  /// are therefore never part of a differential comparison.
  double collection_wall_micros = 0;
  double aggregation_wall_micros = 0;
  double filtering_wall_micros = 0;

  /// Query-path wall (µs): the aggregation + filtering rounds only — the
  /// cost of executing the query over the already-collected covering result,
  /// excluding fleet setup and the collection/load pass. bench_e2e_protocols
  /// derives its ns_per_tuple from this, so the committed before/after
  /// numbers measure the per-tuple round path rather than folding collection
  /// (which for small runs dominates wall time) into the quotient.
  double QueryPathWallMicros() const {
    return aggregation_wall_micros + filtering_wall_micros;
  }
  /// Tuples processed on the query path (aggregation + filtering phases).
  uint64_t QueryPathTuples() const {
    return accountant.phase(sim::Phase::kAggregation).tuples_processed +
           accountant.phase(sim::Phase::kFiltering).tuples_processed;
  }

  /// P_TDS: distinct TDSs that took part in the computation.
  size_t Ptds() const { return accountant.DistinctTds(); }
  /// Load_Q in bytes: total data processed by TDSs and SSI.
  uint64_t LoadBytes() const { return accountant.TotalBytes(); }
  /// T_Q: the paper's responsiveness metric (aggregation phase only, §6.1).
  double Tq() const { return times.aggregation_seconds; }
  /// T_local: average busy time per participating TDS.
  double Tlocal(const sim::DeviceModel& model) const {
    return accountant.AverageTdsSeconds(model);
  }
};

/// Shared execution state handed to protocol implementations.
class RunContext {
 public:
  /// `trace` is this query's span tree (may be null = tracing off): RunRound
  /// appends one span per aggregation/filtering round from its serial
  /// epilogue, so the tree is bit-identical for any thread count. `client`
  /// is the SSI channel every partition travels through and `executor` the
  /// worker pool every round fans out on (both borrowed, never null; a
  /// QuerySession lends its own pool to its query); `query_id` scopes this
  /// context's exchanges inside the shared SSI.
  RunContext(Fleet* fleet, net::SsiApi* client, ParallelExecutor* executor,
             uint64_t query_id, const sim::DeviceModel& device,
             RunOptions options, obs::Trace* trace = nullptr);

  const RunOptions& options() const { return options_; }
  /// This query's stream for `domain` at (a, b): every random choice of the
  /// query draws from one, keyed on the query seed (options().seed).
  Rng Stream(RngDomain domain, uint64_t a = 0, uint64_t b = 0) const {
    return Rng(Rng::Keyed(options_.seed, domain, a, b));
  }
  /// The key of the next `phase` round RunRound runs: phase and index in it.
  uint64_t NextRound(sim::Phase phase) const {
    return static_cast<uint64_t>(phase) << 32 |
           metrics_.accountant.phase(phase).iterations;
  }
  /// The query's one tally (RunRound and the collection record into it).
  RunMetrics& metrics() { return metrics_; }

  /// Simulated clock: total critical-path seconds accumulated so far.
  double sim_now_seconds() const { return sim_now_seconds_; }

  /// The compute-phase TDS pool, sampled once per run.
  const std::vector<tds::TrustedDataServer*>& compute_pool();

  /// Processor invoked per partition: returns the TDS's output items. The
  /// Rng is the partition's private stream, keyed on (round, token):
  /// implementations draw all their randomness from it, so partitions can
  /// run concurrently without perturbing each other's bits.
  using PartitionFn = std::function<Result<std::vector<ssi::EncryptedItem>>(
      tds::TrustedDataServer*, const ssi::Partition&, Rng*)>;

  /// Runs one aggregation or filtering round: every partition is assigned to
  /// a TDS from the compute pool (with dropout/retry injection) and
  /// processed — across the worker threads when options.num_threads allows —
  /// then outputs are concatenated in partition order, and cost and
  /// critical-path time are recorded under `phase` in partition order.
  /// Deterministic for any thread count: each partition's TDS choice,
  /// dropout schedule and processing randomness come from its own stream,
  /// keyed on (NextRound(phase), partition index).
  Result<std::vector<ssi::EncryptedItem>> RunRound(
      sim::Phase phase, const std::vector<ssi::Partition>& partitions,
      const PartitionFn& process);

 private:
  Fleet* fleet_;
  net::SsiApi* client_;
  ParallelExecutor* executor_;
  uint64_t query_id_;
  sim::DeviceModel device_;
  RunOptions options_;
  RunMetrics metrics_;
  obs::Trace* trace_;
  double sim_now_seconds_ = 0;
  std::vector<tds::TrustedDataServer*> pool_;
  bool pool_sampled_ = false;
};

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_RUN_CONTEXT_H_
