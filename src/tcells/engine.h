// tcells::Engine — the unified entry point of the library.
//
// An Engine owns the fleet, the run options, the telemetry sinks
// (a MetricsRegistry plus, optionally, a Tracer collecting per-query span
// trees) and the SSI stack itself: `num_shards` SsiNode instances across
// which the TDS population is hash-partitioned, fronted by a
// net::ShardedSsiClient coordinator (one code path at every shard count).
// On top sits a QueryScheduler with `max_inflight_queries` worker slots, so
// dozens of queries can be in flight concurrently:
//
//   * Submit(...)     — enqueue a query, get a QueryHandle (poll Status(),
//                       block on Wait(), request Cancel());
//   * Run(...)        — submit-then-wait convenience (one query end to end);
//   * DiscoverInputs  — the §4.4 discovery query, run through Run like any
//                       other S_Agg query.
//
// Every query runs as a one-query protocol::QuerySession over the shard
// router; there is no other execution path, and the scheduler is the only
// place queries run concurrently.
//
// Configuration — RunOptions and the shard/concurrency knobs — is validated
// once at Create, so a malformed configuration fails before any query is
// posted. Determinism: a query's result is bit-identical whether it runs
// alone or alongside others, at any shard count and thread count, on
// loopback or TCP — every query's randomness derives only from its own
// (seed, query_id) stream, and the shard router reconstructs single-node
// orderings exactly (see DESIGN.md "Sharding & scheduling").
#ifndef TCELLS_TCELLS_ENGINE_H_
#define TCELLS_TCELLS_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "net/byzantine.h"
#include "net/channel.h"
#include "net/faulty.h"
#include "net/loopback.h"
#include "net/sharded_client.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/factory.h"
#include "protocol/protocols.h"
#include "protocol/session.h"
#include "tcells/query_handle.h"
#include "tcells/scheduler.h"

namespace tcells {

/// How queries are keyed (docs/KEYS.md).
enum class KeyMode {
  /// The fleet's provisioned static KeyStore — bit-identical to the
  /// pre-key-management engine.
  kStatic,
  /// Per-query session keys: the engine owns a keys::KeyAuthority, every
  /// query carries a public key posting, TDS contributions are
  /// admission-checked, and RevokeTds() cuts any set of TDSs out of the key
  /// schedule with one epoch-rollover broadcast.
  kDynamic,
};

class Engine {
 public:
  /// Hard cap on Config::num_shards (sanity bound, not a scaling limit).
  static constexpr size_t kMaxShards = 64;
  /// Hard cap on Config::max_inflight_queries (each slot is one worker
  /// thread).
  static constexpr size_t kMaxInflightQueries = 256;
  /// Per-backend batch sizes picked when transport_batch_max_calls is 0
  /// (auto). Loopback dispatch is an in-process call, so small frames keep
  /// latency flat; TCP amortizes syscalls and prefers large frames (see the
  /// batch sweep in BENCH_transport.json and ROADMAP item 1).
  static constexpr size_t kAutoBatchCallsLoopback = 8;
  static constexpr size_t kAutoBatchCallsTcp = 64;

  struct Config {
    sim::DeviceModel device;
    protocol::RunOptions options;
    /// Collect a span tree per query (obs/trace.h). Metrics are always on.
    bool tracing = true;
    /// How queriers/TDSs reach the SSI (docs/TRANSPORT.md). Loopback is the
    /// in-process default; kTcp starts one SSI server per shard on
    /// 127.0.0.1 (ephemeral ports). Either way the engine owns the stack
    /// and all queries share it, so query ids must be unique across
    /// concurrent queries.
    net::TransportKind transport = net::TransportKind::kLoopback;
    /// SSI shards the TDS population is hash-partitioned across. Results
    /// are bit-identical at every count; validated in [1, kMaxShards] at
    /// Create.
    size_t num_shards = 1;
    /// Concurrent query slots of the scheduler (worker threads executing
    /// submitted queries). Validated in [1, kMaxInflightQueries] at Create.
    size_t max_inflight_queries = 4;
    /// Calls coalesced into one transport frame per shard client
    /// (net::BatchOptions::max_calls_per_frame). 0 — the default — picks a
    /// per-backend value at StartShards, where the transport kind is known:
    /// kAutoBatchCallsLoopback for loopback (small frames; in-process
    /// dispatch is cheap) and kAutoBatchCallsTcp for TCP (the batch sweep
    /// in BENCH_transport.json shows TCP wants 64+ calls/frame). A
    /// fault_plan makes it 1 (fault schedules are call-granular). Explicit
    /// values are validated in [1, net::kMaxCallsPerBatch] at Create, and
    /// only 1 is accepted together with a fault_plan.
    size_t transport_batch_max_calls = 0;
    /// Adversarial testing hooks (docs/TRANSPORT.md "Fault injection"):
    /// each shard's transport is wrapped in a FaultyTransport and/or its
    /// node's per-call dispatch in a ByzantineProxy. Null = honest,
    /// fault-free.
    std::shared_ptr<const net::FaultPlan> fault_plan;
    std::shared_ptr<const net::TamperPlan> tamper_plan;
    /// Dynamic key management (docs/KEYS.md): kDynamic makes the engine own
    /// a KeyAuthority (seeded from options.seed), enroll every TDS into the
    /// complete-subtree broadcast tree, publish epoch blocks through the SSI
    /// and run every query under per-query session keys. kStatic — the
    /// default — is bit-identical to the seed behaviour.
    KeyMode key_mode = KeyMode::kStatic;
  };

  /// Validates the configuration (RunOptions::Validate plus the shard and
  /// concurrency knobs) and takes ownership of the fleet. InvalidArgument on
  /// a null/empty fleet or any bad knob.
  static Result<std::unique_ptr<Engine>> Create(
      std::unique_ptr<protocol::Fleet> fleet, Config config);
  /// Create with all-default configuration.
  static Result<std::unique_ptr<Engine>> Create(
      std::unique_ptr<protocol::Fleet> fleet);

  ~Engine();

  protocol::Fleet& fleet() { return *fleet_; }
  const protocol::RunOptions& options() const { return config_.options; }
  const sim::DeviceModel& device() const { return config_.device; }

  /// Engine-wide counters/histograms, accumulated across all queries.
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// All span trees recorded so far (empty forever when tracing is off).
  obs::Tracer& tracer() { return tracer_; }
  /// The sink bundle handed to execution (tracer omitted when tracing off).
  obs::Telemetry telemetry();

  /// Enqueues one query with the scheduler and returns immediately. The
  /// handle observes and controls the run; `protocol` and `querier` must
  /// stay alive until it finishes. Never blocks: once every slot is busy
  /// the query waits in the scheduler's FIFO queue.
  Result<QueryHandle> Submit(protocol::Protocol& protocol,
                             const protocol::Querier& querier,
                             uint64_t query_id, const std::string& sql);
  /// Same, with per-query RunOptions overriding the engine defaults
  /// (validated here). The transport/clock knobs still come from the
  /// engine's own options — the SSI stack is shared.
  Result<QueryHandle> Submit(protocol::Protocol& protocol,
                             const protocol::Querier& querier,
                             uint64_t query_id, const std::string& sql,
                             const protocol::RunOptions& options);
  /// Personal-querybox variant: the query is addressed to one TDS only.
  Result<QueryHandle> SubmitPersonal(protocol::Protocol& protocol,
                                     const protocol::Querier& querier,
                                     uint64_t query_id, uint64_t tds_id,
                                     const std::string& sql);

  /// Runs one query end to end (submit-then-wait); the outcome carries its
  /// span tree when tracing is on.
  Result<protocol::RunOutcome> Run(protocol::Protocol& protocol,
                                   const protocol::Querier& querier,
                                   uint64_t query_id, const std::string& sql);
  /// Same, with per-query RunOptions overriding the engine defaults.
  Result<protocol::RunOutcome> Run(protocol::Protocol& protocol,
                                   const protocol::Querier& querier,
                                   uint64_t query_id, const std::string& sql,
                                   const protocol::RunOptions& options);

  /// Runs the discovery protocol (§4.4) for `target_sql`'s grouping
  /// attributes — the S_Agg query protocol::DiscoverySql builds, through
  /// Run under `query_id` — and returns inputs sufficient for every protocol
  /// kind. InvalidArgument when `target_sql` has no GROUP BY;
  /// FailedPrecondition when the discovered domain is empty.
  Result<protocol::ProtocolInputs> DiscoverInputs(
      const protocol::Querier& querier, uint64_t query_id,
      const std::string& target_sql);

  /// Latest trace recorded for `query_id` (null when unknown or tracing is
  /// off).
  std::shared_ptr<const obs::Trace> TraceFor(uint64_t query_id) const;

  /// The logical SSI every query goes through: the shard router, at every
  /// shard count.
  net::SsiApi* ssi_client() { return router_.get(); }
  /// The scheduler behind Submit (introspection for tests/benches).
  QueryScheduler& scheduler() { return *scheduler_; }

  /// Dynamic key mode only (null in static mode).
  keys::KeyAuthority* key_authority() { return key_authority_.get(); }
  /// Revokes `tds_ids` from the key schedule: one epoch rollover whose new
  /// block excludes them from the broadcast cover, republished through every
  /// SSI shard. All their subsequent contributions are rejected.
  /// FailedPrecondition in static key mode.
  Status RevokeTds(const std::vector<uint64_t>& tds_ids);
  /// Rolls the key epoch without changing the revoked set (key hygiene);
  /// in-flight queries keep completing — their posting epoch stays inside
  /// the retained window. FailedPrecondition in static key mode.
  Status RolloverEpoch();
  /// Adversarial hook: publishes arbitrary bytes as the SSI's epoch block
  /// (forged or stale-replayed rollover) WITHOUT touching the authority.
  /// TDSs must reject/ignore it; the authority's admission check still
  /// enforces the true current epoch.
  Status PostRawEpochBlock(const Bytes& block);

  size_t num_shards() const { return config_.num_shards; }
  /// Shard i's node (i < num_shards) — test/diagnostic access to per-shard
  /// state such as num_active_queries().
  net::SsiNode* shard_node(size_t i) { return shards_[i].node.get(); }
  /// Shard i's TCP port (0 in loopback mode).
  uint16_t shard_port(size_t i) const;
  /// Shard i's fault injector / byzantine proxy (null when unset).
  net::FaultyTransport* shard_fault_injector(size_t i) {
    return shards_[i].faulty.get();
  }
  net::ByzantineProxy* shard_byzantine_proxy(size_t i) {
    return shards_[i].byzantine.get();
  }

 private:
  /// One shard's SSI stack: the optional byzantine filter, the node whose
  /// per-call dispatch it wraps, the backend (loopback or TCP), the optional
  /// fault decorator, and the typed client.
  struct ShardStack {
    std::unique_ptr<net::ByzantineProxy> byzantine;
    std::unique_ptr<net::SsiNode> node;
    std::unique_ptr<net::TcpServer> server;
    std::unique_ptr<net::TcpTransport> transport;
    std::unique_ptr<net::LoopbackTransport> loopback;
    std::unique_ptr<net::FaultyTransport> faulty;
    std::unique_ptr<net::SsiClient> client;
  };

  Engine(std::unique_ptr<protocol::Fleet> fleet, Config config);

  Status StartShards();
  /// Dynamic key mode bring-up: creates the authority, enrolls + installs a
  /// TdsKeyState on every fleet member, publishes the epoch-0 block and
  /// primes every state with one batched refresh.
  Status StartKeys();
  void StartScheduler();
  Result<QueryHandle> SubmitInternal(protocol::Protocol& protocol,
                                     const protocol::Querier& querier,
                                     uint64_t query_id,
                                     std::optional<uint64_t> tds_id,
                                     const std::string& sql,
                                     const protocol::RunOptions& options);

  std::unique_ptr<protocol::Fleet> fleet_;
  Config config_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  std::vector<ShardStack> shards_;
  std::unique_ptr<net::ShardedSsiClient> router_;
  /// Dynamic key mode state (all null/empty in static mode). The key states
  /// fetch epoch blocks through `block_source_` (an adapter over the
  /// router), so they must sit below the shard stacks and above the
  /// scheduler in teardown order.
  std::unique_ptr<keys::KeyAuthority> key_authority_;
  std::unique_ptr<keys::EpochBlockSource> block_source_;
  /// keys.* instruments of metrics_, registered once at StartKeys.
  keys::RefreshCounters refresh_counters_;
  obs::Counter* rollovers_ = nullptr;
  obs::Counter* revocations_ = nullptr;
  std::vector<std::unique_ptr<keys::TdsKeyState>> key_states_;
  /// Last member: workers reference the router/fleet, so the scheduler must
  /// be torn down (drained + joined) before anything above it.
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace tcells

#endif  // TCELLS_TCELLS_ENGINE_H_
