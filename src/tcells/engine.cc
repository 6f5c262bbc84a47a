#include "tcells/engine.h"

#include <algorithm>
#include <mutex>

#include "crypto/hmac.h"
#include "net/ssi_wire.h"
#include "protocol/discovery.h"

namespace tcells {

namespace {

/// Adapter: TdsKeyStates fetch the latest epoch block from their home shard
/// (the router's ShardOfTds), a batched refresh as one ordered batch per
/// shard, each id with its held tag, straight to the shard's client.
class RouterBlockSource : public keys::EpochBlockSource {
 public:
  RouterBlockSource(net::ShardedSsiClient* router,
                    std::vector<net::SsiClient*> shards)
      : router_(router), shards_(std::move(shards)) {}

  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>& held_tags) override {
    return router_->Scatter<Bytes>(
        tds_ids.size(), [&](size_t i) { return tds_ids[i]; },
        [&](size_t shard, const std::vector<size_t>& slots) {
          std::vector<uint64_t> ids;
          std::vector<uint64_t> tags;
          ids.reserve(slots.size());
          tags.reserve(slots.size());
          for (size_t slot : slots) {
            ids.push_back(tds_ids[slot]);
            tags.push_back(held_tags[slot]);
          }
          return shards_[shard]->FetchEpochBlockBatch(ids, tags);
        });
  }

 private:
  net::ShardedSsiClient* router_;
  std::vector<net::SsiClient*> shards_;  ///< index = router shard
};

/// The authority master secret of a dynamic-mode engine, derived from the
/// run seed so equal configurations produce byte-identical key schedules.
Bytes AuthorityMaster(uint64_t seed) {
  Bytes material;
  ByteWriter w(&material);
  w.PutU64(seed);
  w.PutU64(seed ^ 0x6b65792d6d617374ULL);
  return crypto::DeriveKey(material, "authority-master");
}

}  // namespace

Engine::Engine(std::unique_ptr<protocol::Fleet> fleet, Config config)
    : fleet_(std::move(fleet)), config_(std::move(config)) {}

Engine::~Engine() = default;

Result<std::unique_ptr<Engine>> Engine::Create(
    std::unique_ptr<protocol::Fleet> fleet, Config config) {
  if (!fleet || fleet->size() == 0) {
    return Status::InvalidArgument("Engine needs a non-empty fleet");
  }
  TCELLS_RETURN_IF_ERROR(config.options.Validate());
  if (config.options.key_authority != nullptr) {
    return Status::InvalidArgument(
        "Engine::Config: options.key_authority is selected by key_mode");
  }
  if (config.num_shards == 0) {
    return Status::InvalidArgument("Engine::Config: num_shards must be >= 1");
  }
  if (config.num_shards > kMaxShards) {
    return Status::InvalidArgument(
        "Engine::Config: num_shards exceeds kMaxShards (64)");
  }
  if (config.max_inflight_queries == 0) {
    return Status::InvalidArgument(
        "Engine::Config: max_inflight_queries must be >= 1");
  }
  if (config.max_inflight_queries > kMaxInflightQueries) {
    return Status::InvalidArgument(
        "Engine::Config: max_inflight_queries exceeds kMaxInflightQueries "
        "(256)");
  }
  // 0 = auto: resolved per backend in StartShards, where the transport kind
  // is known. Explicit values are bounds-checked here.
  if (config.transport_batch_max_calls > net::kMaxCallsPerBatch) {
    return Status::InvalidArgument(
        "Engine::Config: transport_batch_max_calls exceeds "
        "net::kMaxCallsPerBatch");
  }
  if (config.fault_plan != nullptr && config.transport_batch_max_calls > 1) {
    return Status::InvalidArgument(
        "Engine::Config: a fault_plan is call-granular and needs one call per "
        "frame; leave transport_batch_max_calls at 0 or 1");
  }
  std::unique_ptr<Engine> engine(
      new Engine(std::move(fleet), std::move(config)));
  TCELLS_RETURN_IF_ERROR(engine->StartShards());
  if (engine->config_.key_mode == KeyMode::kDynamic) {
    TCELLS_RETURN_IF_ERROR(engine->StartKeys());
  }
  engine->StartScheduler();
  return engine;
}

Status Engine::StartShards() {
  shards_.resize(config_.num_shards);
  std::vector<net::SsiApi*> shard_apis;
  shard_apis.reserve(shards_.size());
  for (ShardStack& shard : shards_) {
    net::CallFilter filter;
    if (config_.tamper_plan != nullptr) {
      shard.byzantine =
          std::make_unique<net::ByzantineProxy>(*config_.tamper_plan);
      filter = shard.byzantine->filter();
    }
    shard.node = std::make_unique<net::SsiNode>(std::move(filter));
    net::Handler handler = shard.node->handler();
    net::Transport* base = nullptr;
    if (config_.transport == net::TransportKind::kTcp) {
      shard.server = std::make_unique<net::TcpServer>();
      TCELLS_RETURN_IF_ERROR(shard.server->Start(std::move(handler)));
      shard.transport = std::make_unique<net::TcpTransport>(
          "127.0.0.1", shard.server->port());
      base = shard.transport.get();
    } else {
      shard.loopback =
          std::make_unique<net::LoopbackTransport>(std::move(handler));
      base = shard.loopback.get();
    }
    if (config_.fault_plan != nullptr) {
      shard.faulty = std::make_unique<net::FaultyTransport>(
          base, *config_.fault_plan, config_.options.clock);
      base = shard.faulty.get();
    }
    net::BatchOptions batch;
    if (config_.fault_plan != nullptr) {
      // A fault plan's schedule is call-granular (the nth call of a kind,
      // one token's upload), so a faulted engine ships one call per frame.
      batch.max_calls_per_frame = 1;
    } else if (config_.transport_batch_max_calls != 0) {
      batch.max_calls_per_frame = config_.transport_batch_max_calls;
    } else {
      batch.max_calls_per_frame = config_.transport == net::TransportKind::kTcp
                                      ? kAutoBatchCallsTcp
                                      : kAutoBatchCallsLoopback;
    }
    shard.client = std::make_unique<net::SsiClient>(
        base, protocol::TransportRetryPolicy(config_.options), &metrics_,
        batch);
    shard_apis.push_back(shard.client.get());
  }
  router_ = std::make_unique<net::ShardedSsiClient>(std::move(shard_apis));
  return Status::OK();
}

Status Engine::StartKeys() {
  uint64_t max_id = 0;
  for (size_t i = 0; i < fleet_->size(); ++i) {
    max_id = std::max(max_id, fleet_->at(i)->id());
  }
  TCELLS_ASSIGN_OR_RETURN(
      key_authority_,
      keys::KeyAuthority::Create(AuthorityMaster(config_.options.seed),
                                 max_id + 1, config_.options.seed));
  std::vector<net::SsiClient*> shard_clients;
  for (ShardStack& shard : shards_) shard_clients.push_back(shard.client.get());
  block_source_ = std::make_unique<RouterBlockSource>(
      router_.get(), std::move(shard_clients));
  refresh_counters_.fetched = &metrics_.counter("keys.blocks_fetched");
  refresh_counters_.adopted = &metrics_.counter("keys.blocks_adopted");
  refresh_counters_.refused = &metrics_.counter("keys.blocks_refused");
  refresh_counters_.current = &metrics_.counter("keys.blocks_current");
  rollovers_ = &metrics_.counter("keys.rollovers");
  revocations_ = &metrics_.counter("keys.revocations");
  key_states_.reserve(fleet_->size());
  std::vector<keys::TdsKeyState*> states;
  states.reserve(fleet_->size());
  for (size_t i = 0; i < fleet_->size(); ++i) {
    tds::TrustedDataServer* server = fleet_->at(i);
    TCELLS_ASSIGN_OR_RETURN(crypto::BroadcastDeviceKeys device_keys,
                            key_authority_->EnrollDevice(server->id()));
    key_states_.push_back(std::make_unique<keys::TdsKeyState>(
        server->id(), std::move(device_keys), block_source_.get(),
        &refresh_counters_));
    server->InstallKeyState(key_states_.back().get());
    states.push_back(key_states_.back().get());
  }
  // Publish the epoch-0 block so TDSs can adopt a window before the first
  // query, and flip every later query into dynamic mode.
  TCELLS_RETURN_IF_ERROR(
      router_->PostEpochBlock(key_authority_->CurrentBlock()));
  // Prime every TDS with the epoch-0 window (a device syncs its key state
  // when it comes online), in one batched refresh. Best-effort: a TDS whose
  // fetch is eaten by a fault plan simply refreshes before its first serve.
  // This priming is what makes mid-run revocation observable as *rejected*
  // contributions: a primed-then-revoked TDS still derives the posting's
  // session keys from its stale window, answers, and is caught by the
  // admission check.
  (void)keys::TdsKeyState::RefreshAll(states);
  config_.options.key_authority = key_authority_.get();
  return Status::OK();
}

Status Engine::RevokeTds(const std::vector<uint64_t>& tds_ids) {
  if (key_authority_ == nullptr) {
    return Status::FailedPrecondition(
        "RevokeTds requires Config::key_mode == KeyMode::kDynamic");
  }
  std::unique_lock lock(key_authority_->publication_mutex());
  TCELLS_RETURN_IF_ERROR(key_authority_->Revoke(tds_ids));
  revocations_->Increment();
  return router_->PostEpochBlock(key_authority_->CurrentBlock());
}

Status Engine::RolloverEpoch() {
  if (key_authority_ == nullptr) {
    return Status::FailedPrecondition(
        "RolloverEpoch requires Config::key_mode == KeyMode::kDynamic");
  }
  std::unique_lock lock(key_authority_->publication_mutex());
  TCELLS_RETURN_IF_ERROR(key_authority_->Rollover());
  rollovers_->Increment();
  return router_->PostEpochBlock(key_authority_->CurrentBlock());
}

Status Engine::PostRawEpochBlock(const Bytes& block) {
  return router_->PostEpochBlock(block);
}

void Engine::StartScheduler() {
  scheduler_ = std::make_unique<QueryScheduler>(
      config_.max_inflight_queries,
      [this](internal::QueryJob* job) -> Result<protocol::RunOutcome> {
        // Each job is a one-query session against the shared sharded stack:
        // its randomness derives only from (options.seed, query_id), so the
        // result is bit-identical to a solo run regardless of what else is
        // in flight.
        protocol::RunOptions opts = job->options;
        opts.cancel = &job->cancel;
        // Key mode is an engine-level property: Submit accepted no other
        // authority, and null takes the engine's.
        opts.key_authority = key_authority_.get();
        protocol::QuerySession session(fleet_.get(), config_.device, opts,
                                       telemetry(), router_.get());
        Status submitted =
            job->personal_tds
                ? session.SubmitPersonal(job->query_id, *job->personal_tds,
                                         job->querier, job->protocol, job->sql)
                : session.Submit(job->query_id, job->querier, job->protocol,
                                 job->sql);
        if (!submitted.ok()) return submitted;
        Result<std::map<uint64_t, protocol::RunOutcome>> outcomes =
            session.RunAll();
        if (!outcomes.ok()) {
          // A failed or cancelled run never reached the session's own
          // retire step; release the query's shard state so nothing leaks
          // into later queries (best-effort — the query may be half-posted).
          (void)router_->Retire(job->query_id);
          return outcomes.status();
        }
        // RunAll's one entry: the outcome of the query submitted above.
        return std::move(outcomes->begin()->second);
      });
}

Result<std::unique_ptr<Engine>> Engine::Create(
    std::unique_ptr<protocol::Fleet> fleet) {
  return Create(std::move(fleet), Config());
}

obs::Telemetry Engine::telemetry() {
  obs::Telemetry t;
  t.metrics = &metrics_;
  t.tracer = config_.tracing ? &tracer_ : nullptr;
  return t;
}

Result<QueryHandle> Engine::SubmitInternal(
    protocol::Protocol& protocol, const protocol::Querier& querier,
    uint64_t query_id, std::optional<uint64_t> tds_id, const std::string& sql,
    const protocol::RunOptions& options) {
  TCELLS_RETURN_IF_ERROR(options.Validate());
  if (options.key_authority != nullptr &&
      options.key_authority != key_authority_.get()) {
    return Status::InvalidArgument(
        "RunOptions::key_authority is not this engine's");
  }
  auto job = std::make_shared<internal::QueryJob>();
  job->query_id = query_id;
  job->protocol = &protocol;
  job->querier = &querier;
  job->sql = sql;
  job->personal_tds = tds_id;
  job->options = options;
  return scheduler_->Submit(std::move(job));
}

Result<QueryHandle> Engine::Submit(protocol::Protocol& protocol,
                                   const protocol::Querier& querier,
                                   uint64_t query_id, const std::string& sql) {
  return SubmitInternal(protocol, querier, query_id, std::nullopt, sql,
                        config_.options);
}

Result<QueryHandle> Engine::Submit(protocol::Protocol& protocol,
                                   const protocol::Querier& querier,
                                   uint64_t query_id, const std::string& sql,
                                   const protocol::RunOptions& options) {
  return SubmitInternal(protocol, querier, query_id, std::nullopt, sql,
                        options);
}

Result<QueryHandle> Engine::SubmitPersonal(protocol::Protocol& protocol,
                                           const protocol::Querier& querier,
                                           uint64_t query_id, uint64_t tds_id,
                                           const std::string& sql) {
  return SubmitInternal(protocol, querier, query_id, tds_id, sql,
                        config_.options);
}

Result<protocol::RunOutcome> Engine::Run(protocol::Protocol& protocol,
                                         const protocol::Querier& querier,
                                         uint64_t query_id,
                                         const std::string& sql) {
  TCELLS_ASSIGN_OR_RETURN(QueryHandle handle,
                          Submit(protocol, querier, query_id, sql));
  return handle.Wait();
}

Result<protocol::RunOutcome> Engine::Run(protocol::Protocol& protocol,
                                         const protocol::Querier& querier,
                                         uint64_t query_id,
                                         const std::string& sql,
                                         const protocol::RunOptions& options) {
  TCELLS_ASSIGN_OR_RETURN(QueryHandle handle,
                          Submit(protocol, querier, query_id, sql, options));
  return handle.Wait();
}

Result<protocol::ProtocolInputs> Engine::DiscoverInputs(
    const protocol::Querier& querier, uint64_t query_id,
    const std::string& target_sql) {
  TCELLS_ASSIGN_OR_RETURN(std::string sql, protocol::DiscoverySql(target_sql));
  protocol::SAggProtocol s_agg;
  TCELLS_ASSIGN_OR_RETURN(protocol::RunOutcome outcome,
                          Run(s_agg, querier, query_id, sql));
  return protocol::InputsFromDiscovery(outcome.result);
}

std::shared_ptr<const obs::Trace> Engine::TraceFor(uint64_t query_id) const {
  return tracer_.TraceFor(query_id);
}

uint16_t Engine::shard_port(size_t i) const {
  return shards_[i].server ? shards_[i].server->port() : 0;
}

}  // namespace tcells
