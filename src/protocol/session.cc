#include "protocol/session.h"

#include <algorithm>
#include <chrono>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>

namespace tcells::protocol {

using ssi::EncryptedItem;

namespace {

/// Connectors a collection tick serves at once. A wave fetches its posts,
/// serves, tags and uploads, then frees all of it before the next wave, so
/// a tick's transient memory is set by the wave, not the fleet. No output
/// depends on the value (collection_wave_test pins that); docs/PERFORMANCE.md
/// "Collection memory" has the runs it was picked from.
constexpr size_t kCollectionWave = 4096;

/// Whether `items` forwarded meet a SIZE bound (never without one).
bool SizeReached(const std::optional<uint64_t>& bound, uint64_t items) {
  return bound && items >= *bound;
}

/// Adds one completed query's metrics to the engine-wide engine.* counters —
/// their only writer, called once per query whose outcome is fully assembled.
void PublishEngineCounters(const RunMetrics& m,
                           obs::MetricsRegistry* registry) {
  const sim::PhaseTally& c = m.accountant.phase(sim::Phase::kCollection);
  const sim::PhaseTally& a = m.accountant.phase(sim::Phase::kAggregation);
  const sim::PhaseTally& f = m.accountant.phase(sim::Phase::kFiltering);
  const std::pair<const char*, uint64_t> counters[] = {
      {"engine.queries_completed", 1},
      {"engine.collection_contributions", c.partitions},
      {"engine.rounds", a.iterations + f.iterations},
      {"engine.partitions", a.partitions + f.partitions},
      {"engine.bytes_downloaded", a.bytes_downloaded + f.bytes_downloaded},
      {"engine.bytes_uploaded",
       c.bytes_uploaded + a.bytes_uploaded + f.bytes_uploaded},
      {"engine.tuples_processed",
       c.tuples_processed + a.tuples_processed + f.tuples_processed},
      {"engine.dropout_redispatches", a.dropouts + f.dropouts},
      {"engine.partitions_lost", m.partitions_lost},
      {"engine.partitions_tampered", m.partitions_tampered},
  };
  for (const auto& [name, value] : counters) registry->counter(name).Add(value);
}

}  // namespace

QuerySession::QuerySession(Fleet* fleet, const sim::DeviceModel& device,
                           RunOptions options, obs::Telemetry telemetry,
                           net::SsiApi* client)
    : fleet_(fleet),
      device_(device),
      options_(options),
      telemetry_(telemetry),
      client_(client) {}

Status QuerySession::Submit(uint64_t query_id, const Querier* querier,
                            Protocol* protocol, const std::string& sql) {
  return SubmitInternal(query_id, std::nullopt, querier, protocol, sql);
}

Status QuerySession::SubmitPersonal(uint64_t query_id, uint64_t tds_id,
                                    const Querier* querier,
                                    Protocol* protocol,
                                    const std::string& sql) {
  return SubmitInternal(query_id, tds_id, querier, protocol, sql);
}

Status QuerySession::SubmitInternal(uint64_t query_id,
                                    std::optional<uint64_t> tds_id,
                                    const Querier* querier,
                                    Protocol* protocol,
                                    const std::string& sql) {
  if (fleet_->size() == 0) return Status::InvalidArgument("empty fleet");
  if (query_) {
    return Status::FailedPrecondition(
        "a QuerySession runs one query; submit concurrent queries through "
        "Engine::Submit");
  }
  TCELLS_RETURN_IF_ERROR(options_.Validate());
  executor_ = std::make_unique<ParallelExecutor>(options_.num_threads);

  PendingQuery pending;
  pending.id = query_id;
  pending.querier = querier;
  pending.protocol = protocol;
  pending.personal_tds = tds_id;
  TCELLS_ASSIGN_OR_RETURN(
      pending.analyzed,
      querier->AnalyzeAgainst(sql, fleet_->at(0)->db().catalog()));

  // The query's context (metrics, keyed streams) derives only from (seed,
  // query id), and it gets its own record on the SSI.
  RunOptions opts = options_;
  opts.seed = options_.seed + query_id * 0x9e37;
  if (options_.key_authority != nullptr) {
    // Dynamic key mode: mint this query's public key posting (current epoch
    // + fresh nonce), derive the per-query session keys on the querier side
    // and post under them. TDSs re-derive the same keys from the posting
    // through their broadcast-sealed epoch secrets; nothing but the static
    // flow changes when the authority is absent.
    Rng posting_rng(Rng::Keyed(opts.seed, RngDomain::kPosting));
    pending.key_posting =
        options_.key_authority->NewPosting(query_id, &posting_rng);
    TCELLS_ASSIGN_OR_RETURN(
        std::shared_ptr<const crypto::KeyStore> session_keys,
        options_.key_authority->QuerierKeysFor(*pending.key_posting));
    pending.session_querier = querier->WithKeys(std::move(session_keys));
  }
  Rng post_rng(Rng::Keyed(opts.seed, RngDomain::kPost));
  TCELLS_ASSIGN_OR_RETURN(ssi::QueryPost post,
                          pending.reader().MakePost(query_id, sql, &post_rng));
  post.key_posting = pending.key_posting;
  pending.size_max_tuples = post.size_max_tuples;
  pending.duration_ticks = post.size_max_duration_ticks;
  if (tds_id) {
    TCELLS_RETURN_IF_ERROR(client_->PostPersonal(*tds_id, post));
  } else {
    TCELLS_RETURN_IF_ERROR(client_->PostGlobal(post));
  }

  if (telemetry_.tracer != nullptr) {
    pending.trace = telemetry_.tracer->StartTrace(query_id);
    obs::Span* root = pending.trace->root();
    root->labels["protocol"] = protocol->name();
    root->labels["scope"] = tds_id ? "personal" : "global";
    // Note: the worker-thread count is deliberately NOT recorded — a trace
    // must be byte-identical for any --threads value (obs/trace.h).
    root->counts["seed"] = opts.seed;
    root->counts["fleet_size"] = fleet_->size();
  }
  pending.ctx = std::make_unique<RunContext>(fleet_, client_, executor_.get(),
                                             query_id, device_, opts,
                                             pending.trace.get());
  Result<tds::CollectionConfig> config_result =
      pending.protocol->MakeCollectionConfig(*pending.ctx, pending.analyzed);
  if (!config_result.ok()) {
    // Roll the post back so a rejected query leaves no active storage.
    (void)client_->Retire(query_id);
    return config_result.status();
  }
  pending.config = std::move(config_result).ValueOrDie();
  pending.config.key_posting = pending.key_posting;
  pending.config.pad_payload_to = opts.pad_payload_to;

  // Tag the root span with the protocol's noise/histogram configuration —
  // notably the expected fake-tuple ratio of Rnf_Noise (nf fakes per true
  // tuple, §4.3).
  if (pending.trace != nullptr) {
    obs::Span* root = pending.trace->root();
    const auto& noise = pending.config.noise;
    if (pending.protocol->kind() == ProtocolKind::kRnfNoise) {
      root->counts["nf"] = static_cast<uint64_t>(std::max(0, noise.nf));
      root->values["expected_fake_ratio"] =
          static_cast<double>(noise.nf) / static_cast<double>(noise.nf + 1);
    }
    if (noise.group_domain) {
      root->counts["group_domain_size"] = noise.group_domain->size();
    }
    if (pending.config.histogram) {
      root->counts["histogram_buckets"] =
          pending.config.histogram->num_buckets();
    }
  }
  query_ = std::move(pending);
  return Status::OK();
}

Result<std::map<uint64_t, RunOutcome>> QuerySession::RunAll() {
  if (!query_) return Status::FailedPrecondition("no query submitted");
  const auto wall_t0 = std::chrono::steady_clock::now();
  TCELLS_RETURN_IF_ERROR(Collect(*query_));
  TCELLS_ASSIGN_OR_RETURN(RunOutcome outcome, Complete(*query_, wall_t0));
  TCELLS_RETURN_IF_ERROR(client_->Retire(query_->id));
  std::map<uint64_t, RunOutcome> outcomes;
  outcomes.emplace(query_->id, std::move(outcome));
  query_.reset();
  return outcomes;
}

Status QuerySession::Collect(PendingQuery& q) {
  // Collection window in connection ticks: the DURATION bound, or a single
  // full pass. Only a DURATION-bounded window draws per-tick connectivity.
  const bool tick_mode = q.duration_ticks.has_value();
  const uint64_t window = q.duration_ticks.value_or(1);
  const size_t eligible = q.personal_tds ? 1 : fleet_->size();
  RunMetrics& metrics = q.ctx->metrics();
  // The window's own counts: items accepted so far (the collection tally,
  // recorded from the accept bits) and serves the SSI confirmed.
  const sim::PhaseTally& collected =
      metrics.accountant.phase(sim::Phase::kCollection);
  uint64_t served = 0;
  auto cancelled = [&] {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  };

  // Per tick: the connectors are drawn, then served in waves of
  // kCollectionWave in connector order (ServeWave), uploading and
  // acknowledging in the order one pass over the tick would. With keyed
  // serve streams the outcome is the same for any thread count and wave size.
  for (uint64_t tick = 0;; ++tick) {
    if (cancelled()) {
      return Status::Cancelled("query cancelled during collection");
    }
    // Campaign hook: a deterministic point to revoke TDSs / roll the key
    // epoch while the query is in flight.
    if (options_.tick_hook) options_.tick_hook(tick);
    const auto tick_t0 = std::chrono::steady_clock::now();
    // The window stays open while it has ticks left, the SIZE bound is not
    // met and some eligible TDS has yet to serve the query.
    if (tick >= window ||
        SizeReached(q.size_max_tuples, collected.tuples_processed) ||
        served >= eligible) {
      break;
    }
    metrics.collection_ticks += 1;

    // The tick's connectors as fleet indices in serve order: the fleet, or in
    // a DURATION window the TDSs whose connect draw came up, shuffled. This
    // list is the only fleet-sized state a tick keeps.
    std::vector<size_t> connectors;
    connectors.reserve(fleet_->size());
    for (size_t idx = 0; idx < fleet_->size(); ++idx) {
      if (!tick_mode ||
          q.ctx->Stream(RngDomain::kConnect, tick, fleet_->at(idx)->id())
              .NextBool(options_.connect_prob_per_tick)) {
        connectors.push_back(idx);
      }
    }
    q.ctx->Stream(RngDomain::kServeOrder, tick).Shuffle(&connectors);

    // Items forwarded in this window: those accepted in earlier ticks plus
    // every upload sent earlier in this tick, whichever wave sent it. An
    // upload that a transport failure loses still counts against SIZE for
    // the rest of the tick.
    uint64_t forwarded = collected.tuples_processed;
    for (size_t begin = 0; begin < connectors.size();
         begin += kCollectionWave) {
      if (cancelled()) {
        return Status::Cancelled("query cancelled during collection");
      }
      const size_t size =
          std::min(kCollectionWave, connectors.size() - begin);
      TCELLS_RETURN_IF_ERROR(
          ServeWave(q, std::span<const size_t>(connectors).subspan(begin, size),
                    &forwarded, &served));
    }
    metrics.collection_wall_micros += WallMicrosSince(tick_t0);
  }
  return Status::OK();
}

Status QuerySession::ServeWave(PendingQuery& q,
                               std::span<const size_t> connectors,
                               uint64_t* forwarded, uint64_t* served) {
  RunMetrics& metrics = q.ctx->metrics();
  // One serve = the query downloaded by one connecting TDS.
  struct Serve {
    tds::TrustedDataServer* server;
    ssi::QueryPost post;
    std::vector<EncryptedItem> items;
    /// Dynamic key mode: the TDS could not derive the posting's session
    /// keys (revoked before the query / no key state) — it is acknowledged
    /// as served but contributes nothing.
    bool skipped = false;
  };
  // Every connector's querybox download goes out as one batched fetch — the
  // transport coalesces them into multi-call frames when batching is on, or
  // replays the serial call sequence when it is off.
  std::vector<uint64_t> ids;
  ids.reserve(connectors.size());
  for (size_t idx : connectors) ids.push_back(fleet_->at(idx)->id());
  std::vector<Result<std::vector<ssi::QueryPost>>> fetched =
      client_->FetchPostsBatch(ids);
  if (fetched.size() != ids.size()) {
    return Status::Internal("FetchPostsBatch returned " +
                            std::to_string(fetched.size()) + " results for " +
                            std::to_string(ids.size()) + " TDSs");
  }

  std::vector<Serve> serves;
  serves.reserve(connectors.size());
  for (size_t c = 0; c < connectors.size(); ++c) {
    // Step 2: the connecting TDS downloads its pending queries, other
    // sessions' included. A transport failure just means this TDS missed
    // the tick; it can connect again on a later one.
    Result<std::vector<ssi::QueryPost>>& posts = fetched[c];
    if (!posts.ok()) {
      if (IsTransportError(posts.status())) continue;
      return posts.status();
    }
    for (ssi::QueryPost& post : *posts) {
      if (post.query_id != q.id) continue;
      Serve serve;
      serve.server = fleet_->at(connectors[c]);
      serve.post = std::move(post);
      serves.push_back(std::move(serve));
      break;
    }
  }

  // Dynamic key mode: connectors refresh their epoch window in batches
  // (one fetch for all of them), each batch covering every serve that
  // `needs` it. Returns how many refreshed.
  auto refresh_serves = [&](auto needs) {
    std::vector<keys::TdsKeyState*> states;
    for (const Serve& serve : serves) {
      keys::TdsKeyState* state = serve.server->key_state();
      if (state != nullptr && needs(*state, serve)) states.push_back(state);
    }
    (void)keys::TdsKeyState::RefreshAll(states);
    return states.size();
  };
  // A TDS whose window lacks the posting's epoch (the fleet rolled since
  // it last synced) refreshes before it serves. A serve whose TDS still
  // cannot reach the epoch (revoked before the post) is skipped. A static
  // key query has no key state to consult, so its waves skip the scan.
  auto behind = [](const keys::TdsKeyState& state, const Serve& serve) {
    return serve.post.key_posting &&
           !state.Reaches(serve.post.key_posting->epoch);
  };
  if (q.key_posting && refresh_serves(behind) > 0) {
    for (Serve& serve : serves) {
      keys::TdsKeyState* state = serve.server->key_state();
      serve.skipped = state != nullptr && behind(*state, serve);
    }
  }

  TCELLS_RETURN_IF_ERROR(executor_->ForEachIndex(
      serves.size(), [&](size_t i) -> Status {
        Serve& serve = serves[i];
        if (serve.skipped) return Status::OK();
        Rng rng = q.ctx->Stream(RngDomain::kServe, serve.server->id());
        Result<std::vector<EncryptedItem>> items =
            serve.server->ProcessCollection(serve.post, q.config, &rng);
        if (!items.ok() && q.key_posting &&
            (items.status().IsNotFound() ||
             items.status().IsFailedPrecondition())) {
          // The posting's epoch is unreachable for this TDS. It cannot
          // answer; mark the serve so it is acknowledged without an
          // upload (otherwise the collection window never closes).
          serve.skipped = true;
          return Status::OK();
        }
        if (!items.ok()) return std::move(items).status();
        serve.items = std::move(items).ValueOrDie();
        return Status::OK();
      }));

  // Every TDS about to tag an upload refreshes first, so an honest TDS
  // authenticates under the newest epoch it can open. This must stay right
  // before the tags: a rollover during the wave's serving must reach them,
  // or their uploads would be tagged under the old epoch and rejected. From
  // the refresh to the last admission check no rollover can land
  // (KeyAuthority::publication_mutex).
  std::shared_lock<std::shared_mutex> admission;
  if (q.key_posting) {
    admission = std::shared_lock(options_.key_authority->publication_mutex());
    refresh_serves([](const keys::TdsKeyState&, const Serve& serve) {
      return !serve.skipped;
    });
  }

  // One exchange per serve, in serve order. A contribution is uploaded
  // while the items already forwarded are below the SIZE bound; past it, or
  // with nothing to upload, the SSI is only told that the TDS served the
  // query. The uploads ship as one batch in serve order; a transport
  // failure loses that TDS's contribution only. Every exchange the SSI
  // confirms counts as a serve.
  auto acknowledge = [&](uint64_t tds_id) -> Status {
    Status acked = client_->Acknowledge(tds_id, q.id);
    if (acked.ok()) *served += 1;
    if (!acked.ok() && !IsTransportError(acked)) return acked;
    return Status::OK();
  };
  std::vector<net::CollectionUpload> batch;
  for (Serve& serve : serves) {
    const uint64_t tds_id = serve.server->id();
    if (serve.skipped) {
      // Nothing to upload, but the serve must still count as served or
      // the "all eligible TDSs answered" close condition never fires.
      TCELLS_RETURN_IF_ERROR(acknowledge(tds_id));
      continue;
    }
    if (q.key_posting) {
      // Dynamic key mode: admission-check the upload before it counts.
      // The TDS authenticates (query_id, items digest) under its newest
      // reachable epoch's contribution key; the authority rejects stale
      // epochs (a TDS revoked mid-query is pinned to its pre-revocation
      // epoch), revoked ids and bad MACs. A rejected upload is
      // acknowledged and dropped — visible in contributions_rejected,
      // never folded into the result.
      TCELLS_ASSIGN_OR_RETURN(
          keys::ContributionTag tag,
          serve.server->TagContribution(q.id, serve.items));
      Status admitted = options_.key_authority->VerifyContribution(
          tag, q.id, keys::ContributionDigest(serve.items));
      if (admitted.IsPermissionDenied()) {
        metrics.contributions_rejected += 1;
        TCELLS_RETURN_IF_ERROR(acknowledge(tds_id));
        continue;
      }
      TCELLS_RETURN_IF_ERROR(admitted);
    }
    if (SizeReached(q.size_max_tuples, *forwarded)) {
      TCELLS_RETURN_IF_ERROR(acknowledge(tds_id));
      continue;
    }
    *forwarded += serve.items.size();
    net::CollectionUpload upload;
    upload.query_id = q.id;
    upload.tds_id = tds_id;
    upload.items = std::move(serve.items);
    batch.push_back(std::move(upload));
  }
  if (admission.owns_lock()) admission.unlock();
  std::vector<Result<bool>> accepts = client_->UploadCollectionBatch(batch);
  if (accepts.size() != batch.size()) {
    return Status::Internal("UploadCollectionBatch returned " +
                            std::to_string(accepts.size()) + " results for " +
                            std::to_string(batch.size()) + " uploads");
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    Result<bool>& accepted = accepts[i];
    if (!accepted.ok()) {
      if (IsTransportError(accepted.status())) continue;
      return accepted.status();
    }
    const net::CollectionUpload& upload = batch[i];
    if (!*accepted) {
      // An honest SSI stores every upload sent while collection is open:
      // a "rejected" reply is a lie, and trusting it would quietly drop
      // the contribution from the result.
      return Status::Corruption(
          "SSI rejected the collection upload of TDS " +
          std::to_string(upload.tds_id) + " to query " +
          std::to_string(q.id) + " while collection was open");
    }
    *served += 1;
    // The accepted upload is one collection partition of its TDS.
    uint64_t bytes = 0;
    for (const auto& item : upload.items) bytes += item.WireSize();
    metrics.accountant.RecordPartition(sim::Phase::kCollection,
                                       upload.tds_id, /*bytes_in=*/0,
                                       bytes, upload.items.size());
  }
  return Status::OK();
}

Result<RunOutcome> QuerySession::Complete(
    PendingQuery& q, std::chrono::steady_clock::time_point wall_t0) {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled before completion");
  }
  // The collection window is closed: its participants and span are read
  // off the accountant's collection tally.
  RunMetrics& metrics = q.ctx->metrics();
  const sim::PhaseTally& collected =
      metrics.accountant.phase(sim::Phase::kCollection);
  metrics.collection_participants = collected.partitions;
  if (q.trace != nullptr) {
    obs::Span* collection = q.trace->StartSpan(nullptr, obs::kSpanCollection);
    collection->labels["phase"] = sim::PhaseToString(sim::Phase::kCollection);
    collection->counts["ticks"] = metrics.collection_ticks;
    collection->counts["participants"] = collected.partitions;
    collection->counts["partitions"] = collected.partitions;
    collection->counts["bytes_out"] = collected.bytes_uploaded;
    collection->counts["tuples"] = collected.tuples_processed;
  }
  TCELLS_ASSIGN_OR_RETURN(std::vector<EncryptedItem> covering,
                          client_->TakeCollected(q.id));
  TCELLS_ASSIGN_OR_RETURN(
      covering, q.protocol->RunAggregation(*q.ctx, q.analyzed, q.config,
                                           std::move(covering)));
  TCELLS_RETURN_IF_ERROR(client_->ObserveAggregation(q.id, covering));
  TCELLS_ASSIGN_OR_RETURN(
      std::vector<EncryptedItem> result_items,
      RunFilteringPhase(*q.ctx, q.analyzed, q.config, std::move(covering)));

  // Step 13: the TDSs hand the result to the SSI (which records the
  // filtering leakage as it arrives); the querier downloads and decrypts it.
  TCELLS_RETURN_IF_ERROR(client_->DeliverResult(q.id, result_items));
  TCELLS_ASSIGN_OR_RETURN(result_items, client_->FetchResult(q.id));
  RunOutcome outcome;
  const auto decrypt_t0 = std::chrono::steady_clock::now();
  TCELLS_ASSIGN_OR_RETURN(outcome.result,
                          q.reader().DecryptResult(q.analyzed, result_items));
  if (q.trace != nullptr) {
    obs::Span* decrypt = q.trace->StartSpan(nullptr, obs::kSpanDecrypt);
    decrypt->sim_begin_seconds = q.ctx->sim_now_seconds();
    decrypt->sim_end_seconds = q.ctx->sim_now_seconds();
    decrypt->wall_micros = WallMicrosSince(decrypt_t0);
    decrypt->counts["result_rows"] = outcome.result.rows.size();
    uint64_t result_bytes = 0;
    for (const auto& item : result_items) result_bytes += item.WireSize();
    decrypt->counts["bytes_in"] = result_bytes;

    obs::Span* root = q.trace->root();
    root->sim_end_seconds = q.ctx->sim_now_seconds();
    root->wall_micros = WallMicrosSince(wall_t0);
    outcome.trace = q.trace;
  }
  metrics.aggregation_rounds =
      metrics.accountant.phase(sim::Phase::kAggregation).iterations;
  // The query's context is done with its tally: move it, do not copy the
  // per-TDS charges.
  outcome.metrics = std::move(metrics);
  TCELLS_ASSIGN_OR_RETURN(outcome.adversary, client_->GetAdversaryView(q.id));
  if (telemetry_.metrics != nullptr) {
    PublishEngineCounters(outcome.metrics, telemetry_.metrics);
  }
  return outcome;
}

}  // namespace tcells::protocol
