#include "tds/tds.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "crypto/hmac.h"

namespace tcells::tds {

using ssi::PayloadKind;
using storage::Tuple;
using storage::Value;

namespace {

Bytes HashTagBytes(uint64_t h) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU64(h);
  return out;
}

/// Per-thread scratch for the partition hot paths. Everything here is
/// transient within one Process* call: the arena holds decrypted plaintexts
/// (reset at the start of each partition), the Bytes buffers hold encodings
/// in flight, and the tuple is the per-item decode target. Thread-local so
/// the engine's pool threads each warm their own and never contend. Each
/// Process* call runs one ItemsBuilder over `items` and calls no other
/// Process*, so the scratch never backs two live builders.
struct Workspace {
  Arena arena;
  std::vector<std::span<const uint8_t>> plains;
  Bytes payload;         // EncodePayloadTo target
  Bytes body;            // tuple/aggregation encoding in flight
  Bytes items;           // the output item vector being sealed
  storage::Tuple tuple;  // per-item decode target
  storage::Tuple key;    // a true tuple's group key (Det-tag collection)
  Bytes key_bytes;       // its encoding
  Bytes tag;             // its Det tag
  Bytes sql;             // a collection's decrypted query text
};

Workspace& ThreadWorkspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace

TrustedDataServer::TrustedDataServer(
    uint64_t id, std::shared_ptr<const crypto::KeyStore> keys,
    std::shared_ptr<const Authority> authority, AccessPolicy policy,
    TdsOptions options)
    : id_(id),
      keys_(std::move(keys)),
      authority_(std::move(authority)),
      policy_(std::move(policy)),
      options_(options) {}

Result<std::shared_ptr<const crypto::KeyStore>>
TrustedDataServer::KeysForQuery(
    const std::optional<ssi::QueryKeyPosting>& posting,
    QueryCache& cache) const {
  if (!posting) return keys_;
  if (key_state_ == nullptr) {
    return Status::FailedPrecondition(
        "dynamically-keyed query on a TDS without key state");
  }
  return cache.SessionKeys(*key_state_, *posting);
}

Result<keys::ContributionTag> TrustedDataServer::TagContribution(
    uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) {
  if (key_state_ == nullptr) {
    return Status::FailedPrecondition(
        "contribution tagging needs an installed key state");
  }
  return key_state_->Tag(query_id, keys::ContributionDigest(items));
}

Status TrustedDataServer::SealDummy(const crypto::KeyStore& keys,
                                    const sql::AnalyzedQuery& query,
                                    const CollectionConfig& config,
                                    const FakeTemplates* fakes, Rng* rng,
                                    ssi::ItemsBuilder* out) const {
  // Dummy body: an all-NULL tuple of the collection arity, so its size is in
  // family with true tuples even without padding.
  Tuple dummy_tuple(std::vector<Value>(
      query.collection_schema.num_columns(), Value::Null()));
  Bytes payload = ssi::EncodePayload(PayloadKind::kDummyTuple,
                                     dummy_tuple.Encode(),
                                     config.pad_payload_to);
  std::optional<Bytes> tag;
  switch (config.mode) {
    case CollectionMode::kNDet:
      break;
    case CollectionMode::kDetTag:
      // Tag with a random domain key so the dummy blends into a real group.
      tag = fakes->tags[rng->NextBelow(fakes->tags.size())];
      break;
    case CollectionMode::kHistTag: {
      if (!config.histogram || config.histogram->num_buckets() == 0) {
        return Status::FailedPrecondition(
            "histogram collection requires a histogram");
      }
      uint32_t bucket = static_cast<uint32_t>(
          rng->NextBelow(config.histogram->num_buckets()));
      tag = HashTagBytes(crypto::KeyedHash64(
          keys.k2_hash_state(), EquiDepthHistogram::BucketIdBytes(bucket)));
      break;
    }
  }
  out->Seal(keys.k2_ndet(), payload, tag, rng);
  return Status::OK();
}

Result<std::vector<ssi::EncryptedItem>> TrustedDataServer::ProcessCollection(
    const ssi::QueryPost& post, const CollectionConfig& config, Rng* rng) {
  // Resolve the query's KeyStore first: a TDS that cannot reach the
  // posting's epoch (revoked, or its window rolled past it) cannot serve at
  // all, which the session surfaces as a non-participant.
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const crypto::KeyStore> keys_sp,
                          KeysForQuery(post.key_posting, *config.cache));
  const crypto::KeyStore& keys = *keys_sp;
  // Decrypt the query text with k1 (step 3) — the per-query session k1q when
  // the post carries a key posting — into the thread workspace, and analyze
  // it against the local catalog.
  auto& ws = ThreadWorkspace();
  TCELLS_RETURN_IF_ERROR(keys.k1_ndet().Decrypt(
      post.encrypted_query.data(), post.encrypted_query.size(), &ws.sql));
  const std::string_view sql(reinterpret_cast<const char*>(ws.sql.data()),
                             ws.sql.size());
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const sql::AnalyzedQuery> query,
                          config.cache->Analysis(sql, db_.shared_catalog()));
  // Credential + policy checks (step 2). A denied querier still gets a
  // well-formed dummy built from the analyzed shape, never an error.
  const bool granted =
      authority_->Verify(post.querier_id, post.credential_mac) &&
      policy_.CheckQuery(*query, post.querier_id).ok();

  std::vector<Tuple> tuples;
  if (granted) {
    TCELLS_ASSIGN_OR_RETURN(tuples, sql::CollectionTuples(db_, *query));
  }
  // Everything about a fake tuple except its IV is a pure function of the
  // query, the domain value, the padding and k2: the fleet shares one set of
  // fake payloads and Det tags per (query, key set), and a serve only seals.
  std::shared_ptr<const FakeTemplates> fakes;
  if (config.mode == CollectionMode::kDetTag) {
    TCELLS_ASSIGN_OR_RETURN(
        fakes, config.cache->Fakes(query, keys_sp, config.noise.group_domain,
                                   config.pad_payload_to));
  }
  // Every item of the serve is sealed straight into one item vector.
  ssi::ItemsBuilder items(&ws.items);
  if (tuples.empty()) {
    // Empty result or denied: a single dummy (§3.2 step 4'), so the SSI
    // cannot learn the query's selectivity or the policy outcome.
    TCELLS_RETURN_IF_ERROR(
        SealDummy(keys, *query, config, fakes.get(), rng, &items));
    return items.Finish();
  }

  for (const Tuple& tuple : tuples) {
    ws.body.clear();
    tuple.EncodeTo(&ws.body);
    ssi::EncodePayloadTo(PayloadKind::kTrueTuple, ws.body.data(),
                         ws.body.size(), config.pad_payload_to, &ws.payload);
    switch (config.mode) {
      case CollectionMode::kNDet:
        items.Seal(keys.k2_ndet(), ws.payload, std::nullopt, rng);
        break;
      case CollectionMode::kDetTag: {
        // The true tuple's group key and its Det tag, in the workspace.
        const auto first = tuple.values().begin();
        ws.key.mutable_values().assign(
            first, first + std::min(query->key_arity, tuple.size()));
        ws.key_bytes.clear();
        ws.key.EncodeTo(&ws.key_bytes);
        keys.k2_det().Encrypt(ws.key_bytes.data(), ws.key_bytes.size(),
                              &ws.tag);
        items.Seal(keys.k2_ndet(), ws.payload, ws.tag, rng);
        const auto& domain = *config.noise.group_domain;
        // Noise tuples: identified by their payload kind, invisible to SSI.
        auto emit_fake = [&](size_t domain_index) {
          items.Seal(keys.k2_ndet(), fakes->payloads[domain_index],
                     fakes->tags[domain_index], rng);
        };
        if (config.noise.complementary) {
          // C_Noise: one fake per domain value different from the true one —
          // the mixed distribution is flat by construction (§4.3).
          for (size_t d = 0; d < domain.size(); ++d) {
            if (!domain[d].IsSameGroup(ws.key)) emit_fake(d);
          }
        } else {
          // Rnf_Noise: nf random fakes per true tuple.
          for (int k = 0; k < config.noise.nf; ++k) {
            emit_fake(rng->NextBelow(domain.size()));
          }
        }
        break;
      }
      case CollectionMode::kHistTag: {
        if (!config.histogram || config.histogram->num_buckets() == 0) {
          return Status::FailedPrecondition(
              "histogram collection requires a histogram");
        }
        Tuple key(std::vector<Value>(
            tuple.values().begin(),
            tuple.values().begin() + query->key_arity));
        uint32_t bucket = config.histogram->BucketOf(key);
        Bytes tag = HashTagBytes(crypto::KeyedHash64(
            keys.k2_hash_state(), EquiDepthHistogram::BucketIdBytes(bucket)));
        items.Seal(keys.k2_ndet(), ws.payload, tag, rng);
        break;
      }
    }
  }
  return items.Finish();
}

Result<std::vector<ssi::EncryptedItem>>
TrustedDataServer::ProcessAggregationPartition(
    const sql::AnalyzedQuery& query, const ssi::Partition& partition,
    OutputTagPolicy tag_policy, const CollectionConfig& config, Rng* rng) {
  if (!query.is_aggregation) {
    return Status::FailedPrecondition(
        "aggregation partition on a non-aggregation query");
  }
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const crypto::KeyStore> keys_sp,
                          KeysForQuery(config.key_posting, *config.cache));
  const crypto::KeyStore& keys = *keys_sp;
  sql::GroupedAggregation agg(query.agg_specs);
  size_t since_check = 0;
  // Batch-open the whole partition into the thread's arena (zero-copy:
  // plaintexts are arena-backed spans and payload bodies are views into
  // them, never copied out). The arena is reset here, so a warmed thread
  // opens a steady-state partition without allocating.
  auto& ws = ThreadWorkspace();
  ws.arena.Reset();
  TCELLS_RETURN_IF_ERROR(
      ssi::OpenAllInto(keys.k2_ndet(), partition.items, &ws.arena,
                       &ws.plains));
  for (const auto plain : ws.plains) {
    TCELLS_ASSIGN_OR_RETURN(
        ssi::PayloadView payload,
        ssi::DecodePayloadView(plain.data(), plain.size()));
    switch (payload.kind) {
      case PayloadKind::kTrueTuple: {
        TCELLS_RETURN_IF_ERROR(
            Tuple::DecodeInto(payload.body, payload.body_size, &ws.tuple));
        if (leak_log_) leak_log_->RecordRawTuple(id_, ws.tuple);
        TCELLS_RETURN_IF_ERROR(agg.AccumulateTuple(ws.tuple, query.key_arity));
        break;
      }
      case PayloadKind::kDummyTuple:
      case PayloadKind::kFakeTuple:
        break;  // identified characteristics: filtered inside the enclave
      case PayloadKind::kPartialAgg: {
        if (leak_log_) {
          // Compromised-TDS modeling needs the partial's own groups, so pay
          // for the materialized decode on this cold path only.
          TCELLS_ASSIGN_OR_RETURN(
              sql::GroupedAggregation partial,
              sql::GroupedAggregation::Decode(query.agg_specs, payload.body,
                                              payload.body_size));
          for (const auto& [key, states] : partial.groups()) {
            leak_log_->RecordGroupAggregate(id_, key);
          }
          TCELLS_RETURN_IF_ERROR(agg.MergeAll(partial));
        } else {
          TCELLS_RETURN_IF_ERROR(
              agg.MergeEncoded(payload.body, payload.body_size));
        }
        break;
      }
      case PayloadKind::kResultRow:
        return Status::Corruption("result row in aggregation partition");
    }
    if (options_.ram_budget_bytes > 0 && ++since_check >= 64) {
      since_check = 0;
      if (agg.MemoryFootprint() > options_.ram_budget_bytes) {
        return Status::ResourceExhausted(
            "partial aggregate exceeds TDS RAM budget");
      }
    }
  }
  if (options_.ram_budget_bytes > 0 &&
      agg.MemoryFootprint() > options_.ram_budget_bytes) {
    return Status::ResourceExhausted(
        "partial aggregate exceeds TDS RAM budget");
  }

  ssi::ItemsBuilder out(&ws.items);
  switch (tag_policy) {
    case OutputTagPolicy::kNone: {
      ws.body.clear();
      agg.EncodeTo(&ws.body);
      ssi::EncodePayloadTo(PayloadKind::kPartialAgg, ws.body.data(),
                           ws.body.size(), 0, &ws.payload);
      out.Seal(keys.k2_ndet(), ws.payload, std::nullopt, rng);
      break;
    }
    case OutputTagPolicy::kPreserve: {
      if (partition.items.empty() || !partition.items[0].routing_tag()) {
        return Status::FailedPrecondition(
            "preserve-tag output needs a tagged input partition");
      }
      ws.body.clear();
      agg.EncodeTo(&ws.body);
      ssi::EncodePayloadTo(PayloadKind::kPartialAgg, ws.body.data(),
                           ws.body.size(), 0, &ws.payload);
      out.Seal(keys.k2_ndet(), ws.payload, partition.items[0].routing_tag(),
               rng);
      break;
    }
    case OutputTagPolicy::kPerGroupDet: {
      // One sealed single-row aggregation per group, encoded directly —
      // building a throwaway GroupedAggregation per group made this path
      // quadratic-ish in the group count (the ED_Hist groups=32 outlier).
      for (const auto& [key, states] : agg.groups()) {
        ws.body.clear();
        sql::GroupedAggregation::EncodeSingleRowTo(key, states, &ws.body);
        ssi::EncodePayloadTo(PayloadKind::kPartialAgg, ws.body.data(),
                             ws.body.size(), 0, &ws.payload);
        out.Seal(keys.k2_ndet(), ws.payload,
                 keys.k2_det().Encrypt(key.Encode()), rng);
      }
      break;
    }
  }
  return out.Finish();
}

Result<std::vector<ssi::EncryptedItem>> TrustedDataServer::ProcessFiltering(
    const sql::AnalyzedQuery& query, const ssi::Partition& partition,
    const CollectionConfig& config, Rng* rng) {
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const crypto::KeyStore> keys_sp,
                          KeysForQuery(config.key_posting, *config.cache));
  const crypto::KeyStore& keys = *keys_sp;
  auto& ws = ThreadWorkspace();
  ssi::ItemsBuilder out(&ws.items);
  ws.arena.Reset();
  TCELLS_RETURN_IF_ERROR(
      ssi::OpenAllInto(keys.k2_ndet(), partition.items, &ws.arena,
                       &ws.plains));
  if (query.is_aggregation) {
    sql::GroupedAggregation agg(query.agg_specs);
    for (const auto plain : ws.plains) {
      TCELLS_ASSIGN_OR_RETURN(
          ssi::PayloadView payload,
          ssi::DecodePayloadView(plain.data(), plain.size()));
      if (payload.kind == PayloadKind::kDummyTuple ||
          payload.kind == PayloadKind::kFakeTuple) {
        continue;
      }
      if (payload.kind != PayloadKind::kPartialAgg) {
        return Status::Corruption("filtering expected partial aggregations");
      }
      TCELLS_RETURN_IF_ERROR(
          agg.MergeEncoded(payload.body, payload.body_size));
    }
    // Finalize + HAVING + projection happen inside the enclave (step 11).
    if (leak_log_) {
      for (const auto& [key, states] : agg.groups()) {
        leak_log_->RecordGroupAggregate(id_, key);
      }
    }
    TCELLS_ASSIGN_OR_RETURN(sql::QueryResult result,
                            sql::FinalizeAggregation(agg, query));
    for (const Tuple& row : result.rows) {
      ws.body.clear();
      row.EncodeTo(&ws.body);
      ssi::EncodePayloadTo(PayloadKind::kResultRow, ws.body.data(),
                           ws.body.size(), 0, &ws.payload);
      out.Seal(keys.k1_ndet(), ws.payload, std::nullopt, rng);
    }
    return out.Finish();
  }

  // Plain SFW: drop dummies, re-encrypt true tuples under k1 (step 11-12).
  for (const auto plain : ws.plains) {
    TCELLS_ASSIGN_OR_RETURN(
        ssi::PayloadView payload,
        ssi::DecodePayloadView(plain.data(), plain.size()));
    if (payload.kind == PayloadKind::kDummyTuple ||
        payload.kind == PayloadKind::kFakeTuple) {
      continue;
    }
    if (payload.kind != PayloadKind::kTrueTuple) {
      return Status::Corruption("filtering expected collection tuples");
    }
    if (leak_log_) {
      TCELLS_RETURN_IF_ERROR(
          Tuple::DecodeInto(payload.body, payload.body_size, &ws.tuple));
      leak_log_->RecordRawTuple(id_, ws.tuple);
    }
    ssi::EncodePayloadTo(PayloadKind::kResultRow, payload.body,
                         payload.body_size, 0, &ws.payload);
    out.Seal(keys.k1_ndet(), ws.payload, std::nullopt, rng);
  }
  return out.Finish();
}

}  // namespace tcells::tds
