#include "tds/tds.h"

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
    const std::optional<ssi::QueryKeyPosting>& posting) const {
  if (!posting) return keys_;
  if (key_state_ == nullptr) {
    return Status::FailedPrecondition(
        "dynamically-keyed query on a TDS without key state");
  }
  return key_state_->KeysFor(*posting);
}

Result<keys::ContributionTag> TrustedDataServer::TagContribution(
    uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) {
  if (key_state_ == nullptr) {
    return Status::FailedPrecondition(
        "contribution tagging needs an installed key state");
  }
  return key_state_->Tag(query_id, keys::ContributionDigest(items));
}

Bytes TrustedDataServer::GroupKeyTagBytes(const crypto::KeyStore& keys,
                                          const Tuple& collection_tuple,
                                          size_t key_arity) const {
  Tuple key(std::vector<Value>(collection_tuple.values().begin(),
                               collection_tuple.values().begin() +
                                   std::min(key_arity,
                                            collection_tuple.size())));
  return keys.k2_det().Encrypt(key.Encode());
}

Status TrustedDataServer::SealDummy(const crypto::KeyStore& keys,
                                    const sql::AnalyzedQuery& query,
                                    const CollectionConfig& config, Rng* rng,
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
    case CollectionMode::kDetTag: {
      // Tag with a random domain key so the dummy blends into a real group.
      if (!config.noise.group_domain || config.noise.group_domain->empty()) {
        return Status::FailedPrecondition(
            "Det-tag collection requires a group domain");
      }
      const auto& domain = *config.noise.group_domain;
      const Tuple& key = domain[rng->NextBelow(domain.size())];
      tag = keys.k2_det().Encrypt(key.Encode());
      break;
    }
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
                          KeysForQuery(post.key_posting));
  const crypto::KeyStore& keys = *keys_sp;
  // Decrypt the query text with k1 (step 3) — the per-query session k1q when
  // the post carries a key posting — and analyze it against the local
  // catalog.
  TCELLS_ASSIGN_OR_RETURN(Bytes sql_bytes,
                          keys.k1_ndet().Decrypt(post.encrypted_query));
  const std::string_view sql(reinterpret_cast<const char*>(sql_bytes.data()),
                             sql_bytes.size());
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const sql::AnalyzedQuery> query,
                          sql::AnalyzeSqlShared(sql, db_.shared_catalog()));
  // Credential + policy checks (step 2). A denied querier still gets a
  // well-formed dummy built from the analyzed shape, never an error.
  const bool granted =
      authority_->Verify(post.querier_id, post.credential_mac) &&
      policy_.CheckQuery(*query, post.querier_id).ok();

  std::vector<Tuple> tuples;
  if (granted) {
    TCELLS_ASSIGN_OR_RETURN(tuples, sql::CollectionTuples(db_, *query));
  }
  // Every item of the serve is sealed straight into one item vector.
  auto& ws = ThreadWorkspace();
  ssi::ItemsBuilder items(&ws.items);
  if (tuples.empty()) {
    // Empty result or denied: a single dummy (§3.2 step 4'), so the SSI
    // cannot learn the query's selectivity or the policy outcome.
    TCELLS_RETURN_IF_ERROR(SealDummy(keys, *query, config, rng, &items));
    return items.Finish();
  }

  // Everything about a fake tuple except its IV is a pure function of the
  // domain value, so the fake payloads and Det tags are computed once per
  // call instead of once per (true tuple, fake) pair — under C_Noise that is
  // the difference between O(n) and O(n * |domain|) encode/Det-encrypt work.
  std::vector<Bytes> fake_payloads;
  std::vector<Bytes> fake_tags;
  if (config.mode == CollectionMode::kDetTag) {
    if (!config.noise.group_domain || config.noise.group_domain->empty()) {
      return Status::FailedPrecondition(
          "Det-tag collection requires a group domain");
    }
    const auto& domain = *config.noise.group_domain;
    fake_payloads.reserve(domain.size());
    fake_tags.reserve(domain.size());
    for (const Tuple& fake_key : domain) {
      Tuple fake = fake_key;
      for (size_t i = query->key_arity;
           i < query->collection_schema.num_columns(); ++i) {
        fake.Append(Value::Null());
      }
      fake_payloads.push_back(ssi::EncodePayload(
          PayloadKind::kFakeTuple, fake.Encode(), config.pad_payload_to));
      fake_tags.push_back(keys.k2_det().Encrypt(fake_key.Encode()));
    }
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
        items.Seal(keys.k2_ndet(), ws.payload,
                   GroupKeyTagBytes(keys, tuple, query->key_arity), rng);
        const auto& domain = *config.noise.group_domain;
        Tuple true_key(std::vector<Value>(
            tuple.values().begin(),
            tuple.values().begin() + query->key_arity));
        // Noise tuples: identified by their payload kind, invisible to SSI.
        auto emit_fake = [&](size_t domain_index) {
          items.Seal(keys.k2_ndet(), fake_payloads[domain_index],
                     fake_tags[domain_index], rng);
        };
        if (config.noise.complementary) {
          // C_Noise: one fake per domain value different from the true one —
          // the mixed distribution is flat by construction (§4.3).
          for (size_t d = 0; d < domain.size(); ++d) {
            if (!domain[d].IsSameGroup(true_key)) emit_fake(d);
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
                          KeysForQuery(config.key_posting));
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
        if (options_.leak_log) options_.leak_log->RecordRawTuple(id_, ws.tuple);
        TCELLS_RETURN_IF_ERROR(agg.AccumulateTuple(ws.tuple, query.key_arity));
        break;
      }
      case PayloadKind::kDummyTuple:
      case PayloadKind::kFakeTuple:
        break;  // identified characteristics: filtered inside the enclave
      case PayloadKind::kPartialAgg: {
        if (options_.leak_log) {
          // Compromised-TDS modeling needs the partial's own groups, so pay
          // for the materialized decode on this cold path only.
          TCELLS_ASSIGN_OR_RETURN(
              sql::GroupedAggregation partial,
              sql::GroupedAggregation::Decode(query.agg_specs, payload.body,
                                              payload.body_size));
          for (const auto& [key, states] : partial.groups()) {
            options_.leak_log->RecordGroupAggregate(id_, key);
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
    Rng* rng, const CollectionConfig& config) {
  TCELLS_ASSIGN_OR_RETURN(std::shared_ptr<const crypto::KeyStore> keys_sp,
                          KeysForQuery(config.key_posting));
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
    if (options_.leak_log) {
      for (const auto& [key, states] : agg.groups()) {
        options_.leak_log->RecordGroupAggregate(id_, key);
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
    if (options_.leak_log) {
      TCELLS_RETURN_IF_ERROR(
          Tuple::DecodeInto(payload.body, payload.body_size, &ws.tuple));
      options_.leak_log->RecordRawTuple(id_, ws.tuple);
    }
    ssi::EncodePayloadTo(PayloadKind::kResultRow, payload.body,
                         payload.body_size, 0, &ws.payload);
    out.Seal(keys.k1_ndet(), ws.payload, std::nullopt, rng);
  }
  return out.Finish();
}

}  // namespace tcells::tds
