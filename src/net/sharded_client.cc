#include "net/sharded_client.h"

namespace tcells::net {

using ssi::AdversaryView;
using ssi::EncryptedItem;
using ssi::Partition;
using ssi::QueryPost;

namespace {

// splitmix64 finalizer: full-avalanche so sequential TDS ids spread evenly.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void MergeViews(AdversaryView* into, const AdversaryView& from) {
  for (const auto& [tag, count] : from.collection_tag_histogram) {
    into->collection_tag_histogram[tag] += count;
  }
  for (const auto& [tag, count] : from.aggregation_tag_histogram) {
    into->aggregation_tag_histogram[tag] += count;
  }
  into->collection_blob_sizes.insert(into->collection_blob_sizes.end(),
                                     from.collection_blob_sizes.begin(),
                                     from.collection_blob_sizes.end());
  into->collection_items += from.collection_items;
  into->aggregation_items += from.aggregation_items;
  into->filtering_items += from.filtering_items;
}

}  // namespace

size_t ShardedSsiClient::ShardOfTds(uint64_t tds_id) const {
  return static_cast<size_t>(Mix(tds_id) % shards_.size());
}

size_t ShardedSsiClient::HomeShard(uint64_t query_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(query_id);
    if (it != queries_.end()) return it->second.home;
  }
  return static_cast<size_t>(Mix(query_id) % shards_.size());
}

Status ShardedSsiClient::PostGlobal(const QueryPost& post) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status st = shards_[i]->PostGlobal(post);
    if (!st.ok()) {
      // Roll back: earlier shards must not keep a half-posted query alive.
      for (size_t j = 0; j < i; ++j) {
        (void)shards_[j]->Retire(post.query_id);
      }
      return st;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  QueryState& state = queries_[post.query_id];
  state.personal = false;
  state.home = static_cast<size_t>(Mix(post.query_id) % shards_.size());
  return Status::OK();
}

Status ShardedSsiClient::PostPersonal(uint64_t tds_id, const QueryPost& post) {
  size_t shard = ShardOfTds(tds_id);
  TCELLS_RETURN_IF_ERROR(shards_[shard]->PostPersonal(tds_id, post));
  std::lock_guard<std::mutex> lock(mu_);
  QueryState& state = queries_[post.query_id];
  state.personal = true;
  state.home = shard;
  return Status::OK();
}

Result<std::vector<QueryPost>> ShardedSsiClient::FetchPosts(uint64_t tds_id) {
  return shards_[ShardOfTds(tds_id)]->FetchPosts(tds_id);
}

std::vector<Result<std::vector<QueryPost>>> ShardedSsiClient::FetchPostsBatch(
    const std::vector<uint64_t>& tds_ids) {
  return Scatter<std::vector<QueryPost>>(
      tds_ids.size(), [&](size_t i) { return tds_ids[i]; },
      [&](size_t shard, const std::vector<size_t>& slots) {
        std::vector<uint64_t> ids;
        ids.reserve(slots.size());
        for (size_t slot : slots) ids.push_back(tds_ids[slot]);
        return shards_[shard]->FetchPostsBatch(ids);
      });
}

Status ShardedSsiClient::Acknowledge(uint64_t tds_id, uint64_t query_id) {
  return shards_[ShardOfTds(tds_id)]->Acknowledge(tds_id, query_id);
}

Status ShardedSsiClient::PostEpochBlock(const Bytes& block) {
  for (SsiApi* shard : shards_) {
    TCELLS_RETURN_IF_ERROR(shard->PostEpochBlock(block));
  }
  return Status::OK();
}

Result<Bytes> ShardedSsiClient::FetchEpochBlock(uint64_t tds_id) {
  return shards_[ShardOfTds(tds_id)]->FetchEpochBlock(tds_id);
}

Result<bool> ShardedSsiClient::UploadCollection(
    uint64_t query_id, uint64_t tds_id,
    const std::vector<EncryptedItem>& items) {
  return std::move(
      UploadCollectionBatch({CollectionUpload{query_id, tds_id, items}})[0]);
}

std::vector<Result<bool>> ShardedSsiClient::UploadCollectionBatch(
    const std::vector<CollectionUpload>& uploads) {
  // One sub-batch per shard, in per-shard submission order.
  std::vector<Result<bool>> out = Scatter<bool>(
      uploads.size(), [&](size_t i) { return uploads[i].tds_id; },
      [&](size_t shard, const std::vector<size_t>& slots) {
        std::vector<CollectionUpload> batch;
        batch.reserve(slots.size());
        for (size_t slot : slots) batch.push_back(uploads[slot]);
        return shards_[shard]->UploadCollectionBatch(batch);
      });

  // Log every accepted upload in submission order: the serial arrival order
  // TakeCollected re-interleaves the per-shard drains along.
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < uploads.size(); ++i) {
    if (!out[i].ok() || !*out[i]) continue;
    auto it = queries_.find(uploads[i].query_id);
    if (it == queries_.end()) continue;
    it->second.upload_log.emplace_back(ShardOfTds(uploads[i].tds_id),
                                       uploads[i].items.size());
  }
  return out;
}

Result<std::vector<EncryptedItem>> ShardedSsiClient::TakeCollected(
    uint64_t query_id) {
  std::vector<std::pair<size_t, uint64_t>> log;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) {
      return Status::NotFound("no active query for TakeCollected");
    }
    log = it->second.upload_log;
  }
  // Drain every shard that received an accepted upload, then re-interleave
  // the per-shard streams along the serial upload log so the merged vector
  // is byte-for-byte the arrival order a single node would have stored.
  std::map<size_t, std::vector<EncryptedItem>> per_shard;
  for (const auto& [shard, count] : log) {
    (void)count;
    if (!per_shard.count(shard)) {
      TCELLS_ASSIGN_OR_RETURN(per_shard[shard],
                              shards_[shard]->TakeCollected(query_id));
    }
  }
  size_t total = 0;
  for (const auto& [shard, src] : per_shard) total += src.size();
  std::vector<EncryptedItem> merged;
  merged.reserve(total);
  std::map<size_t, size_t> cursor;
  for (const auto& [shard, count] : log) {
    std::vector<EncryptedItem>& src = per_shard[shard];
    size_t& pos = cursor[shard];
    for (uint64_t k = 0; k < count && pos < src.size(); ++k, ++pos) {
      merged.push_back(std::move(src[pos]));
    }
  }
  // Anything beyond the log (a byzantine shard inventing items) is appended
  // in shard order so even hostile worlds stay deterministic.
  for (auto& [shard, src] : per_shard) {
    for (size_t pos = cursor[shard]; pos < src.size(); ++pos) {
      merged.push_back(std::move(src[pos]));
    }
  }
  return merged;
}

Status ShardedSsiClient::StagePartition(uint64_t query_id, uint64_t token,
                                        const Partition& partition) {
  return shards_[HomeShard(query_id)]->StagePartition(query_id, token,
                                                      partition);
}

Result<Partition> ShardedSsiClient::FetchPartition(uint64_t query_id,
                                                   uint64_t token) {
  return shards_[HomeShard(query_id)]->FetchPartition(query_id, token);
}

Status ShardedSsiClient::UploadRoundOutput(
    uint64_t query_id, uint64_t token,
    const std::vector<EncryptedItem>& items) {
  return shards_[HomeShard(query_id)]->UploadRoundOutput(query_id, token,
                                                         items);
}

Result<std::vector<EncryptedItem>> ShardedSsiClient::TakeRoundOutput(
    uint64_t query_id, uint64_t token) {
  return shards_[HomeShard(query_id)]->TakeRoundOutput(query_id, token);
}

Status ShardedSsiClient::ObserveAggregation(
    uint64_t query_id, const std::vector<EncryptedItem>& items) {
  return shards_[HomeShard(query_id)]->ObserveAggregation(query_id, items);
}

Status ShardedSsiClient::DeliverResult(
    uint64_t query_id, const std::vector<EncryptedItem>& items) {
  return shards_[HomeShard(query_id)]->DeliverResult(query_id, items);
}

Result<std::vector<EncryptedItem>> ShardedSsiClient::FetchResult(
    uint64_t query_id) {
  return shards_[HomeShard(query_id)]->FetchResult(query_id);
}

Result<AdversaryView> ShardedSsiClient::GetAdversaryView(uint64_t query_id) {
  bool personal;
  size_t home;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) {
      return Status::NotFound("no active query for GetAdversaryView");
    }
    personal = it->second.personal;
    home = it->second.home;
  }
  if (personal) return shards_[home]->GetAdversaryView(query_id);
  AdversaryView merged;
  for (SsiApi* shard : shards_) {
    TCELLS_ASSIGN_OR_RETURN(AdversaryView view,
                            shard->GetAdversaryView(query_id));
    MergeViews(&merged, view);
  }
  return merged;
}

Status ShardedSsiClient::Retire(uint64_t query_id) {
  bool personal = false;
  size_t home = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = queries_.find(query_id);
    if (it == queries_.end()) {
      return Status::NotFound("no active query for Retire");
    }
    personal = it->second.personal;
    home = it->second.home;
    queries_.erase(it);
  }
  // Retire wherever the query was posted: its home shard holds all of its
  // round transfer state too.
  if (personal) return shards_[home]->Retire(query_id);
  Status first_error = Status::OK();
  for (SsiApi* shard : shards_) {
    Status st = shard->Retire(query_id);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

}  // namespace tcells::net
