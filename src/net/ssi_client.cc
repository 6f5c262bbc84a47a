#include "net/ssi_client.h"

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>

#include "net/frame.h"
#include "net/ssi_wire.h"

namespace tcells::net {

using ssi::EncryptedItem;
using ssi::Partition;
using ssi::QueryPost;

namespace {

void BeginRequest(Bytes* out, MsgType type) {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(type));
}

/// A request that carries an item vector: the MsgType, the u64 fields, then
/// the items encoded straight into the one buffer, sized once.
Bytes ItemsRequest(MsgType type, std::initializer_list<uint64_t> fields,
                   std::span<const EncryptedItem> items) {
  Bytes req;
  req.reserve(1 + 8 * fields.size() + ssi::EncodedItemsSize(items));
  BeginRequest(&req, type);
  ByteWriter w(&req);
  for (uint64_t field : fields) w.PutU64(field);
  ssi::EncodeItemsTo(items, &req);
  return req;
}

Result<std::vector<QueryPost>> PostsFromBody(const Bytes& body) {
  ByteReader reader(body);
  // Each post encoding is at least its own 4-byte length prefix.
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader.GetCountU32(4));
  std::vector<QueryPost> posts;
  posts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Bytes encoded, reader.GetBytes());
    TCELLS_ASSIGN_OR_RETURN(QueryPost post, QueryPost::Decode(encoded));
    posts.push_back(std::move(post));
  }
  return posts;
}

Result<bool> AcceptedFromBody(const Bytes& body) {
  TCELLS_ASSIGN_OR_RETURN(uint8_t accepted, ByteReader(body).GetU8());
  return accepted != 0;
}

}  // namespace

SsiClient::SsiClient(Transport* transport, RetryPolicy policy,
                     obs::MetricsRegistry* metrics, BatchOptions batch)
    : transport_(transport),
      policy_(policy),
      batch_(batch),
      metrics_(metrics) {
  if (metrics_ == nullptr) return;
  frames_sent_ = &metrics_->counter("net.frames_sent");
  calls_sent_ = &metrics_->counter("net.calls_sent");
  bytes_sent_ = &metrics_->counter("net.bytes_sent");
  frames_received_ = &metrics_->counter("net.frames_received");
  bytes_received_ = &metrics_->counter("net.bytes_received");
  frame_bytes_ = &metrics_->histogram("net.frame_bytes",
                                      obs::Histogram::DefaultSizeBounds());
  calls_per_frame_ = &metrics_->histogram(
      "net.calls_per_frame", obs::Histogram::ExponentialBounds(1, 2, 12));
  inflight_per_frame_ = &metrics_->histogram(
      "net.inflight_calls", obs::Histogram::ExponentialBounds(1, 2, 12));
}

// ---------------------------------------------------------------------------
// The exchange path

std::vector<Result<Bytes>> SsiClient::ExchangeFrame(
    std::vector<BatchCall> calls, std::unique_ptr<Channel>* channel) {
  const size_t n = calls.size();
  CallOptions opts;
  opts.deadline_seconds = policy_.deadline_seconds;
  double backoff = policy_.backoff_seconds;
  Status last = Status::Unavailable("no attempt made");
  size_t max_attempts = std::max<size_t>(1, policy_.max_attempts);
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      if (backoff > 0) {
        Clock* clock = policy_.clock != nullptr ? policy_.clock : Clock::Real();
        clock->SleepFor(backoff);
      }
      backoff = std::min(backoff * 2, policy_.backoff_cap_seconds);
      if (metrics_ != nullptr) metrics_->counter("net.retries").Increment();
    }
    if (*channel == nullptr) {
      Result<std::unique_ptr<Channel>> dialed = transport_->Connect();
      if (!dialed.ok()) {
        last = dialed.status();
        continue;
      }
      *channel = std::move(dialed).ValueOrDie();
    }

    // Retries re-correlate: every attempt carries fresh IDs, so a stale
    // reply to an abandoned attempt can never be mistaken for this one's.
    const uint64_t first_cid =
        next_correlation_.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) calls[i].correlation_id = first_cid + i;
    const Bytes wire = EncodeBatchFrame(calls);

    if (metrics_ != nullptr) {
      frames_sent_->Increment();
      calls_sent_->Add(n);
      bytes_sent_->Add(FrameWireSize(wire.size()));
      frame_bytes_->Record(static_cast<double>(wire.size()));
      calls_per_frame_->Record(static_cast<double>(n));
    }
    Result<Bytes> reply = (*channel)->Call(wire, opts);
    if (reply.ok()) {
      if (metrics_ != nullptr) {
        frames_received_->Increment();
        bytes_received_->Add(FrameWireSize((*reply).size()));
      }
      Result<std::vector<BatchCall>> decoded = DecodeBatchFrame(*reply);
      if (!decoded.ok()) {
        // A reply that is not a well-formed batch frame cannot be matched to
        // anything — fatal for every call in the frame.
        Status error = decoded.status();
        if (!error.IsCorruption()) error = Status::Corruption(error.message());
        return std::vector<Result<Bytes>>(n, error);
      }
      // Match by correlation ID, first reply wins: duplicates and IDs from
      // other attempts (stale replays) are dropped.
      std::vector<Result<Bytes>> out(
          n, Status::Corruption("batched call received no reply"));
      std::vector<bool> filled(n, false);
      size_t matched = 0;
      for (BatchCall& call : *decoded) {
        const bool ours = call.correlation_id >= first_cid &&
                          call.correlation_id < first_cid + n;
        const size_t idx =
            ours ? static_cast<size_t>(call.correlation_id - first_cid) : 0;
        if (!ours || filled[idx]) {
          if (metrics_ != nullptr) {
            metrics_->counter("net.stale_replies_dropped").Increment();
          }
          continue;
        }
        filled[idx] = true;
        matched += 1;
        out[idx] = std::move(call.payload);
      }
      if (matched == 0) {
        // Not one reply correlates with this attempt: the whole frame is a
        // stale replay (or the peer answered someone else). The exchange is
        // retryable — the server may or may not have processed the requests,
        // exactly the ambiguity the idempotent RPC semantics absorb.
        last = Status::Unavailable("batch reply carried no matching IDs");
        channel->reset();
        continue;
      }
      return out;
    }
    last = reply.status();
    if (last.IsDeadlineExceeded() && metrics_ != nullptr) {
      metrics_->counter("net.deadline_hits").Increment();
    }
    if (last.IsUnavailable() || last.IsDeadlineExceeded()) {
      // The connection is suspect; re-dial on the next attempt. A deadline
      // expiry in particular abandons a call whose reply may still be in
      // flight — reusing the channel would let the next exchange consume
      // that stale reply and silently decode another call's envelope.
      channel->reset();
    } else {
      return std::vector<Result<Bytes>>(n, last);  // Not retryable.
    }
  }
  return std::vector<Result<Bytes>>(n, last);
}

std::vector<Result<Bytes>> SsiClient::Exchange(std::vector<Bytes> requests,
                                               size_t reply_bytes) {
  std::vector<Result<Bytes>> out;
  out.reserve(requests.size());
  size_t max_calls = std::max<size_t>(1, batch_.max_calls_per_frame);
  if (reply_bytes > 0) {
    max_calls = std::clamp<size_t>(batch_.max_bytes_per_frame / reply_bytes,
                                   1, max_calls);
  }
  std::unique_ptr<Channel> channel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!channels_.empty()) {
      channel = std::move(channels_.back());
      channels_.pop_back();
    }
  }
  size_t i = 0;
  while (i < requests.size()) {
    size_t j = i + 1;
    size_t bytes = requests[i].size();
    while (j < requests.size() && j - i < max_calls &&
           bytes + requests[j].size() <= batch_.max_bytes_per_frame) {
      bytes += requests[j].size();
      ++j;
    }
    std::vector<BatchCall> calls;
    calls.reserve(j - i);
    for (size_t k = i; k < j; ++k) {
      calls.push_back(BatchCall{0, std::move(requests[k])});
    }
    const size_t inflight = inflight_calls_.fetch_add(j - i) + (j - i);
    if (metrics_ != nullptr) {
      inflight_per_frame_->Record(static_cast<double>(inflight));
    }
    std::vector<Result<Bytes>> replies =
        ExchangeFrame(std::move(calls), &channel);
    inflight_calls_.fetch_sub(j - i);
    for (Result<Bytes>& envelope : replies) {
      if (!envelope.ok()) {
        out.push_back(envelope.status());
      } else {
        out.push_back(DecodeReply(std::move(*envelope)));
      }
    }
    i = j;
  }
  if (channel != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    channels_.push_back(std::move(channel));
  }
  return out;
}

Result<Bytes> SsiClient::Call(Bytes request) {
  std::vector<Bytes> requests;
  requests.push_back(std::move(request));
  return std::move(Exchange(std::move(requests)).front());
}

// ---------------------------------------------------------------------------
// Typed surface

Status SsiClient::PostGlobal(const QueryPost& post) {
  Bytes req;
  BeginRequest(&req, MsgType::kPostGlobal);
  Bytes encoded = post.Encode();
  ByteWriter(&req).PutRaw(encoded.data(), encoded.size());
  return Call(std::move(req)).status();
}

Status SsiClient::PostPersonal(uint64_t tds_id, const QueryPost& post) {
  Bytes req;
  BeginRequest(&req, MsgType::kPostPersonal);
  ByteWriter w(&req);
  w.PutU64(tds_id);
  Bytes encoded = post.Encode();
  w.PutRaw(encoded.data(), encoded.size());
  return Call(std::move(req)).status();
}

Result<std::vector<QueryPost>> SsiClient::FetchPosts(uint64_t tds_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kFetchPosts);
  ByteWriter(&req).PutU64(tds_id);
  TCELLS_ASSIGN_OR_RETURN(Bytes body, Call(std::move(req)));
  return PostsFromBody(body);
}

std::vector<Result<std::vector<QueryPost>>> SsiClient::FetchPostsBatch(
    const std::vector<uint64_t>& tds_ids) {
  std::vector<Bytes> requests;
  requests.reserve(tds_ids.size());
  for (uint64_t tds_id : tds_ids) {
    Bytes req;
    BeginRequest(&req, MsgType::kFetchPosts);
    ByteWriter(&req).PutU64(tds_id);
    requests.push_back(std::move(req));
  }
  std::vector<Result<Bytes>> bodies = Exchange(std::move(requests));
  std::vector<Result<std::vector<QueryPost>>> out;
  out.reserve(bodies.size());
  for (Result<Bytes>& body : bodies) {
    if (!body.ok()) {
      out.push_back(body.status());
      continue;
    }
    out.push_back(PostsFromBody(*body));
  }
  return out;
}

Status SsiClient::PostEpochBlock(const Bytes& block) {
  Bytes req;
  BeginRequest(&req, MsgType::kPostEpochBlock);
  ByteWriter(&req).PutRaw(block.data(), block.size());
  epoch_block_bytes_ = block.size();
  return Call(std::move(req)).status();
}

namespace {

Bytes EncodeFetchEpochBlock(uint64_t tds_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kFetchEpochBlock);
  ByteWriter(&req).PutU64(tds_id);
  return req;
}

}  // namespace

Result<Bytes> SsiClient::FetchEpochBlock(uint64_t tds_id) {
  Result<Bytes> block = Call(EncodeFetchEpochBlock(tds_id));
  if (block.ok()) epoch_block_bytes_ = block->size();
  return block;
}

std::vector<Result<Bytes>> SsiClient::FetchEpochBlockBatch(
    const std::vector<uint64_t>& tds_ids) {
  std::vector<Bytes> requests;
  requests.reserve(tds_ids.size());
  for (uint64_t tds_id : tds_ids) {
    requests.push_back(EncodeFetchEpochBlock(tds_id));
  }
  std::vector<Result<Bytes>> blocks =
      Exchange(std::move(requests), epoch_block_bytes_);
  for (const Result<Bytes>& block : blocks) {
    if (block.ok()) epoch_block_bytes_ = block->size();
  }
  return blocks;
}

Status SsiClient::Acknowledge(uint64_t tds_id, uint64_t query_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kAcknowledge);
  ByteWriter w(&req);
  w.PutU64(tds_id);
  w.PutU64(query_id);
  return Call(std::move(req)).status();
}

Result<bool> SsiClient::UploadCollection(
    uint64_t query_id, uint64_t tds_id,
    const std::vector<EncryptedItem>& items) {
  TCELLS_ASSIGN_OR_RETURN(
      Bytes body, Call(ItemsRequest(MsgType::kUploadCollection,
                                    {query_id, tds_id}, items)));
  return AcceptedFromBody(body);
}

std::vector<Result<bool>> SsiClient::UploadCollectionBatch(
    const std::vector<CollectionUpload>& uploads) {
  // Collection uploads fix the node's storage order, which downstream
  // partitioning consumes, so arrival order must equal submission order.
  // Exchange ships the uploads frame by frame from this thread (the node
  // applies one frame's calls in order under one mutex hold), so accept bits
  // and SIZE-bound cutoffs land exactly where the serial loop would put them
  // — even when other queries share this client.
  std::vector<Bytes> requests;
  requests.reserve(uploads.size());
  for (const CollectionUpload& u : uploads) {
    requests.push_back(ItemsRequest(MsgType::kUploadCollection,
                                    {u.query_id, u.tds_id}, u.items));
  }
  std::vector<Result<Bytes>> bodies = Exchange(std::move(requests));
  std::vector<Result<bool>> out;
  out.reserve(bodies.size());
  for (Result<Bytes>& body : bodies) {
    if (!body.ok()) {
      out.push_back(body.status());
      continue;
    }
    out.push_back(AcceptedFromBody(*body));
  }
  return out;
}

Result<std::vector<EncryptedItem>> SsiClient::TakeCollected(
    uint64_t query_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kTakeCollected);
  ByteWriter(&req).PutU64(query_id);
  TCELLS_ASSIGN_OR_RETURN(Bytes body, Call(std::move(req)));
  return ssi::DecodeItems(std::move(body));
}

Status SsiClient::StagePartition(uint64_t query_id, uint64_t token,
                                 const Partition& partition) {
  return Call(ItemsRequest(MsgType::kStagePartition, {query_id, token},
                           partition.items))
      .status();
}

Result<Partition> SsiClient::FetchPartition(uint64_t query_id,
                                            uint64_t token) {
  Bytes req;
  BeginRequest(&req, MsgType::kFetchPartition);
  ByteWriter w(&req);
  w.PutU64(query_id);
  w.PutU64(token);
  TCELLS_ASSIGN_OR_RETURN(Bytes body, Call(std::move(req)));
  Partition partition;
  TCELLS_ASSIGN_OR_RETURN(partition.items, ssi::DecodeItems(std::move(body)));
  return partition;
}

Status SsiClient::UploadRoundOutput(uint64_t query_id, uint64_t token,
                                    const std::vector<EncryptedItem>& items) {
  return Call(ItemsRequest(MsgType::kUploadRoundOutput, {query_id, token},
                           items))
      .status();
}

Result<std::vector<EncryptedItem>> SsiClient::TakeRoundOutput(
    uint64_t query_id, uint64_t token) {
  Bytes req;
  BeginRequest(&req, MsgType::kTakeRoundOutput);
  ByteWriter w(&req);
  w.PutU64(query_id);
  w.PutU64(token);
  TCELLS_ASSIGN_OR_RETURN(Bytes body, Call(std::move(req)));
  return ssi::DecodeItems(std::move(body));
}

Status SsiClient::ObserveAggregation(
    uint64_t query_id, const std::vector<EncryptedItem>& items) {
  return Call(ItemsRequest(MsgType::kObserveAggregation, {query_id}, items))
      .status();
}

Status SsiClient::DeliverResult(uint64_t query_id,
                                const std::vector<EncryptedItem>& items) {
  return Call(ItemsRequest(MsgType::kDeliverResult, {query_id}, items))
      .status();
}

Result<std::vector<EncryptedItem>> SsiClient::FetchResult(uint64_t query_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kFetchResult);
  ByteWriter(&req).PutU64(query_id);
  TCELLS_ASSIGN_OR_RETURN(Bytes body, Call(std::move(req)));
  return ssi::DecodeItems(std::move(body));
}

Result<ssi::AdversaryView> SsiClient::GetAdversaryView(uint64_t query_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kAdversaryView);
  ByteWriter(&req).PutU64(query_id);
  TCELLS_ASSIGN_OR_RETURN(Bytes body, Call(std::move(req)));
  return ssi::AdversaryView::Decode(body);
}

Status SsiClient::Retire(uint64_t query_id) {
  Bytes req;
  BeginRequest(&req, MsgType::kRetire);
  ByteWriter(&req).PutU64(query_id);
  return Call(std::move(req)).status();
}

}  // namespace tcells::net
