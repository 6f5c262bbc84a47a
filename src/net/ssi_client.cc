#include "net/ssi_client.h"

#include <algorithm>
#include <initializer_list>
#include <utility>

#include "net/frame.h"

namespace tcells::net {

using ssi::EncryptedItem;
using ssi::Partition;
using ssi::QueryPost;

namespace {

using Body = std::span<const uint8_t>;

/// Appends a request's MsgType and u64 fields.
void PutRequest(Bytes* out, MsgType type,
                std::initializer_list<uint64_t> fields) {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(type));
  for (uint64_t field : fields) w.PutU64(field);
}

/// A request that carries an item vector: the MsgType, the u64 fields, then
/// the items, encoded straight into the frame.
void PutItemsRequest(Bytes* out, MsgType type,
                     std::initializer_list<uint64_t> fields,
                     std::span<const EncryptedItem> items) {
  PutRequest(out, type, fields);
  ssi::EncodeItemsTo(items, out);
}

Result<bool> AcceptedFromBody(Body body) {
  TCELLS_ASSIGN_OR_RETURN(uint8_t accepted, ByteReader(body).GetU8());
  return accepted != 0;
}

/// The parse of an item pull: the items adopt the reply frame (a
/// SsiClient::ReplyFrame) as their shared owner.
constexpr auto kItemsOfFrame = [](Body body, auto* reply) {
  return ssi::DecodeItems(reply->Share(), body);
};

}  // namespace

/// The reply frame of one exchange. Reply bodies are views into it. An item
/// pull that keeps its items shares it: Share() moves the bytes behind a
/// shared owner, and a moved vector keeps its buffer, so every view of the
/// frame stays valid.
class SsiClient::ReplyFrame {
 public:
  void Reset(Bytes bytes) {
    shared_.reset();
    bytes_ = std::move(bytes);
  }
  Body bytes() const { return shared_ ? Body(*shared_) : Body(bytes_); }
  std::shared_ptr<const void> Share() {
    if (!shared_) shared_ = std::make_shared<const Bytes>(std::move(bytes_));
    return shared_;
  }

 private:
  Bytes bytes_;
  std::shared_ptr<const Bytes> shared_;
};

namespace {

/// The posts one querybox download has decoded, by encoding. Every TDS of
/// a FetchPostsBatch is sent the same few posts, so each distinct encoding
/// is decoded once, in place in the reply frame it first arrived in, and
/// every TDS gets a copy whose byte fields share that frame. A call sees
/// no more distinct posts than the SSI holds active queries, so a linear
/// scan finds them.
class PostDecoder {
 public:
  /// The posts of one kFetchPosts reply body inside `reply`.
  template <typename Reply>
  Result<std::vector<QueryPost>> Posts(Body body, Reply* reply) {
    ByteReader reader(body);
    // Each post encoding is at least its own 4-byte length prefix.
    TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader.GetCountU32(4));
    std::vector<QueryPost> posts;
    posts.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      TCELLS_ASSIGN_OR_RETURN(uint32_t size, reader.GetU32());
      const Body rest = reader.rest();
      TCELLS_RETURN_IF_ERROR(reader.Skip(size));
      TCELLS_ASSIGN_OR_RETURN(const QueryPost* post,
                              Find(rest.first(size), reply));
      posts.push_back(*post);
    }
    return posts;
  }

 private:
  struct Decoded {
    SharedBytes encoded;
    QueryPost post;
  };

  template <typename Reply>
  Result<const QueryPost*> Find(Body encoded, Reply* reply) {
    for (const Decoded& d : decoded_) {
      if (std::equal(encoded.begin(), encoded.end(), d.encoded.begin(),
                     d.encoded.end())) {
        return &d.post;
      }
    }
    const std::shared_ptr<const void> owner = reply->Share();
    TCELLS_ASSIGN_OR_RETURN(QueryPost post, QueryPost::Decode(owner, encoded));
    decoded_.push_back(Decoded{SharedBytes(owner, encoded), std::move(post)});
    return &decoded_.back().post;
  }

  std::vector<Decoded> decoded_;
};

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

Status SsiClient::ExchangeFrame(Bytes* frame, size_t n,
                                std::unique_ptr<Channel>* channel,
                                ReplyFrame* reply, Envelopes* envelopes) {
  CallOptions opts;
  opts.deadline_seconds = policy_.deadline_seconds;
  double backoff = policy_.backoff_seconds;
  // Every attempt that does not return sets `last` to its error, and there
  // is at least one attempt: no status is built up front only to be dropped.
  Status last;
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
    SetCorrelationIds(frame, first_cid);

    if (metrics_ != nullptr) {
      frames_sent_->Increment();
      calls_sent_->Add(n);
      bytes_sent_->Add(FrameWireSize(frame->size()));
      frame_bytes_->Record(static_cast<double>(frame->size()));
      calls_per_frame_->Record(static_cast<double>(n));
    }
    Result<Bytes> received = (*channel)->Call(*frame, opts);
    if (received.ok()) {
      if (metrics_ != nullptr) {
        frames_received_->Increment();
        bytes_received_->Add(FrameWireSize((*received).size()));
      }
      reply->Reset(std::move(*received));
      Result<BatchFrameReader> replies = BatchFrameReader::Open(reply->bytes());
      if (!replies.ok()) {
        // A reply that is not a well-formed batch frame cannot be matched to
        // anything — fatal for every call in the frame.
        Status error = replies.status();
        if (!error.IsCorruption()) error = Status::Corruption(error.message());
        return error;
      }
      // Match by correlation ID, first reply wins: duplicates and IDs from
      // other attempts (stale replays) are dropped.
      envelopes->assign(n, std::nullopt);
      size_t matched = 0;
      for (uint32_t r = 0; r < replies->count(); ++r) {
        const BatchCall call = replies->Next();
        const bool ours = call.correlation_id >= first_cid &&
                          call.correlation_id < first_cid + n;
        const size_t idx =
            ours ? static_cast<size_t>(call.correlation_id - first_cid) : 0;
        if (!ours || (*envelopes)[idx]) {
          if (metrics_ != nullptr) {
            metrics_->counter("net.stale_replies_dropped").Increment();
          }
          continue;
        }
        (*envelopes)[idx] = call.payload;
        matched += 1;
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
      return Status::OK();
    }
    last = received.status();
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
      return last;  // Not retryable.
    }
  }
  return last;
}

template <typename Encode, typename Decode>
void SsiClient::Run(size_t n, size_t reply_bytes, const Encode& encode,
                    const Decode& decode) {
  size_t max_calls = std::max<size_t>(1, batch_.max_calls_per_frame);
  if (reply_bytes > 0) {
    max_calls = std::clamp<size_t>(kMaxBytesPerFrame / reply_bytes,
                                   1, max_calls);
  }
  Link link;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!links_.empty()) {
      link = std::move(links_.back());
      links_.pop_back();
    }
  }
  Bytes& frame = link.frame;
  ReplyFrame reply;
  size_t i = 0;
  while (i < n) {
    frame.clear();
    BatchFrameWriter writer(&frame);
    size_t j = i;
    size_t bytes = 0;
    while (j < n && j - i < max_calls) {
      writer.Open(0);  // IDs are written per attempt
      encode(j, &frame);
      const size_t size = writer.open_payload_size();
      if (j > i && bytes + size > kMaxBytesPerFrame) {
        // Over the byte budget: the call opens the next frame instead.
        writer.Abandon();
        break;
      }
      writer.Close();
      bytes += size;
      ++j;
    }
    writer.Finish();
    const size_t calls = j - i;
    const size_t inflight = inflight_calls_.fetch_add(calls) + calls;
    if (metrics_ != nullptr) {
      inflight_per_frame_->Record(static_cast<double>(inflight));
    }
    const Status failed = ExchangeFrame(&frame, calls, &link.channel, &reply,
                                        &link.envelopes);
    inflight_calls_.fetch_sub(calls);
    for (size_t k = 0; k < calls; ++k) {
      if (!failed.ok()) {
        decode(i + k, failed, &reply);
      } else if (!link.envelopes[k]) {
        decode(i + k, Status::Corruption("batched call received no reply"),
               &reply);
      } else {
        decode(i + k, DecodeReply(*link.envelopes[k]), &reply);
      }
    }
    i = j;
  }
  if (frame.capacity() > kKeptFrameCapacity) frame = Bytes();
  std::lock_guard<std::mutex> lock(mu_);
  links_.push_back(std::move(link));
}

template <typename Encode>
Status SsiClient::CallStatus(const Encode& encode) {
  Status out;
  Run(
      1, 0, [&](size_t, Bytes* frame) { encode(frame); },
      [&](size_t, const Result<Body>& body, ReplyFrame*) {
        out = body.status();
      });
  return out;
}

template <typename T, typename Encode, typename Parse>
Result<T> SsiClient::CallOne(const Encode& encode, const Parse& parse) {
  std::optional<Result<T>> out;
  Run(
      1, 0, [&](size_t, Bytes* frame) { encode(frame); },
      [&](size_t, const Result<Body>& body, ReplyFrame* reply) {
        if (body.ok()) {
          out.emplace(parse(*body, reply));
        } else {
          out.emplace(body.status());
        }
      });
  return std::move(*out);
}

std::vector<Result<Bytes>> SsiClient::Exchange(
    const std::vector<Bytes>& requests, size_t reply_bytes) {
  std::vector<Result<Bytes>> out;
  out.reserve(requests.size());
  Run(
      requests.size(), reply_bytes,
      [&](size_t i, Bytes* frame) {
        ByteWriter(frame).PutRaw(requests[i].data(), requests[i].size());
      },
      [&](size_t, const Result<Body>& body, ReplyFrame*) {
        if (body.ok()) {
          out.push_back(Bytes(body->begin(), body->end()));
        } else {
          out.push_back(body.status());
        }
      });
  return out;
}

// ---------------------------------------------------------------------------
// Typed surface

Status SsiClient::PostGlobal(const QueryPost& post) {
  return CallStatus([&](Bytes* out) {
    PutRequest(out, MsgType::kPostGlobal, {});
    post.EncodeTo(out);
  });
}

Status SsiClient::PostPersonal(uint64_t tds_id, const QueryPost& post) {
  return CallStatus([&](Bytes* out) {
    PutRequest(out, MsgType::kPostPersonal, {tds_id});
    post.EncodeTo(out);
  });
}

std::vector<Result<std::vector<QueryPost>>> SsiClient::FetchPostsBatch(
    const std::vector<uint64_t>& tds_ids) {
  std::vector<Result<std::vector<QueryPost>>> out;
  out.reserve(tds_ids.size());
  PostDecoder decoder;
  Run(
      tds_ids.size(), 0,
      [&](size_t i, Bytes* frame) {
        PutRequest(frame, MsgType::kFetchPosts, {tds_ids[i]});
      },
      [&](size_t, const Result<Body>& body, ReplyFrame* reply) {
        if (body.ok()) {
          out.push_back(decoder.Posts(*body, reply));
        } else {
          out.push_back(body.status());
        }
      });
  return out;
}

Status SsiClient::PostEpochBlock(const Bytes& block) {
  epoch_block_bytes_ = block.size();
  return CallStatus([&](Bytes* out) {
    PutRequest(out, MsgType::kPostEpochBlock, {});
    ByteWriter(out).PutRaw(block.data(), block.size());
  });
}

Result<Bytes> SsiClient::FetchEpochBlock(uint64_t tds_id) {
  return std::move(FetchEpochBlockBatch({tds_id}, {0}).front());
}

std::vector<Result<Bytes>> SsiClient::FetchEpochBlockBatch(
    const std::vector<uint64_t>& tds_ids,
    const std::vector<uint64_t>& held_tags) {
  std::vector<Result<Bytes>> blocks;
  blocks.reserve(tds_ids.size());
  Run(
      tds_ids.size(), epoch_block_bytes_,
      [&](size_t i, Bytes* frame) {
        PutRequest(frame, MsgType::kFetchEpochBlock,
                   {tds_ids[i], held_tags[i]});
      },
      [&](size_t, const Result<Body>& body, ReplyFrame*) {
        if (body.ok()) {
          blocks.push_back(Bytes(body->begin(), body->end()));
          // An empty "still current" reply says nothing about block size.
          if (!body->empty()) epoch_block_bytes_ = body->size();
        } else {
          blocks.push_back(body.status());
        }
      });
  return blocks;
}

Status SsiClient::Acknowledge(uint64_t tds_id, uint64_t query_id) {
  return CallStatus([&](Bytes* out) {
    PutRequest(out, MsgType::kAcknowledge, {tds_id, query_id});
  });
}

std::vector<Result<bool>> SsiClient::UploadCollectionBatch(
    const std::vector<CollectionUpload>& uploads) {
  // Collection uploads fix the node's storage order, which downstream
  // partitioning consumes, so arrival order must equal submission order.
  // Run ships the uploads frame by frame from this thread (the node applies
  // one frame's calls in order under one mutex hold), so accept bits and
  // SIZE-bound cutoffs land exactly where the serial loop would put them —
  // even when other queries share this client.
  std::vector<Result<bool>> out;
  out.reserve(uploads.size());
  Run(
      uploads.size(), 0,
      [&](size_t i, Bytes* frame) {
        const CollectionUpload& u = uploads[i];
        PutItemsRequest(frame, MsgType::kUploadCollection,
                        {u.query_id, u.tds_id}, u.items);
      },
      [&](size_t, const Result<Body>& body, ReplyFrame*) {
        if (body.ok()) {
          out.push_back(AcceptedFromBody(*body));
        } else {
          out.push_back(body.status());
        }
      });
  return out;
}

Result<std::vector<EncryptedItem>> SsiClient::TakeCollected(
    uint64_t query_id) {
  return CallOne<std::vector<EncryptedItem>>(
      [&](Bytes* out) {
        PutRequest(out, MsgType::kTakeCollected, {query_id});
      },
      kItemsOfFrame);
}

Status SsiClient::StagePartition(uint64_t query_id, uint64_t token,
                                 const Partition& partition) {
  return CallStatus([&](Bytes* out) {
    PutItemsRequest(out, MsgType::kStagePartition, {query_id, token},
                    partition.items);
  });
}

Result<Partition> SsiClient::FetchPartition(uint64_t query_id,
                                            uint64_t token) {
  return CallOne<Partition>(
      [&](Bytes* out) {
        PutRequest(out, MsgType::kFetchPartition, {query_id, token});
      },
      [](Body body, ReplyFrame* reply) -> Result<Partition> {
        Partition partition;
        TCELLS_ASSIGN_OR_RETURN(partition.items, kItemsOfFrame(body, reply));
        return partition;
      });
}

Status SsiClient::UploadRoundOutput(uint64_t query_id, uint64_t token,
                                    const std::vector<EncryptedItem>& items) {
  return CallStatus([&](Bytes* out) {
    PutItemsRequest(out, MsgType::kUploadRoundOutput, {query_id, token},
                    items);
  });
}

Result<std::vector<EncryptedItem>> SsiClient::TakeRoundOutput(
    uint64_t query_id, uint64_t token) {
  return CallOne<std::vector<EncryptedItem>>(
      [&](Bytes* out) {
        PutRequest(out, MsgType::kTakeRoundOutput, {query_id, token});
      },
      kItemsOfFrame);
}

Status SsiClient::ObserveAggregation(
    uint64_t query_id, const std::vector<EncryptedItem>& items) {
  return CallStatus([&](Bytes* out) {
    PutItemsRequest(out, MsgType::kObserveAggregation, {query_id}, items);
  });
}

Status SsiClient::DeliverResult(uint64_t query_id,
                                const std::vector<EncryptedItem>& items) {
  return CallStatus([&](Bytes* out) {
    PutItemsRequest(out, MsgType::kDeliverResult, {query_id}, items);
  });
}

Result<std::vector<EncryptedItem>> SsiClient::FetchResult(uint64_t query_id) {
  return CallOne<std::vector<EncryptedItem>>(
      [&](Bytes* out) { PutRequest(out, MsgType::kFetchResult, {query_id}); },
      kItemsOfFrame);
}

Result<ssi::AdversaryView> SsiClient::GetAdversaryView(uint64_t query_id) {
  return CallOne<ssi::AdversaryView>(
      [&](Bytes* out) {
        PutRequest(out, MsgType::kAdversaryView, {query_id});
      },
      [](Body body, ReplyFrame*) { return ssi::AdversaryView::Decode(body); });
}

Status SsiClient::Retire(uint64_t query_id) {
  return CallStatus(
      [&](Bytes* out) { PutRequest(out, MsgType::kRetire, {query_id}); });
}

}  // namespace tcells::net
