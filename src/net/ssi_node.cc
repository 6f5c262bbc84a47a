#include "net/ssi_node.h"

#include <algorithm>
#include <bit>
#include <span>
#include <string>
#include <utility>

#include "net/ssi_wire.h"

namespace tcells::net {

using ssi::QueryPost;

namespace {

/// The rest of a call: an item-vector encoding ssi::ScanItems accepted, as a
/// view into the request frame, and its item count.
struct ItemsBody {
  std::span<const uint8_t> encoding;
  uint32_t count = 0;

  /// The concatenated item encodings, without the u32 count in front.
  std::span<const uint8_t> items() const { return encoding.subspan(4); }
  Bytes ToBytes() const { return Bytes(encoding.begin(), encoding.end()); }
};

/// The least Handle reserves for a reply frame, the first of its type
/// included: the frame header and a few envelopes fit, and a body beyond
/// them grows the frame once, to its size.
constexpr size_t kMinReplyReserve = 64;

Result<ItemsBody> ScanItemsBody(ByteReader* reader) {
  ItemsBody body;
  body.encoding = reader->rest();
  TCELLS_ASSIGN_OR_RETURN(body.count, ssi::ScanItems(reader));
  return body;
}

/// Appends the OK envelope of an item vector stored as its count and the
/// concatenated item encodings.
void AppendItemsReply(Bytes* reply, uint32_t count, const Bytes& items) {
  ByteWriter w(reply);
  w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
  w.PutU32(count);
  w.PutRaw(items.data(), items.size());
}

/// Appends an OK envelope with an empty body.
Status ReplyOk(Bytes* reply) {
  AppendReplyOk(reply, {});
  return Status::OK();
}

Status NoActiveQuery(uint64_t query_id) {
  return Status::NotFound("no active query " + std::to_string(query_id));
}

}  // namespace

SsiNode::ServedTable::Serve& SsiNode::ServedTable::Insert(uint64_t tds_id) {
  if (4 * (size_ + 1) > 3 * states_.size()) Grow();
  size_t i = Home(tds_id);
  while (states_[i] != Serve::kNone && ids_[i] != tds_id) i = (i + 1) & mask_;
  if (states_[i] == Serve::kNone) {
    ids_[i] = tds_id;
    states_[i] = Serve::kAcknowledged;
    size_ += 1;
  }
  return states_[i];
}

void SsiNode::ServedTable::Grow() {
  std::vector<uint64_t> ids = std::move(ids_);
  std::vector<Serve> states = std::move(states_);
  const size_t capacity = std::max<size_t>(16, 2 * states.size());
  ids_.assign(capacity, 0);
  states_.assign(capacity, Serve::kNone);
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (size_t j = 0; j < states.size(); ++j) {
    if (states[j] == Serve::kNone) continue;
    size_t i = Home(ids[j]);
    while (states_[i] != Serve::kNone) i = (i + 1) & mask_;
    ids_[i] = ids[j];
    states_[i] = states[j];
  }
}

size_t SsiNode::num_active_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.size();
}

SsiNode::SsiNode(CallFilter filter) : filter_(std::move(filter)) {}

Result<Bytes> SsiNode::Handle(const Bytes& request) {
  // Every request frame is a batch envelope; anything else — a bare
  // single-call frame included — fails to decode as Corruption, before any
  // call is dispatched.
  TCELLS_ASSIGN_OR_RETURN(BatchFrameReader calls,
                          BatchFrameReader::Open(request));
  const CallHandler honest = [this](std::span<const uint8_t> call,
                                    Bytes* reply) {
    return HandleCall(call, reply);
  };
  Bytes reply;
  std::lock_guard<std::mutex> lock(mu_);
  BatchCall call = calls.Next();
  // The frames a client sends of one message type carry like-sized replies
  // (a querybox post per TDS, an epoch block per TDS, a partition), so the
  // last reply frame led by the same type sizes this one.
  uint32_t& size_hint =
      reply_size_hint_[call.payload.empty() ? 0 : call.payload[0]];
  reply.reserve(std::max<size_t>(size_hint, kMinReplyReserve));
  BatchFrameWriter writer(&reply);
  for (uint32_t i = 0; i < calls.count(); ++i) {
    if (i > 0) call = calls.Next();
    writer.Open(call.correlation_id);
    TCELLS_RETURN_IF_ERROR(filter_ ? filter_(call.payload, honest, &reply)
                                   : HandleCall(call.payload, &reply));
    writer.Close();
  }
  writer.Finish();
  size_hint = static_cast<uint32_t>(reply.size());
  return reply;
}

Status SsiNode::HandleCall(std::span<const uint8_t> call, Bytes* reply) {
  const size_t start = reply->size();
  Status status = Dispatch(call, reply);
  if (status.ok()) return status;
  if (status.IsCorruption()) {
    // Undecodable call: surface to the transport, which drops the
    // connection (the stream cannot be trusted further).
    return status;
  }
  // The error envelope replaces whatever the call wrote.
  reply->resize(start);
  AppendReplyError(reply, status);
  return Status::OK();
}

Status SsiNode::Post(std::span<const uint8_t> raw,
                     std::optional<uint64_t> personal_tds) {
  TCELLS_ASSIGN_OR_RETURN(QueryPost post, QueryPost::Decode(raw));
  Query query;
  query.post = Query::Post{post.Encode(), personal_tds};
  if (!queries_.try_emplace(post.query_id, std::move(query)).second) {
    return Status::InvalidArgument("duplicate query id: " +
                                   std::to_string(post.query_id));
  }
  return Status::OK();
}

Result<SsiNode::Query*> SsiNode::Posted(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return NoActiveQuery(query_id);
  return &it->second;
}

Status SsiNode::Dispatch(std::span<const uint8_t> call, Bytes* reply) {
  ByteReader reader(call);
  TCELLS_ASSIGN_OR_RETURN(uint8_t type_byte, reader.GetU8());
  switch (static_cast<MsgType>(type_byte)) {
    case MsgType::kPostGlobal: {
      TCELLS_RETURN_IF_ERROR(Post(reader.rest(), std::nullopt));
      return ReplyOk(reply);
    }
    case MsgType::kPostPersonal: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_RETURN_IF_ERROR(Post(reader.rest(), tds_id));
      return ReplyOk(reply);
    }
    case MsgType::kFetchPosts: {
      // Every global post plus the TDS's personal ones, minus those it has
      // already served, in query-id order.
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      ByteWriter w(reply);
      w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
      const size_t count_at = reply->size();
      w.PutU32(0);  // the post count, patched below
      uint32_t n = 0;
      for (const auto& [id, query] : queries_) {
        if (query.served.Find(tds_id) != ServedTable::Serve::kNone) continue;
        if (query.post.personal_tds && *query.post.personal_tds != tds_id) {
          continue;
        }
        w.PutBytes(query.post.encoded);
        n += 1;
      }
      for (int i = 0; i < 4; ++i) {
        (*reply)[count_at + i] = static_cast<uint8_t>(n >> (8 * i));
      }
      return Status::OK();
    }
    case MsgType::kAcknowledge: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      query->served.Insert(tds_id);
      return ReplyOk(reply);
    }
    case MsgType::kUploadCollection: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ItemsBody upload, ScanItemsBody(&reader));
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      ServedTable::Serve& serve = query->served.Insert(tds_id);
      // A set bit means a duplicate delivery: a transport retry after the
      // reply was lost. The first delivery already stored this TDS's
      // contribution (or discarded it after the take); replay its reply
      // instead of counting the contribution twice.
      if (serve == ServedTable::Serve::kAcknowledged) {
        // The node stores what it is sent until the collection is taken; a
        // later contribution is discarded, but the TDS still counts as
        // having served the query. The querier alone enforces SIZE.
        serve = query->taken ? ServedTable::Serve::kRejected
                             : ServedTable::Serve::kAccepted;
        if (serve == ServedTable::Serve::kAccepted) {
          TCELLS_RETURN_IF_ERROR(
              query->view.ObserveCollection(upload.encoding));
          const std::span<const uint8_t> items = upload.items();
          query->collected.insert(query->collected.end(), items.begin(),
                                  items.end());
          query->collected_count += upload.count;
        }
      }
      ByteWriter w(reply);
      w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
      w.PutU8(serve == ServedTable::Serve::kAccepted ? 1 : 0);
      return Status::OK();
    }
    case MsgType::kTakeCollected: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      // Closes the storage area. Idempotent: a duplicate delivery
      // (transport retry after a lost reply, or a duplicated frame) gets
      // the same bytes.
      query->taken = true;
      AppendItemsReply(reply, query->collected_count, query->collected);
      return Status::OK();
    }
    case MsgType::kStagePartition: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ItemsBody p, ScanItemsBody(&reader));
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      // Replaces whatever the token held, a previous round's output
      // included: the token starts a new exchange.
      query->transfers[token] = Query::Transfer{false, p.ToBytes()};
      return ReplyOk(reply);
    }
    case MsgType::kFetchPartition: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      auto it = query->transfers.find(token);
      if (it == query->transfers.end() || it->second.uploaded) {
        return Status::NotFound("no staged partition for token");
      }
      // Left staged: a dropout re-dispatch downloads the same bytes again.
      AppendReplyOk(reply, it->second.items);
      return Status::OK();
    }
    case MsgType::kUploadRoundOutput: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ItemsBody p, ScanItemsBody(&reader));
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      // Replaces the staged partition: no TDS fetches it after an output
      // for the token exists.
      query->transfers[token] = Query::Transfer{true, p.ToBytes()};
      return ReplyOk(reply);
    }
    case MsgType::kTakeRoundOutput: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t token, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      auto it = query->transfers.find(token);
      if (it == query->transfers.end() || !it->second.uploaded) {
        return Status::NotFound("no round output for token");
      }
      // A plain read: a retry after a lost reply re-downloads the same
      // bytes. The next stage of the token, or kRetire, drops them.
      AppendReplyOk(reply, it->second.items);
      return Status::OK();
    }
    case MsgType::kObserveAggregation: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ItemsBody p, ScanItemsBody(&reader));
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      // Observed once per query: a retry after a lost reply adds nothing.
      if (!query->aggregation_observed) {
        TCELLS_RETURN_IF_ERROR(query->view.ObserveAggregation(p.encoding));
        query->aggregation_observed = true;
      }
      return ReplyOk(reply);
    }
    case MsgType::kDeliverResult: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(ItemsBody p, ScanItemsBody(&reader));
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      // The result crosses the SSI here, so here the filtering leakage is
      // recorded: on the first delivery only.
      if (!query->result) query->view.ObserveFiltering(p.count);
      query->result = p.ToBytes();
      return ReplyOk(reply);
    }
    case MsgType::kFetchResult: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      if (!query->result) {
        return Status::NotFound("no delivered result for query");
      }
      AppendReplyOk(reply, *query->result);
      return Status::OK();
    }
    case MsgType::kAdversaryView: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(Query * query, Posted(query_id));
      ByteWriter(reply).PutU8(static_cast<uint8_t>(StatusCode::kOk));
      query->view.View().EncodeTo(reply);
      return Status::OK();
    }
    case MsgType::kPostEpochBlock: {
      // Opaque to the SSI: the block is broadcast-encrypted key material the
      // node merely stores and serves. Later posts overwrite earlier ones —
      // the authority always publishes the full current window.
      const std::span<const uint8_t> block = reader.rest();
      epoch_block_.assign(block.begin(), block.end());
      epoch_block_tag_ = ssi::EpochBlockTag(epoch_block_);
      return ReplyOk(reply);
    }
    case MsgType::kFetchEpochBlock: {
      // The tds_id exists only to shard-route and fault-key the fetch; the
      // reply is the same latest block for every caller, or an empty body to
      // a caller whose held tag names it. A published block is never empty,
      // so an empty body is unambiguous.
      TCELLS_ASSIGN_OR_RETURN(uint64_t tds_id, reader.GetU64());
      TCELLS_ASSIGN_OR_RETURN(uint64_t held_tag, reader.GetU64());
      (void)tds_id;
      if (epoch_block_.empty()) {
        return Status::NotFound("no epoch block published");
      }
      if (held_tag == epoch_block_tag_) return ReplyOk(reply);
      AppendReplyOk(reply, epoch_block_);
      return Status::OK();
    }
    case MsgType::kRetire: {
      TCELLS_ASSIGN_OR_RETURN(uint64_t query_id, reader.GetU64());
      // Drops the whole record, transfer remnants included, so lost
      // partitions do not outlive the query inside the SSI.
      if (queries_.erase(query_id) == 0) return NoActiveQuery(query_id);
      return ReplyOk(reply);
    }
  }
  return Status::Corruption("unknown SSI message type");
}

}  // namespace tcells::net
