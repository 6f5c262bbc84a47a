#include "net/byzantine.h"

#include <algorithm>

#include "ssi/messages.h"

namespace tcells::net {

namespace {

struct ParsedRequest {
  MsgType type = MsgType::kPostGlobal;
  uint64_t a = 0;
  uint64_t b = 0;
  /// Remainder of the request after the keys (the partition payload for
  /// stage/upload messages).
  Bytes payload;
  bool ok = false;
};

ParsedRequest Parse(const Bytes& request, size_t num_u64s) {
  ParsedRequest parsed;
  ByteReader reader(request);
  Result<uint8_t> type = reader.GetU8();
  if (!type.ok()) return parsed;
  parsed.type = static_cast<MsgType>(*type);
  if (num_u64s >= 1) {
    Result<uint64_t> a = reader.GetU64();
    if (!a.ok()) return parsed;
    parsed.a = *a;
  }
  if (num_u64s >= 2) {
    Result<uint64_t> b = reader.GetU64();
    if (!b.ok()) return parsed;
    parsed.b = *b;
  }
  Result<Bytes> rest = reader.GetRaw(reader.remaining());
  if (!rest.ok()) return parsed;
  parsed.payload = std::move(*rest);
  parsed.ok = true;
  return parsed;
}

Result<uint8_t> RequestType(const Bytes& request) {
  return ByteReader(request).GetU8();
}

}  // namespace

ByzantineProxy::ByzantineProxy(TamperPlan plan) : plan_(plan) {}

CallFilter ByzantineProxy::filter() {
  return [this](const Bytes& request, const CallHandler& honest) {
    return Serve(request, honest);
  };
}

TamperStats ByzantineProxy::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<Bytes> ByzantineProxy::Serve(const Bytes& request,
                                    const CallHandler& honest) {
  Result<uint8_t> raw_type = RequestType(request);
  if (!raw_type.ok()) return honest(request);
  const MsgType type = static_cast<MsgType>(*raw_type);

  // Record the payloads future lies are built from, then let the honest
  // node answer.
  if (type == MsgType::kStagePartition ||
      type == MsgType::kUploadRoundOutput) {
    ParsedRequest parsed = Parse(request, 2);
    if (parsed.ok) {
      std::lock_guard<std::mutex> lock(mu_);
      auto& store =
          type == MsgType::kStagePartition ? staged_ : uploaded_;
      store[{parsed.a, parsed.b}] = parsed.payload;
    }
  }
  if (type == MsgType::kRetire) {
    ParsedRequest parsed = Parse(request, 1);
    if (parsed.ok) {
      std::lock_guard<std::mutex> lock(mu_);
      auto drop = [&](std::map<Key, Bytes>& store) {
        store.erase(store.lower_bound({parsed.a, 0}),
                    store.upper_bound({parsed.a, ~uint64_t{0}}));
      };
      drop(staged_);
      drop(uploaded_);
      drop(first_take_reply_);
    }
  }

  TCELLS_ASSIGN_OR_RETURN(Bytes reply, honest(request));

  // Forged errors apply regardless of what the honest reply was.
  if (plan_.forge_error_on && *plan_.forge_error_on == type) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.forged_errors += 1;
    return EncodeReplyError(Status::NotFound("byzantine SSI: no such data"));
  }

  // Every other lie rewrites an OK envelope; application errors pass
  // through untouched.
  Result<Bytes> body = DecodeReply(reply);
  if (!body.ok()) return reply;

  switch (type) {
    case MsgType::kTakeCollected: {
      if (!plan_.reverse_collected) break;
      Result<ssi::Partition> p = ssi::Partition::Decode(*body);
      if (!p.ok() || p->items.size() < 2) break;
      std::reverse(p->items.begin(), p->items.end());
      std::lock_guard<std::mutex> lock(mu_);
      stats_.reversed_collected += 1;
      return EncodeReplyOk(p->Encode());
    }
    case MsgType::kUploadCollection: {
      if (!plan_.forge_accept_byte) break;
      std::lock_guard<std::mutex> lock(mu_);
      stats_.forged_accepts += 1;
      return EncodeReplyOk(Bytes{0});
    }
    case MsgType::kTakeRoundOutput: {
      ParsedRequest parsed = Parse(request, 2);
      if (!parsed.ok) break;
      const Key key{parsed.a, parsed.b};
      std::lock_guard<std::mutex> lock(mu_);
      if (plan_.replay_round_output) {
        auto it = first_take_reply_.find(key);
        if (it == first_take_reply_.end()) {
          first_take_reply_[key] = *body;
        } else if (it->second != *body) {
          stats_.replayed_round_outputs += 1;
          return EncodeReplyOk(it->second);
        }
      }
      if (plan_.echo_input_as_output) {
        auto it = staged_.find(key);
        if (it != staged_.end() && it->second != *body) {
          stats_.echoed_inputs += 1;
          return EncodeReplyOk(it->second);
        }
      }
      if (plan_.swap_round_outputs) {
        auto it = uploaded_.find({parsed.a, parsed.b ^ 1});
        if (it != uploaded_.end() && it->second != *body) {
          stats_.swapped_round_outputs += 1;
          return EncodeReplyOk(it->second);
        }
      }
      break;
    }
    default:
      break;
  }
  return reply;
}

}  // namespace tcells::net
