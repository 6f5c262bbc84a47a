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
  /// stage/upload messages), as a view into the request.
  std::span<const uint8_t> payload;
  bool ok = false;
};

ParsedRequest Parse(std::span<const uint8_t> request, size_t num_u64s) {
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
  parsed.payload = reader.rest();
  parsed.ok = true;
  return parsed;
}

bool SameBytes(const Bytes& a, std::span<const uint8_t> b) {
  return std::ranges::equal(a, b);
}

}  // namespace

ByzantineProxy::ByzantineProxy(TamperPlan plan) : plan_(plan) {}

CallFilter ByzantineProxy::filter() {
  return [this](std::span<const uint8_t> request, const CallHandler& honest,
                Bytes* reply) { return Serve(request, honest, reply); };
}

TamperStats ByzantineProxy::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status ByzantineProxy::Serve(std::span<const uint8_t> request,
                             const CallHandler& honest, Bytes* reply) {
  if (request.empty()) return honest(request, reply);
  const MsgType type = static_cast<MsgType>(request[0]);

  // Record the payloads future lies are built from, then let the honest
  // node answer.
  if (type == MsgType::kStagePartition ||
      type == MsgType::kUploadRoundOutput) {
    ParsedRequest parsed = Parse(request, 2);
    if (parsed.ok) {
      std::lock_guard<std::mutex> lock(mu_);
      auto& store =
          type == MsgType::kStagePartition ? staged_ : uploaded_;
      store[{parsed.a, parsed.b}] =
          Bytes(parsed.payload.begin(), parsed.payload.end());
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

  const size_t start = reply->size();
  TCELLS_RETURN_IF_ERROR(honest(request, reply));
  // Serving a lie replaces the honest envelope at the end of the frame.
  auto lie = [&](const Status& error, std::span<const uint8_t> body) {
    reply->resize(start);
    if (error.ok()) {
      AppendReplyOk(reply, body);
    } else {
      AppendReplyError(reply, error);
    }
    return Status::OK();
  };

  // Forged errors apply regardless of what the honest reply was.
  if (plan_.forge_error_on && *plan_.forge_error_on == type) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.forged_errors += 1;
    return lie(Status::NotFound("byzantine SSI: no such data"), {});
  }

  // Every other lie rewrites an OK envelope; application errors pass
  // through untouched.
  Result<std::span<const uint8_t>> decoded = DecodeReply(
      std::span<const uint8_t>(reply->data() + start, reply->size() - start));
  if (!decoded.ok()) return Status::OK();
  const std::span<const uint8_t> body = *decoded;

  switch (type) {
    case MsgType::kTakeCollected: {
      if (!plan_.reverse_collected) break;
      Result<std::vector<ssi::EncryptedItem>> items =
          ssi::DecodeItems(Bytes(body.begin(), body.end()));
      if (!items.ok() || items->size() < 2) break;
      std::reverse(items->begin(), items->end());
      std::lock_guard<std::mutex> lock(mu_);
      stats_.reversed_collected += 1;
      Bytes reversed;
      ssi::EncodeItemsTo(*items, &reversed);
      return lie(Status::OK(), reversed);
    }
    case MsgType::kUploadCollection: {
      if (!plan_.forge_accept_byte) break;
      std::lock_guard<std::mutex> lock(mu_);
      stats_.forged_accepts += 1;
      const uint8_t rejected = 0;
      return lie(Status::OK(), {&rejected, 1});
    }
    case MsgType::kTakeRoundOutput: {
      ParsedRequest parsed = Parse(request, 2);
      if (!parsed.ok) break;
      const Key key{parsed.a, parsed.b};
      std::lock_guard<std::mutex> lock(mu_);
      if (plan_.replay_round_output) {
        auto it = first_take_reply_.find(key);
        if (it == first_take_reply_.end()) {
          first_take_reply_[key] = Bytes(body.begin(), body.end());
        } else if (!SameBytes(it->second, body)) {
          stats_.replayed_round_outputs += 1;
          return lie(Status::OK(), it->second);
        }
      }
      if (plan_.echo_input_as_output) {
        auto it = staged_.find(key);
        if (it != staged_.end() && !SameBytes(it->second, body)) {
          stats_.echoed_inputs += 1;
          return lie(Status::OK(), it->second);
        }
      }
      if (plan_.swap_round_outputs) {
        auto it = uploaded_.find({parsed.a, parsed.b ^ 1});
        if (it != uploaded_.end() && !SameBytes(it->second, body)) {
          stats_.swapped_round_outputs += 1;
          return lie(Status::OK(), it->second);
        }
      }
      break;
    }
    default:
      break;
  }
  return Status::OK();
}

}  // namespace tcells::net
