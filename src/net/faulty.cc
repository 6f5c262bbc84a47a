#include "net/faulty.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/rng.h"

namespace tcells::net {

namespace {

/// splitmix64 finalizer — the same mixer the Rng seeds with, reused to fold
/// the call key into a decision seed.
uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h + 0x9e3779b97f4a7c15ULL + v;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The leading u64 fields of each request type — the message's identity from
/// the fault injector's point of view. Unknown/garbled requests key as zero.
struct CallKey {
  uint8_t type = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

size_t NumKeyFields(MsgType type) {
  switch (type) {
    case MsgType::kPostGlobal:
    case MsgType::kPostEpochBlock:
      return 0;
    case MsgType::kPostPersonal:
    case MsgType::kFetchPosts:
    case MsgType::kFetchEpochBlock:
    case MsgType::kTakeCollected:
    case MsgType::kObserveAggregation:
    case MsgType::kDeliverResult:
    case MsgType::kFetchResult:
    case MsgType::kAdversaryView:
    case MsgType::kRetire:
      return 1;
    case MsgType::kAcknowledge:
    case MsgType::kUploadCollection:
    case MsgType::kStagePartition:
    case MsgType::kFetchPartition:
    case MsgType::kUploadRoundOutput:
    case MsgType::kTakeRoundOutput:
      return 2;
  }
  return 0;
}

/// The key of a batch frame's first call. Fault schedules are call-granular,
/// so the engine ships one call per frame whenever a fault plan is set.
CallKey ExtractKey(const Bytes& frame) {
  CallKey key;
  // u8 magic, u8 version, u32 count, then the first call's u64 correlation
  // ID and u32 payload length.
  constexpr size_t kHeader = 1 + 1 + 4 + 8;
  if (frame.size() < kHeader + 4 || frame[0] != kBatchMagic) return key;
  ByteReader length(frame.data() + kHeader, 4);
  const size_t payload =
      std::min<size_t>(length.GetU32().ValueOrDie(), frame.size() - kHeader - 4);
  ByteReader reader(frame.data() + kHeader + 4, payload);
  Result<uint8_t> type = reader.GetU8();
  if (!type.ok()) return key;
  key.type = *type;
  size_t fields = NumKeyFields(static_cast<MsgType>(key.type));
  if (fields >= 1) {
    Result<uint64_t> a = reader.GetU64();
    if (a.ok()) key.a = *a;
  }
  if (fields >= 2) {
    Result<uint64_t> b = reader.GetU64();
    if (b.ok()) key.b = *b;
  }
  return key;
}

const char* MsgTypeName(uint8_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kPostGlobal: return "PostGlobal";
    case MsgType::kPostPersonal: return "PostPersonal";
    case MsgType::kFetchPosts: return "FetchPosts";
    case MsgType::kAcknowledge: return "Acknowledge";
    case MsgType::kUploadCollection: return "UploadCollection";
    case MsgType::kTakeCollected: return "TakeCollected";
    case MsgType::kStagePartition: return "StagePartition";
    case MsgType::kFetchPartition: return "FetchPartition";
    case MsgType::kUploadRoundOutput: return "UploadRoundOutput";
    case MsgType::kTakeRoundOutput: return "TakeRoundOutput";
    case MsgType::kObserveAggregation: return "ObserveAggregation";
    case MsgType::kDeliverResult: return "DeliverResult";
    case MsgType::kFetchResult: return "FetchResult";
    case MsgType::kAdversaryView: return "AdversaryView";
    case MsgType::kRetire: return "Retire";
    case MsgType::kPostEpochBlock: return "PostEpochBlock";
    case MsgType::kFetchEpochBlock: return "FetchEpochBlock";
  }
  return "Unknown";
}

/// Bounds the per-key history maps; far above any campaign's key count, so
/// hitting it only degrades stale-replay/reorder coverage, never correctness.
constexpr size_t kMaxTrackedKeys = 1 << 16;

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDropRequest: return "drop_request";
    case FaultKind::kDropReply: return "drop_reply";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kBitFlip: return "bit_flip";
    case FaultKind::kStaleReplay: return "stale_replay";
    case FaultKind::kDisconnect: return "disconnect";
  }
  return "?";
}

struct FaultyTransport::State {
  FaultPlan plan;
  Clock* clock;

  std::mutex mu;
  using KeyId = std::tuple<uint8_t, uint64_t, uint64_t>;
  std::map<KeyId, uint64_t> key_attempts;
  std::map<uint8_t, uint64_t> type_counts;
  /// Last request / last transport-OK reply per key, for reorder and
  /// stale-replay faults.
  std::map<KeyId, Bytes> last_request;
  std::map<KeyId, Bytes> last_reply;
  std::vector<FaultEvent> events;

  /// Scripted triggers first, then a seeded draw per probability in fixed
  /// order. Pure function of (seed, key, per-key/per-type counters).
  FaultKind Decide(const CallKey& key, uint64_t key_attempt,
                   uint64_t type_count) {
    for (const ScriptedFault& f : plan.script) {
      if (static_cast<uint8_t>(f.type) != key.type) continue;
      if (f.key_a && *f.key_a != key.a) continue;
      if (f.key_b && *f.key_b != key.b) continue;
      uint64_t count =
          f.scope == ScriptedFault::Scope::kPerKey ? key_attempt : type_count;
      if (count < f.nth) continue;
      if (f.repeat != 0 && count >= f.nth + f.repeat) continue;
      return f.kind;
    }
    const FaultProbabilities& p = plan.ProbsFor(static_cast<MsgType>(key.type));
    uint64_t h = Mix(Mix(Mix(Mix(plan.seed, key.type), key.a), key.b),
                     key_attempt);
    Rng rng(h);
    // One draw per kind in a fixed order, independent of which probabilities
    // are zero, so adding a kind to a plan never reshuffles the others.
    FaultKind hit = FaultKind::kNone;
    auto draw = [&](double prob, FaultKind kind) {
      bool fired = rng.NextBool(prob);
      if (fired && hit == FaultKind::kNone) hit = kind;
    };
    draw(p.drop_request, FaultKind::kDropRequest);
    draw(p.drop_reply, FaultKind::kDropReply);
    draw(p.delay, FaultKind::kDelay);
    draw(p.duplicate, FaultKind::kDuplicate);
    draw(p.reorder, FaultKind::kReorder);
    draw(p.truncate, FaultKind::kTruncate);
    draw(p.bit_flip, FaultKind::kBitFlip);
    draw(p.stale_replay, FaultKind::kStaleReplay);
    draw(p.disconnect, FaultKind::kDisconnect);
    return hit;
  }

  void Record(const CallKey& key, uint64_t key_attempt, FaultKind kind) {
    FaultEvent e;
    e.type = key.type;
    e.key_a = key.a;
    e.key_b = key.b;
    e.key_attempt = key_attempt;
    e.kind = kind;
    events.push_back(e);
  }

  void Remember(const CallKey& key, const Bytes* request, const Bytes* reply) {
    KeyId id{key.type, key.a, key.b};
    if (request != nullptr) {
      if (last_request.size() < kMaxTrackedKeys || last_request.count(id)) {
        last_request[id] = *request;
      }
    }
    if (reply != nullptr) {
      if (last_reply.size() < kMaxTrackedKeys || last_reply.count(id)) {
        last_reply[id] = *reply;
      }
    }
  }
};

namespace {

class FaultyChannel : public Channel {
 public:
  FaultyChannel(std::unique_ptr<Channel> inner,
                std::shared_ptr<FaultyTransport::State> state)
      : inner_(std::move(inner)), state_(std::move(state)) {}

  Result<Bytes> Call(const Bytes& request, const CallOptions& opts) override;

 private:
  std::unique_ptr<Channel> inner_;
  std::shared_ptr<FaultyTransport::State> state_;
  /// A disconnect fault killed this channel; the client must re-dial.
  bool dead_ = false;
};

Result<Bytes> FaultyChannel::Call(const Bytes& request,
                                  const CallOptions& opts) {
  if (dead_) {
    // Not a new fault decision: the disconnect was injected (and logged)
    // when it happened; every later call on the dead channel just fails.
    return Status::Unavailable("faulty transport: channel disconnected");
  }
  const CallKey key = ExtractKey(request);
  FaultyTransport::State& st = *state_;

  FaultKind kind;
  uint64_t key_attempt;
  Bytes stale_reply;
  Bytes prior_request;
  bool have_prior = false;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    key_attempt = ++st.key_attempts[{key.type, key.a, key.b}];
    uint64_t type_count = ++st.type_counts[key.type];
    kind = st.Decide(key, key_attempt, type_count);
    if (kind == FaultKind::kStaleReplay) {
      auto it = st.last_reply.find({key.type, key.a, key.b});
      if (it != st.last_reply.end()) {
        stale_reply = it->second;
      } else {
        kind = FaultKind::kNone;  // nothing recorded yet to replay
      }
    }
    if (kind == FaultKind::kReorder) {
      auto it = st.last_request.find({key.type, key.a, key.b});
      if (it != st.last_request.end()) {
        prior_request = it->second;
        have_prior = true;
      } else {
        kind = FaultKind::kNone;  // no earlier message to deliver late
      }
    }
    if (kind != FaultKind::kNone) st.Record(key, key_attempt, kind);
  }

  auto remember = [&](const Bytes* reply) {
    std::lock_guard<std::mutex> lock(st.mu);
    st.Remember(key, &request, reply);
  };

  switch (kind) {
    case FaultKind::kDropRequest:
      return Status::Unavailable("faulty transport: request dropped");
    case FaultKind::kDisconnect:
      dead_ = true;
      return Status::Unavailable("faulty transport: connection reset");
    case FaultKind::kDropReply: {
      // The SSI processes the request — its state advances — but the reply
      // is lost. This is the case server idempotency exists for.
      Result<Bytes> reply = inner_->Call(request, opts);
      if (!reply.ok()) return reply.status();
      remember(&*reply);
      return Status::Unavailable("faulty transport: reply dropped");
    }
    case FaultKind::kDelay: {
      double delay = st.plan.delay_seconds;
      Clock* clock = st.clock != nullptr ? st.clock : Clock::Real();
      clock->SleepFor(std::min(delay, opts.deadline_seconds));
      if (delay >= opts.deadline_seconds) {
        // The reply exists but arrives after the caller gave up.
        Result<Bytes> reply = inner_->Call(request, opts);
        if (reply.ok()) remember(&*reply);
        return Status::DeadlineExceeded("faulty transport: delayed past deadline");
      }
      break;  // survivable delay: fall through to the normal exchange
    }
    case FaultKind::kDuplicate: {
      // The request arrives twice (a retransmission); only the second
      // exchange's reply makes it back.
      Result<Bytes> first = inner_->Call(request, opts);
      (void)first;
      break;
    }
    case FaultKind::kReorder: {
      // A late retransmission of this key's previous message lands just
      // before the current one.
      if (have_prior) (void)inner_->Call(prior_request, opts);
      break;
    }
    case FaultKind::kStaleReplay:
      // An old reply for this key is served from the network's memory; the
      // SSI never sees the fresh request.
      return stale_reply;
    case FaultKind::kTruncate:
    case FaultKind::kBitFlip:
    case FaultKind::kNone:
      break;
  }

  Result<Bytes> reply = inner_->Call(request, opts);
  if (!reply.ok()) return reply.status();
  remember(&*reply);

  if (kind == FaultKind::kTruncate) {
    Bytes cut = *reply;
    cut.resize(std::min(st.plan.truncate_at, cut.size()));
    return cut;
  }
  if (kind == FaultKind::kBitFlip && !(*reply).empty()) {
    Bytes flipped = *reply;
    uint64_t h = Mix(Mix(Mix(st.plan.seed ^ 0xb17f11bULL, key.type), key.a),
                     key_attempt);
    size_t bit = static_cast<size_t>(h % (flipped.size() * 8));
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    return flipped;
  }
  return reply;
}

}  // namespace

FaultyTransport::FaultyTransport(Transport* inner, FaultPlan plan,
                                 Clock* clock)
    : inner_(inner),
      name_(std::string("faulty(") + inner->name() + ")"),
      state_(std::make_shared<State>()) {
  state_->plan = std::move(plan);
  state_->clock = clock;
}

FaultyTransport::~FaultyTransport() = default;

Result<std::unique_ptr<Channel>> FaultyTransport::Connect() {
  TCELLS_ASSIGN_OR_RETURN(std::unique_ptr<Channel> inner, inner_->Connect());
  return std::unique_ptr<Channel>(
      new FaultyChannel(std::move(inner), state_));
}

const char* FaultyTransport::name() const { return name_.c_str(); }

std::vector<FaultEvent> FaultyTransport::events() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->events;
}

std::vector<FaultEvent> FaultyTransport::canonical_events() const {
  std::vector<FaultEvent> sorted = events();
  std::sort(sorted.begin(), sorted.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              return std::tie(x.type, x.key_a, x.key_b, x.key_attempt,
                              x.kind) <
                     std::tie(y.type, y.key_a, y.key_b, y.key_attempt,
                              y.kind);
            });
  return sorted;
}

std::string FaultyTransport::CanonicalLog() const {
  std::ostringstream out;
  for (const FaultEvent& e : canonical_events()) {
    out << MsgTypeName(e.type) << " key=" << e.key_a << "/" << e.key_b
        << " attempt=" << e.key_attempt << " fault=" << FaultKindName(e.kind)
        << "\n";
  }
  return out.str();
}

uint64_t FaultyTransport::injected_count() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->events.size();
}

}  // namespace tcells::net
