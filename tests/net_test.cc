// Transport-layer tests: frame codec hostile-input discipline, the loopback
// and TCP backends, and the SsiClient retry/deadline semantics. The failure
// paths — peer closing mid-frame, a server that never replies, transient
// errors that resolve on retry — are each pinned here because the engine's
// graceful-degradation story depends on the exact Status codes the channel
// surface maps them to.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hex.h"
#include "crypto/sha256.h"
#include "net/byzantine.h"
#include "net/faulty.h"
#include "net/frame.h"
#include "net/loopback.h"
#include "net/sharded_client.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/ssi_wire.h"
#include "net/tcp.h"
#include "obs/metrics.h"

namespace tcells::net {
namespace {

Bytes MakeBytes(std::initializer_list<uint8_t> b) { return Bytes(b); }

bool IsCorruption(const Status& s) { return s.IsCorruption(); }
bool IsNotFound(const Status& s) { return s.IsNotFound(); }
bool IsUnavailable(const Status& s) { return s.IsUnavailable(); }
bool IsDeadlineExceeded(const Status& s) { return s.IsDeadlineExceeded(); }
bool IsInvalidArgument(const Status& s) { return s.IsInvalidArgument(); }

/// One kFetchPosts call payload: the MsgType byte and the u64 tds_id.
Bytes FetchPostsRequest(uint64_t tds_id) {
  Bytes req;
  ByteWriter w(&req);
  w.PutU8(static_cast<uint8_t>(MsgType::kFetchPosts));
  w.PutU64(tds_id);
  return req;
}

/// A scripted plan that injects `kind` on the nth call of `type` (per-type
/// counter), with everything probabilistic turned off.
FaultPlan ScriptOne(MsgType type, FaultKind kind, uint64_t nth = 1,
                    uint64_t repeat = 1) {
  FaultPlan plan;
  ScriptedFault fault;
  fault.type = type;
  fault.kind = kind;
  fault.scope = ScriptedFault::Scope::kPerType;
  fault.nth = nth;
  fault.repeat = repeat;
  plan.script.push_back(fault);
  return plan;
}

/// A batch reply frame answering every call of request frame `frame` with
/// `envelope`, for hand-written servers.
Result<Bytes> AnswerEach(const Bytes& frame, const Bytes& envelope) {
  TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls, DecodeBatchFrame(frame));
  std::vector<BatchCall> replies;
  for (const BatchCall& call : calls) {
    replies.push_back(BatchCall{call.correlation_id, envelope});
  }
  return EncodeBatchFrame(replies);
}

// ---------------------------------------------------------------------------
// Frame codec.

TEST(FrameTest, RoundTrip) {
  Bytes wire;
  Bytes payload = MakeBytes({1, 2, 3, 4, 5});
  AppendFrame(&wire, payload);
  EXPECT_EQ(wire.size(), FrameWireSize(payload.size()));
  ByteReader reader(wire);
  auto decoded = DecodeFrame(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(Bytes(*decoded), payload);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(FrameTest, EmptyPayloadRoundTrips) {
  Bytes wire;
  AppendFrame(&wire, Bytes());
  ByteReader reader(wire);
  auto decoded = DecodeFrame(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(FrameTest, RejectsLengthBeyondCapBeforeAllocation) {
  // A 4-byte header claiming ~4 GiB must be rejected up front — if the
  // decoder tried to reserve that much first, a peer could drive huge
  // allocations with tiny writes.
  Bytes wire = MakeBytes({0xff, 0xff, 0xff, 0xff});
  ByteReader reader(wire);
  auto decoded = DecodeFrame(&reader);
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(IsCorruption(decoded.status()));
}

TEST(FrameTest, RejectsLengthJustAboveCap) {
  uint32_t n = static_cast<uint32_t>(kMaxFramePayload) + 1;
  Bytes wire;
  ByteWriter writer(&wire);
  writer.PutU32(n);
  ByteReader reader(wire);
  EXPECT_TRUE(IsCorruption(DecodeFrame(&reader).status()));
}

TEST(FrameTest, RejectsLengthBeyondRemaining) {
  // Claims 100 payload bytes, provides 3.
  Bytes wire;
  ByteWriter writer(&wire);
  writer.PutU32(100);
  wire.push_back(9);
  wire.push_back(9);
  wire.push_back(9);
  ByteReader reader(wire);
  EXPECT_TRUE(IsCorruption(DecodeFrame(&reader).status()));
}

/// Feeds `stream` to `receiver` the way a socket loop does, receive by
/// receive of at most `chunk` bytes — in place where the receiver offers
/// Space(), through Consume() otherwise — and returns the frames completed
/// on the way.
Result<std::vector<Bytes>> Receive(FrameReceiver* receiver,
                                   const Bytes& stream, size_t chunk = 16) {
  std::vector<Bytes> frames;
  size_t pos = 0;
  while (pos < stream.size()) {
    const std::span<uint8_t> space = receiver->Space();
    if (!space.empty()) {
      const size_t n = std::min(space.size(), stream.size() - pos);
      std::memcpy(space.data(), stream.data() + pos, n);
      receiver->Commit(n);
      pos += n;
    } else {
      const size_t n = std::min(chunk, stream.size() - pos);
      std::span<const uint8_t> rest(stream.data() + pos, n);
      pos += n;
      while (!rest.empty()) {
        TCELLS_ASSIGN_OR_RETURN(size_t used, receiver->Consume(rest));
        rest = rest.subspan(used);
        if (receiver->complete()) frames.push_back(receiver->TakeFrame());
      }
    }
    if (receiver->complete()) frames.push_back(receiver->TakeFrame());
  }
  return frames;
}

TEST(FrameTest, ReceiverNeedsWholeHeader) {
  FrameReceiver receiver;
  auto frames = Receive(&receiver, MakeBytes({5, 0}));  // half a prefix
  ASSERT_TRUE(frames.ok());
  EXPECT_TRUE(frames->empty());
  EXPECT_FALSE(receiver.complete());
  EXPECT_EQ(receiver.pending(), 2u);
  EXPECT_TRUE(receiver.Space().empty());  // a header goes through Consume
}

TEST(FrameTest, ReceiverNeedsWholePayload) {
  Bytes buf;
  AppendFrame(&buf, MakeBytes({1, 2, 3}));
  buf.pop_back();  // last payload byte still in flight
  FrameReceiver receiver;
  auto frames = Receive(&receiver, buf);
  ASSERT_TRUE(frames.ok());
  EXPECT_TRUE(frames->empty());
  EXPECT_EQ(receiver.Space().size(), 1u);  // never past the payload
  // A chunk holding more than the frame is taken only up to its end.
  const Bytes tail = MakeBytes({3, 9, 9});
  auto used = receiver.Consume(tail);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, 1u);
  ASSERT_TRUE(receiver.complete());
  EXPECT_EQ(receiver.TakeFrame(), MakeBytes({1, 2, 3}));
}

TEST(FrameTest, ReceiverSplitsPipelinedFramesExactly) {
  Bytes buf;
  AppendFrame(&buf, MakeBytes({1, 2}));
  AppendFrame(&buf, Bytes());
  AppendFrame(&buf, MakeBytes({3}));
  for (size_t chunk : {1u, 3u, 64u}) {
    FrameReceiver receiver;
    auto frames = Receive(&receiver, buf, chunk);
    ASSERT_TRUE(frames.ok());
    ASSERT_EQ(frames->size(), 3u) << "chunk " << chunk;
    EXPECT_EQ((*frames)[0], MakeBytes({1, 2}));
    EXPECT_TRUE((*frames)[1].empty());
    EXPECT_EQ((*frames)[2], MakeBytes({3}));
    EXPECT_EQ(receiver.pending(), 0u);
  }
}

TEST(FrameTest, ReceiverGrowsPastItsFirstChunk) {
  // A payload larger than the receiver's first allocation arrives whole.
  Bytes payload(3u << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  Bytes buf;
  AppendFrame(&buf, payload);
  FrameReceiver receiver;
  auto frames = Receive(&receiver, buf, /*chunk=*/16384);
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->size(), 1u);
  EXPECT_EQ((*frames)[0], payload);
}

TEST(FrameTest, ReceiverAllocatesNoFurtherAheadThanItsBuffer) {
  // A legal but large length in a bare header: the receiver allocates at
  // most its first chunk (64 KiB) ahead of the bytes that arrived, and no
  // more than `max_buffer` when that is smaller.
  Bytes header;
  ByteWriter(&header).PutU32(1u << 20);
  FrameReceiver unbounded;
  ASSERT_TRUE(unbounded.Consume(header).ok());
  EXPECT_EQ(unbounded.Space().size(), 64u << 10);
  FrameReceiver bounded(/*max_buffer=*/4096);
  ASSERT_TRUE(bounded.Consume(header).ok());
  const std::span<uint8_t> space = bounded.Space();
  EXPECT_EQ(space.size(), 4096u);
  bounded.Commit(space.size());
  // The buffer is full: further bytes go through Consume, which takes only
  // what arrived.
  EXPECT_TRUE(bounded.Space().empty());
  const Bytes more(100, 7);
  auto used = bounded.Consume(more);
  ASSERT_TRUE(used.ok());
  EXPECT_EQ(*used, more.size());
  EXPECT_EQ(bounded.pending(), 4 + 4096 + more.size());
}

TEST(FrameTest, ReceiverRejectsHostileLengthBeforeBuffering) {
  // The stream decoder must flag Corruption as soon as the header is
  // readable, not wait for 4 GiB that will never arrive.
  FrameReceiver receiver;
  EXPECT_TRUE(IsCorruption(
      Receive(&receiver, MakeBytes({0xff, 0xff, 0xff, 0xff, 0x00})).status()));
}

TEST(TransportKindTest, NameRoundTrip) {
  EXPECT_STREQ(TransportKindToString(TransportKind::kLoopback), "loopback");
  EXPECT_STREQ(TransportKindToString(TransportKind::kTcp), "tcp");
  EXPECT_EQ(*TransportKindFromName("loopback"), TransportKind::kLoopback);
  EXPECT_EQ(*TransportKindFromName("tcp"), TransportKind::kTcp);
  EXPECT_TRUE(IsInvalidArgument(TransportKindFromName("smoke").status()));
}

// ---------------------------------------------------------------------------
// Loopback backend.

TEST(LoopbackTest, EchoRoundTripsThroughFrameCodec) {
  LoopbackTransport transport([](const Bytes& req) -> Result<Bytes> {
    Bytes reply = req;
    reply.push_back(0xAB);
    return reply;
  });
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({1, 2, 3}), CallOptions{});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, MakeBytes({1, 2, 3, 0xAB}));
}

TEST(LoopbackTest, InjectedFailuresSurfaceThenClear) {
  // Transport failures are injected by a FaultyTransport around the
  // backend: scripted request drops never reach the handler, and calls flow
  // again once the script is spent.
  size_t handled = 0;
  LoopbackTransport loopback([&](const Bytes& req) -> Result<Bytes> {
    ++handled;
    return req;
  });
  FaultyTransport transport(
      &loopback, ScriptOne(MsgType::kFetchPosts, FaultKind::kDropRequest,
                           /*nth=*/1, /*repeat=*/2));
  const Bytes call = FetchPostsRequest(7);
  const Bytes frame = EncodeBatchFrame({BatchCall{1, call}});
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  EXPECT_TRUE(IsUnavailable((*channel)->Call(frame, CallOptions{}).status()));
  EXPECT_TRUE(IsUnavailable((*channel)->Call(frame, CallOptions{}).status()));
  EXPECT_EQ(handled, 0u);  // injected failures never reach the handler
  EXPECT_TRUE((*channel)->Call(frame, CallOptions{}).ok());
  EXPECT_EQ(handled, 1u);
}

// ---------------------------------------------------------------------------
// TCP backend: the happy path and every documented failure mapping.

TEST(TcpTest, EchoOverRealSocket) {
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                return req;
              }).ok());
  ASSERT_GT(server.port(), 0);
  TcpTransport transport("127.0.0.1", server.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  // Several calls on one connection, including a payload larger than the
  // client's receive chunk, so reassembly across recv() boundaries runs.
  Bytes big(100 * 1024);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i);
  for (const Bytes& payload : {MakeBytes({1, 2, 3}), Bytes(), big}) {
    auto reply = (*channel)->Call(payload, CallOptions{});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, payload);
  }
}

TEST(TcpTest, ConnectToClosedPortIsUnavailable) {
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                return req;
              }).ok());
  uint16_t port = server.port();
  server.Stop();
  TcpTransport transport("127.0.0.1", port);
  auto channel = transport.Connect();
  if (!channel.ok()) {
    EXPECT_TRUE(IsUnavailable(channel.status()));
    return;
  }
  // Some kernels accept the connect and reset on first use.
  auto reply = (*channel)->Call(MakeBytes({1}), CallOptions{});
  EXPECT_TRUE(IsUnavailable(reply.status()));
}

/// Raw localhost listener for scripting byte-level server misbehavior that
/// TcpServer itself would never produce.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (conn_ >= 0) ::close(conn_);
    if (fd_ >= 0) ::close(fd_);
  }

  uint16_t port() const { return port_; }

  int Accept() {
    conn_ = ::accept(fd_, nullptr, nullptr);
    return conn_;
  }

  void DrainRequest() {
    // Read until the client's single request frame is fully here.
    uint8_t header[4];
    size_t got = 0;
    while (got < 4) {
      ssize_t n = ::recv(conn_, header + got, 4 - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
    uint32_t body = 0;
    std::memcpy(&body, header, 4);
    std::vector<uint8_t> scratch(body);
    got = 0;
    while (got < body) {
      ssize_t n = ::recv(conn_, scratch.data() + got, body - got, 0);
      ASSERT_GT(n, 0);
      got += static_cast<size_t>(n);
    }
  }

  void Send(const Bytes& bytes) {
    ASSERT_EQ(::send(conn_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void CloseConn() {
    ::close(conn_);
    conn_ = -1;
  }

 private:
  int fd_ = -1;
  int conn_ = -1;
  uint16_t port_ = 0;
};

TEST(TcpTest, PeerClosingMidFrameIsUnavailable) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // Reply frame claims 100 payload bytes, delivers 3, then slams the
    // connection: the client must see Unavailable (retryable), never hang
    // waiting for the rest and never treat the truncated frame as complete.
    Bytes partial;
    ByteWriter writer(&partial);
    writer.PutU32(100);
    partial.push_back(1);
    partial.push_back(2);
    partial.push_back(3);
    listener.Send(partial);
    listener.CloseConn();
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({42}), CallOptions{});
  peer.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsUnavailable(reply.status())) << reply.status().ToString();
}

TEST(TcpTest, SilentPeerHitsDeadline) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // Never reply; hold the connection open until the client gives up.
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  CallOptions opts;
  opts.deadline_seconds = 0.05;
  auto reply = (*channel)->Call(MakeBytes({42}), opts);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsDeadlineExceeded(reply.status())) << reply.status().ToString();
  peer.join();
}

TEST(TcpTest, HostileReplyLengthIsCorruption) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // A length prefix beyond the cap: fatal, not retryable — the stream can
    // never be re-synchronized.
    listener.Send(MakeBytes({0xff, 0xff, 0xff, 0xff}));
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({42}), CallOptions{});
  peer.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsCorruption(reply.status())) << reply.status().ToString();
}

TEST(TcpTest, BytesAfterTheReplyAreCorruption) {
  RawListener listener;
  std::thread peer([&] {
    ASSERT_GE(listener.Accept(), 0);
    listener.DrainRequest();
    // A whole reply frame and, in the same send, bytes nobody asked for:
    // the stream can no longer be paired with calls, so it is fatal.
    Bytes wire;
    AppendFrame(&wire, MakeBytes({7}));
    wire.push_back(0xAA);
    wire.push_back(0xBB);
    listener.Send(wire);
  });
  TcpTransport transport("127.0.0.1", listener.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({42}), CallOptions{});
  peer.join();
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsCorruption(reply.status())) << reply.status().ToString();
}

TEST(TcpTest, PipelinedRequestsBackpressuredNotDropped) {
  // A peer may write many frames before reading any reply. With buffer caps
  // far below the pipelined volume the server must stop reading / defer
  // serving while the reply backlog is full (bounding its memory), yet still
  // answer every frame in order once the peer starts draining.
  TcpServer server;
  server.set_buffer_caps(/*max_in=*/4096, /*max_out_backlog=*/4096);
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                Bytes reply = req;
                reply.push_back(0x5A);
                return reply;
              }).ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  constexpr size_t kCalls = 64;
  constexpr size_t kPayload = 1024;
  Bytes wire;
  for (size_t i = 0; i < kCalls; ++i) {
    AppendFrame(&wire, Bytes(kPayload, static_cast<uint8_t>(i)));
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }

  for (size_t i = 0; i < kCalls; ++i) {
    Bytes reply(FrameWireSize(kPayload + 1));
    size_t got = 0;
    while (got < reply.size()) {
      ssize_t n = ::recv(fd, reply.data() + got, reply.size() - got, 0);
      ASSERT_GT(n, 0) << "reply " << i << " truncated";
      got += static_cast<size_t>(n);
    }
    ByteReader reader(reply);
    auto payload = DecodeFrame(&reader);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    ASSERT_EQ(payload->size(), kPayload + 1);
    EXPECT_EQ((*payload)[0], static_cast<uint8_t>(i));
    EXPECT_EQ(payload->back(), 0x5A);
  }
  ::close(fd);
}

TEST(TcpTest, ServerDropsConnectionOnHandlerFailure) {
  // A handler that cannot decode the request signals an unsynchronizable
  // stream; the server's only safe move is to cut the connection, which the
  // client surfaces as retryable Unavailable.
  TcpServer server;
  ASSERT_TRUE(server.Start([](const Bytes&) -> Result<Bytes> {
                return Status::Corruption("bad frame");
              }).ok());
  TcpTransport transport("127.0.0.1", server.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(MakeBytes({1}), CallOptions{});
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(IsUnavailable(reply.status())) << reply.status().ToString();
}

// ---------------------------------------------------------------------------
// SsiClient retry semantics.

// The retry tests inject transport failures with a FaultyTransport on its
// own VirtualClock, so the client's clock records exactly its backoff sleeps.

TEST(SsiClientTest, TransientFailuresRetriedThenSucceed) {
  SsiNode node;
  LoopbackTransport loopback(node.handler());
  VirtualClock injector_clock;
  FaultyTransport transport(
      &loopback,
      ScriptOne(MsgType::kFetchPosts, FaultKind::kDropRequest, 1, 2),
      &injector_clock);
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_seconds = 0.05;
  policy.clock = &vclock;
  SsiClient client(&transport, policy, &metrics);

  auto n = client.FetchPosts(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_TRUE(n->empty());
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 2u);
  // Exact backoff schedule, no timing margins: first retry sleeps the base,
  // the second doubles it.
  EXPECT_EQ(vclock.sleeps(), (std::vector<double>{0.05, 0.1}));
}

TEST(SsiClientTest, RetriesExhaustedReturnsLastTransportError) {
  SsiNode node;
  LoopbackTransport loopback(node.handler());
  VirtualClock injector_clock;
  FaultyTransport transport(
      &loopback,
      ScriptOne(MsgType::kFetchPosts, FaultKind::kDropRequest, 1, 10),
      &injector_clock);
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_seconds = 0.05;
  policy.clock = &vclock;
  SsiClient client(&transport, policy);

  EXPECT_TRUE(IsUnavailable(client.FetchPosts(1).status()));
  // 10 injected - 2 attempts consumed = 8 left; drain to prove exactly two
  // attempts were made.
  size_t drained = 0;
  for (; drained < 10; ++drained) {
    if (client.FetchPosts(1).ok()) break;
  }
  // 8 remaining failures cover attempts for ceil(8/2)=4 more calls.
  EXPECT_EQ(drained, 4u);
  // Each failing call slept exactly once (one retry per call, base backoff —
  // the schedule resets between calls).
  EXPECT_EQ(vclock.sleeps(), (std::vector<double>{0.05, 0.05, 0.05, 0.05, 0.05}));
}

TEST(SsiClientTest, DeadlineHitsAreCountedAndRetried) {
  SsiNode node;
  LoopbackTransport loopback(node.handler());
  RetryPolicy policy;
  // A delay at the deadline: the reply arrives after the caller gave up.
  FaultPlan plan = ScriptOne(MsgType::kFetchPosts, FaultKind::kDelay);
  plan.delay_seconds = policy.deadline_seconds;
  VirtualClock injector_clock;
  FaultyTransport transport(&loopback, plan, &injector_clock);
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  policy.max_attempts = 2;
  policy.backoff_seconds = 0.05;
  policy.clock = &vclock;
  SsiClient client(&transport, policy, &metrics);

  ASSERT_TRUE(client.FetchPosts(1).ok());
  auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("net.deadline_hits"), 1u);
  EXPECT_EQ(counters.at("net.retries"), 1u);
  EXPECT_EQ(vclock.sleeps(), (std::vector<double>{0.05}));
}

TEST(SsiClientTest, BackoffScheduleIsExponentialAndCapped) {
  SsiNode node;
  LoopbackTransport loopback(node.handler());
  VirtualClock injector_clock;
  FaultyTransport transport(
      &loopback,
      ScriptOne(MsgType::kFetchPosts, FaultKind::kDropRequest, 1, 6),
      &injector_clock);
  VirtualClock vclock;
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.backoff_seconds = 0.05;
  policy.backoff_cap_seconds = 0.25;
  policy.clock = &vclock;
  SsiClient client(&transport, policy);

  EXPECT_TRUE(IsUnavailable(client.FetchPosts(1).status()));
  // Doubling from the base, clamped at the cap once 0.4 would exceed it.
  EXPECT_EQ(vclock.sleeps(),
            (std::vector<double>{0.05, 0.1, 0.2, 0.25, 0.25}));
}

TEST(SsiClientTest, DeadlineAbandonedReplyNeverPoisonsLaterCalls) {
  // Regression: a call that hits its deadline abandons a reply that is
  // still in flight. If the client kept the connection, the retry and every
  // later exchange on it would consume stale replies one position behind —
  // silently decoding another call's envelope. The client must re-dial
  // after DeadlineExceeded, exactly as after Unavailable.
  std::atomic<uint64_t> handled{0};
  TcpServer server;
  ASSERT_TRUE(server
                  .Start([&](const Bytes& request) -> Result<Bytes> {
                    uint64_t n = ++handled;
                    if (n == 1) {
                      // Sit on the first reply until far past the deadline.
                      std::this_thread::sleep_for(
                          std::chrono::milliseconds(200));
                    }
                    // A FetchPosts body whose one post carries the counter.
                    ssi::QueryPost post;
                    post.query_id = n;
                    Bytes body;
                    ByteWriter w(&body);
                    w.PutU32(1);
                    w.PutBytes(post.Encode());
                    return AnswerEach(request, EncodeReplyOk(body));
                  })
                  .ok());
  TcpTransport transport("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.deadline_seconds = 0.05;
  policy.backoff_seconds = 0.0001;
  SsiClient client(&transport, policy);

  // First call: the server stalls past every attempt's deadline. Whether it
  // fails or a retry squeaks through, no stale reply may survive it.
  (void)client.FetchPosts(1);
  // Let the server finish the delayed handler and flush the abandoned
  // replies; on the pre-fix client they now sit buffered on the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto n = client.FetchPosts(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(n->size(), 1u);
  // pre-fix: a stale earlier counter value
  EXPECT_EQ((*n)[0].query_id, handled.load());
}

TEST(SsiClientTest, ApplicationErrorsAreNeverRetried) {
  size_t calls = 0;
  SsiNode node;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    ++calls;
    return node.Handle(req);
  });
  RetryPolicy policy;
  policy.max_attempts = 5;
  SsiClient client(&transport, policy);

  // FetchPartition for a query nothing staged: a NotFound application error
  // rides inside an OK transport exchange and must not burn retry budget.
  auto partition = client.FetchPartition(/*query_id=*/99, /*token=*/0);
  EXPECT_TRUE(IsNotFound(partition.status())) << partition.status().ToString();
  EXPECT_EQ(calls, 1u);
}

TEST(SsiClientTest, FramesAndBytesAreCounted) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics);
  ASSERT_TRUE(client.FetchPosts(1).ok());
  auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("net.frames_sent"), 1u);
  EXPECT_EQ(counters.at("net.frames_received"), 1u);
  EXPECT_GT(counters.at("net.bytes_sent"), 0u);
  EXPECT_GT(counters.at("net.bytes_received"), 0u);
}

// ---------------------------------------------------------------------------
// SsiNode RPC surface: the transfer state behind the channel.

ssi::EncryptedItem MakeItem(uint8_t fill, bool tagged) {
  if (!tagged) return ssi::EncryptedItem(Bytes(8, fill));
  return ssi::EncryptedItem(Bytes(8, fill),
                            Bytes(4, static_cast<uint8_t>(fill ^ 0xFF)));
}

Bytes BlobOf(const ssi::EncryptedItem& item) {
  return Bytes(item.blob().begin(), item.blob().end());
}

std::optional<Bytes> TagOf(const ssi::EncryptedItem& item) {
  if (!item.routing_tag()) return std::nullopt;
  return Bytes(item.routing_tag()->begin(), item.routing_tag()->end());
}

/// Posts a global query with id `query_id` through `client`.
void PostQuery(SsiApi* client, uint64_t query_id) {
  ssi::QueryPost post;
  post.query_id = query_id;
  ASSERT_TRUE(client->PostGlobal(post).ok());
}

TEST(SsiNodeTest, PartitionStageFetchUploadTakeCycle) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  PostQuery(&client, 7);

  ssi::Partition partition;
  partition.items = {MakeItem(1, true), MakeItem(2, false)};
  ASSERT_TRUE(client.StagePartition(7, /*token=*/0, partition).ok());

  // Staged partitions survive a fetch (a re-dispatched TDS downloads again).
  for (int round = 0; round < 2; ++round) {
    auto fetched = client.FetchPartition(7, 0);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    ASSERT_EQ(fetched->items.size(), 2u);
    EXPECT_EQ(BlobOf(fetched->items[0]), BlobOf(partition.items[0]));
    EXPECT_EQ(TagOf(fetched->items[0]), TagOf(partition.items[0]));
    EXPECT_EQ(TagOf(fetched->items[1]), std::nullopt);
  }

  std::vector<ssi::EncryptedItem> output = {MakeItem(9, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, output).ok());
  auto taken = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(taken.ok());
  ASSERT_EQ(taken->size(), 1u);
  EXPECT_EQ(BlobOf((*taken)[0]), BlobOf(output[0]));

  // The token holds one exchange at a time. The upload replaced the staged
  // partition, the take is a plain read, and the next round's stage of the
  // token drops the output.
  EXPECT_TRUE(IsNotFound(client.FetchPartition(7, 0).status()));
  EXPECT_EQ(client.TakeRoundOutput(7, 0).ValueOrDie(), output);
  ASSERT_TRUE(client.StagePartition(7, 0, partition).ok());
  EXPECT_TRUE(IsNotFound(client.TakeRoundOutput(7, 0).status()));
  EXPECT_EQ(client.FetchPartition(7, 0).ValueOrDie().items, partition.items);
}

TEST(SsiNodeTest, EveryPerQueryVerbNeedsAPostedQuery) {
  // Only a post creates a query's record and only Retire removes it. Every
  // other per-query call on a never-posted or retired id is NotFound and
  // leaves no record behind.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::Partition partition;
  partition.items = {MakeItem(1, true)};
  auto expect_all_not_found = [&](uint64_t id) {
    EXPECT_TRUE(IsNotFound(client.Acknowledge(3, id)));
    EXPECT_TRUE(IsNotFound(client.UploadCollection(id, 3, partition.items)
                               .status()));
    EXPECT_TRUE(IsNotFound(client.TakeCollected(id).status()));
    EXPECT_TRUE(IsNotFound(client.StagePartition(id, 0, partition)));
    EXPECT_TRUE(IsNotFound(client.FetchPartition(id, 0).status()));
    EXPECT_TRUE(IsNotFound(client.UploadRoundOutput(id, 0, partition.items)));
    EXPECT_TRUE(IsNotFound(client.TakeRoundOutput(id, 0).status()));
    EXPECT_TRUE(IsNotFound(client.ObserveAggregation(id, partition.items)));
    EXPECT_TRUE(IsNotFound(client.DeliverResult(id, partition.items)));
    EXPECT_TRUE(IsNotFound(client.FetchResult(id).status()));
    EXPECT_TRUE(IsNotFound(client.GetAdversaryView(id).status()));
    EXPECT_TRUE(IsNotFound(client.Retire(id)));
    EXPECT_EQ(node.num_active_queries(), 0u);
  };
  {
    SCOPED_TRACE("never posted");
    expect_all_not_found(9);
  }
  PostQuery(&client, 9);
  ASSERT_TRUE(client.StagePartition(9, 0, partition).ok());
  ASSERT_TRUE(client.DeliverResult(9, partition.items).ok());
  EXPECT_EQ(node.num_active_queries(), 1u);
  ASSERT_TRUE(client.Retire(9).ok());
  {
    SCOPED_TRACE("retired");
    expect_all_not_found(9);
  }
}

/// Wraps an SsiNode handler so that frames whose first call is of
/// `duplicated_type` are delivered to the node twice, with the first reply
/// "lost" — exactly what a transport-level retry after a dropped reply does
/// to the server.
LoopbackTransport DuplicatingTransport(SsiNode* node, MsgType duplicated_type) {
  return LoopbackTransport([node, duplicated_type](
                               const Bytes& req) -> Result<Bytes> {
    Result<std::vector<BatchCall>> calls = DecodeBatchFrame(req);
    if (calls.ok() && !(*calls)[0].payload.empty() &&
        (*calls)[0].payload[0] == static_cast<uint8_t>(duplicated_type)) {
      (void)node->Handle(req);
    }
    return node->Handle(req);
  });
}

TEST(SsiNodeTest, DuplicateCollectionUploadIsNotDoubleCounted) {
  // kUploadCollection must be idempotent per (query, TDS): a retry after a
  // lost reply replays the first delivery's accept bit instead of appending
  // the contribution a second time and skewing the query result.
  SsiNode node;
  LoopbackTransport transport =
      DuplicatingTransport(&node, MsgType::kUploadCollection);
  SsiClient client(&transport);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());

  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false),
                                           MakeItem(2, false)};
  auto accepted = client.UploadCollection(5, /*tds_id=*/3, items);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(*accepted);
  EXPECT_TRUE(client.FetchPosts(3).ValueOrDie().empty());  // TDS 3 served
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 2u);  // pre-fix: 4 (contribution duplicated)
}

TEST(SsiNodeTest, RoundOutputTakeSurvivesDuplicateDelivery) {
  // The round-output take is a re-downloadable read: a retry after a lost
  // reply sees the same bytes, instead of NotFound dropping an
  // already-uploaded output as lost.
  SsiNode node;
  LoopbackTransport transport =
      DuplicatingTransport(&node, MsgType::kTakeRoundOutput);
  SsiClient client(&transport);
  PostQuery(&client, 7);

  std::vector<ssi::EncryptedItem> output = {MakeItem(9, true)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, output).ok());
  auto taken = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();  // pre-fix: NotFound
  ASSERT_EQ(taken->size(), 1u);
  EXPECT_EQ(BlobOf((*taken)[0]), BlobOf(output[0]));
}

TEST(SsiNodeTest, ResultFetchIsIdempotentUntilRetire) {
  // A re-fetch after a lost reply must see the same result (the final
  // download is retry-safe); only Retire removes it.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  PostQuery(&client, 11);

  std::vector<ssi::EncryptedItem> result = {MakeItem(3, false),
                                            MakeItem(4, true)};
  ASSERT_TRUE(client.DeliverResult(11, result).ok());
  for (int fetch = 0; fetch < 2; ++fetch) {
    auto fetched = client.FetchResult(11);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->size(), 2u);
    EXPECT_EQ(TagOf((*fetched)[1]), TagOf(result[1]));
  }
  ASSERT_TRUE(client.Retire(11).ok());
  EXPECT_TRUE(IsNotFound(client.FetchResult(11).status()));
}

TEST(SsiNodeTest, RetireClearsTransferState) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  PostQuery(&client, 21);

  ssi::Partition partition;
  partition.items = {MakeItem(5, false)};
  ASSERT_TRUE(client.StagePartition(21, 0, partition).ok());
  ASSERT_TRUE(client.DeliverResult(21, partition.items).ok());
  // Retire drops the transfer remnants with the record, so lost partitions
  // cannot outlive their query inside the SSI.
  ASSERT_TRUE(client.Retire(21).ok());
  EXPECT_TRUE(IsNotFound(client.FetchPartition(21, 0).status()));
  EXPECT_TRUE(IsNotFound(client.FetchResult(21).status()));
}

TEST(SsiNodeTest, NodeStoresEveryUploadWhateverTheSizeClause) {
  // The SSI sees the cleartext SIZE clause but does not enforce it: the
  // querier's session, which decides what to upload, is the one owner of
  // the collection window. Until the take, every upload is accepted.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  post.size_max_tuples = 3;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  EXPECT_TRUE(
      client.UploadCollection(1, 1, {MakeItem(1, false), MakeItem(2, false)})
          .ValueOrDie());
  EXPECT_TRUE(client.UploadCollection(1, 2, {MakeItem(3, false)}).ValueOrDie());
  EXPECT_TRUE(client.UploadCollection(1, 3, {MakeItem(4, false)}).ValueOrDie());
  EXPECT_EQ(client.TakeCollected(1).ValueOrDie().size(), 4u);
}

TEST(SsiNodeTest, AdversaryViewRecordsTagHistogram) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ssi::EncryptedItem untagged(Bytes(16, 4));
  ASSERT_TRUE(client
                  .UploadCollection(1, 1,
                                    {MakeItem(1, true), MakeItem(1, true),
                                     MakeItem(3, true), untagged})
                  .ok());
  auto view = client.GetAdversaryView(1);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->collection_items, 4u);
  ASSERT_EQ(view->collection_tag_histogram.size(), 2u);
  EXPECT_EQ(view->collection_tag_histogram.at(*TagOf(MakeItem(1, true))),
            2u);
  EXPECT_EQ(view->collection_tag_histogram.at(*TagOf(MakeItem(3, true))),
            1u);
  ASSERT_EQ(view->collection_blob_sizes.size(), 4u);
  EXPECT_EQ(view->collection_blob_sizes[3], 16u);
}

TEST(SsiNodeTest, GlobalAndPersonalRouting) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost global;
  global.query_id = 1;
  ssi::QueryPost personal;
  personal.query_id = 2;
  ASSERT_TRUE(client.PostGlobal(global).ok());
  ASSERT_TRUE(client.PostPersonal(7, personal).ok());

  EXPECT_EQ(client.FetchPosts(7).ValueOrDie().size(), 2u);  // global + own
  EXPECT_EQ(client.FetchPosts(8).ValueOrDie().size(), 1u);  // global only
  ASSERT_TRUE(client.Acknowledge(7, 1).ok());
  auto posts = client.FetchPosts(7).ValueOrDie();
  ASSERT_EQ(posts.size(), 1u);
  EXPECT_EQ(posts[0].query_id, 2u);
  ASSERT_TRUE(client.Acknowledge(7, 2).ok());
  EXPECT_TRUE(client.FetchPosts(7).ValueOrDie().empty());
  EXPECT_EQ(client.FetchPosts(8).ValueOrDie().size(), 1u);  // others unaffected
}

TEST(SsiNodeTest, DuplicateIdRejectedAndRetire) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  EXPECT_TRUE(IsInvalidArgument(client.PostGlobal(post)));
  EXPECT_TRUE(client.GetAdversaryView(5).ok());
  EXPECT_TRUE(IsNotFound(client.GetAdversaryView(6).status()));
  EXPECT_EQ(node.num_active_queries(), 1u);
  ASSERT_TRUE(client.Retire(5).ok());
  EXPECT_TRUE(IsNotFound(client.GetAdversaryView(5).status()));
  EXPECT_EQ(node.num_active_queries(), 0u);
}

TEST(SsiNodeTest, PerQueryStorageIsIndependent) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost a, b;
  a.query_id = 1;
  b.query_id = 2;
  ASSERT_TRUE(client.PostGlobal(a).ok());
  ASSERT_TRUE(client.PostGlobal(b).ok());
  ASSERT_TRUE(client.UploadCollection(1, 3, {MakeItem(1, false)}).ok());
  EXPECT_EQ(client.GetAdversaryView(1).ValueOrDie().collection_items, 1u);
  EXPECT_EQ(client.GetAdversaryView(2).ValueOrDie().collection_items, 0u);
  EXPECT_EQ(client.TakeCollected(1).ValueOrDie().size(), 1u);
  EXPECT_TRUE(client.TakeCollected(2).ValueOrDie().empty());
}

TEST(SsiNodeTest, EachServedTdsIsRecordedOnce) {
  // One served-map entry per TDS, whether it uploaded or only acknowledged,
  // and a later acknowledgement of an uploader adds nothing.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  EXPECT_TRUE(client.UploadCollection(1, 3, {MakeItem(1, false)}).ValueOrDie());
  ASSERT_TRUE(client.Acknowledge(4, 1).ok());
  ASSERT_TRUE(client.Acknowledge(3, 1).ok());
  EXPECT_TRUE(client.FetchPosts(3).ValueOrDie().empty());
  EXPECT_TRUE(client.FetchPosts(4).ValueOrDie().empty());
  auto posts = client.FetchPosts(5).ValueOrDie();
  ASSERT_EQ(posts.size(), 1u);
  EXPECT_EQ(posts[0].query_id, 1u);
  // A TDS acknowledged without an upload may still contribute once.
  EXPECT_TRUE(client.UploadCollection(1, 4, {MakeItem(2, false)}).ValueOrDie());
  EXPECT_TRUE(client.FetchPosts(4).ValueOrDie().empty());
  EXPECT_EQ(client.TakeCollected(1).ValueOrDie().size(), 2u);
}

TEST(SsiNodeTest, GarbageRequestFrameIsCorruption) {
  SsiNode node;
  auto reply = node.Handle(MakeBytes({0xEE, 0x01, 0x02}));
  EXPECT_TRUE(IsCorruption(reply.status())) << reply.status().ToString();
}

TEST(SsiNodeTest, BareSingleCallFrameIsCorruption) {
  // There is one frame format: a well-formed call outside a batch envelope
  // is rejected like any undecodable frame, and the same call inside a
  // batch of one is served.
  SsiNode node;
  auto bare = node.Handle(FetchPostsRequest(1));
  EXPECT_TRUE(IsCorruption(bare.status())) << bare.status().ToString();
  const Bytes call = FetchPostsRequest(1);
  auto batched = node.Handle(EncodeBatchFrame({BatchCall{1, call}}));
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
}

// The same node is reachable over a real socket: the full client surface
// against a TCP server, including an error envelope crossing the wire.
TEST(SsiNodeTest, ServesOverTcp) {
  SsiNode node;
  TcpServer server;
  ASSERT_TRUE(server.Start(node.handler()).ok());
  TcpTransport transport("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.deadline_seconds = 5.0;
  SsiClient client(&transport, policy);
  PostQuery(&client, 31);

  ssi::Partition partition;
  partition.items = {MakeItem(6, true)};
  ASSERT_TRUE(client.StagePartition(31, 2, partition).ok());
  auto fetched = client.FetchPartition(31, 2);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  ASSERT_EQ(fetched->items.size(), 1u);
  EXPECT_EQ(BlobOf(fetched->items[0]), BlobOf(partition.items[0]));
  EXPECT_TRUE(IsNotFound(client.FetchPartition(31, 99).status()));
}

TEST(SsiNodeTest, UploadAfterTakeIsNotAcceptedOrObserved) {
  // The take closes the storage area: a later upload is recorded as served
  // with accept bit 0 and never observed. Before the fix it was accepted,
  // counted in the view, and then lost — the replayed take never returned
  // it.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  EXPECT_TRUE(client.UploadCollection(1, 1, {MakeItem(1, false)}).ValueOrDie());
  ASSERT_EQ(client.TakeCollected(1).ValueOrDie().size(), 1u);

  EXPECT_FALSE(
      client.UploadCollection(1, 2, {MakeItem(2, false)}).ValueOrDie());
  EXPECT_TRUE(client.FetchPosts(1).ValueOrDie().empty());
  EXPECT_TRUE(client.FetchPosts(2).ValueOrDie().empty());
  EXPECT_EQ(client.GetAdversaryView(1).ValueOrDie().collection_items, 1u);
  auto retaken = client.TakeCollected(1);
  ASSERT_TRUE(retaken.ok()) << retaken.status().ToString();
  ASSERT_EQ(retaken->size(), 1u);
  EXPECT_EQ((*retaken)[0], MakeItem(1, false));
}

/// One call's request payload: the MsgType byte, u64 fields, then `tail`.
Bytes RawCall(MsgType type, std::initializer_list<uint64_t> fields,
              const Bytes& tail) {
  Bytes call;
  ByteWriter w(&call);
  w.PutU8(static_cast<uint8_t>(type));
  for (uint64_t field : fields) w.PutU64(field);
  w.PutRaw(tail.data(), tail.size());
  return call;
}

TEST(SsiNodeTest, HostileItemVectorsAreCorruptionAndChangeNothing) {
  // Every call that hands the node an item vector goes through the one
  // validating scan: a malformed vector is Corruption (the transport drops
  // the connection) and leaves no trace in the node's state.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 7;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  const std::vector<ssi::EncryptedItem> honest = {MakeItem(1, true),
                                                  MakeItem(2, false)};
  ASSERT_TRUE(client.UploadCollection(7, 3, honest).ValueOrDie());
  ssi::Partition staged;
  staged.items = honest;
  ASSERT_TRUE(client.StagePartition(7, 2, staged).ok());
  ASSERT_TRUE(client.UploadRoundOutput(7, 3, honest).ok());
  ASSERT_TRUE(client.DeliverResult(7, honest).ok());
  Bytes view_before;
  client.GetAdversaryView(7).ValueOrDie().EncodeTo(&view_before);

  const std::vector<std::pair<std::string, Bytes>> hostile = {
      // Two items declared, bytes for one (5-byte minimum per item).
      {"count over bound", MakeBytes({2, 0, 0, 0, 0, 0, 0, 0, 0})},
      {"tag flag 2", MakeBytes({1, 0, 0, 0, 2, 0, 0, 0, 0})},
      {"truncated tag", MakeBytes({1, 0, 0, 0, 1, 4, 0, 0, 0, 0xAA, 0xBB})},
      {"truncated blob", MakeBytes({1, 0, 0, 0, 0, 8, 0, 0, 0, 1, 2, 3})},
      {"trailing byte", MakeBytes({1, 0, 0, 0, 0, 1, 0, 0, 0, 9, 0})},
  };
  for (const auto& [name, body] : hostile) {
    SCOPED_TRACE(name);
    const std::vector<Bytes> calls = {
        RawCall(MsgType::kUploadCollection, {7, 4}, body),
        RawCall(MsgType::kStagePartition, {7, 2}, body),
        RawCall(MsgType::kUploadRoundOutput, {7, 3}, body),
        RawCall(MsgType::kDeliverResult, {7}, body),
    };
    for (const Bytes& call : calls) {
      auto reply = node.Handle(EncodeBatchFrame({BatchCall{1, call}}));
      EXPECT_TRUE(IsCorruption(reply.status()))
          << "MsgType " << int{call[0]} << ": " << reply.status().ToString();
    }
  }

  EXPECT_TRUE(client.FetchPosts(3).ValueOrDie().empty());
  EXPECT_EQ(client.FetchPosts(4).ValueOrDie().size(), 1u);  // not served
  Bytes view_after;
  client.GetAdversaryView(7).ValueOrDie().EncodeTo(&view_after);
  EXPECT_EQ(view_after, view_before);
  EXPECT_EQ(client.FetchPartition(7, 2).ValueOrDie().items, honest);
  EXPECT_EQ(client.TakeRoundOutput(7, 3).ValueOrDie(), honest);
  EXPECT_EQ(client.FetchResult(7).ValueOrDie(), honest);
  EXPECT_EQ(client.TakeCollected(7).ValueOrDie(), honest);
}

TEST(SsiNodeTest, ItemVectorWireBytesArePinned) {
  // Golden bytes for every call that carries an item vector, one way or the
  // other: a fixed 3-item vector (tagged, untagged, empty blob) crosses the
  // node, and each request payload and reply envelope must match the
  // literals below byte for byte. The node may store and serve items any
  // way it likes; what crosses the wire may not move.
  SsiNode node;
  std::map<uint8_t, Bytes> requests;
  std::map<uint8_t, Bytes> replies;
  LoopbackTransport transport([&](const Bytes& frame) -> Result<Bytes> {
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                            DecodeBatchFrame(frame));
    TCELLS_ASSIGN_OR_RETURN(Bytes reply, node.Handle(frame));
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> answers,
                            DecodeBatchFrame(reply));
    for (size_t i = 0; i < calls.size() && i < answers.size(); ++i) {
      requests[calls[i].payload[0]] = calls[i].payload;
      replies[calls[i].payload[0]] = answers[i].payload;
    }
    return reply;
  });
  SsiClient client(&transport);

  const ssi::EncryptedItem tagged(MakeBytes({0x10, 0x11, 0x12}),
                                  MakeBytes({0xA0, 0xA1}));
  const ssi::EncryptedItem untagged(MakeBytes({0x20, 0x21}));
  const ssi::EncryptedItem empty_blob(Bytes{}, MakeBytes({0xC0}));
  const std::vector<ssi::EncryptedItem> items = {tagged, untagged, empty_blob};
  ssi::Partition partition;
  partition.items = items;

  ssi::QueryPost post;
  post.query_id = 7;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.UploadCollection(7, 3, items).ValueOrDie());
  ASSERT_EQ(client.TakeCollected(7).ValueOrDie(), items);
  ASSERT_TRUE(client.StagePartition(7, 2, partition).ok());
  ASSERT_EQ(client.FetchPartition(7, 2).ValueOrDie().items, items);
  ASSERT_TRUE(client.UploadRoundOutput(7, 2, items).ok());
  ASSERT_EQ(client.TakeRoundOutput(7, 2).ValueOrDie(), items);
  ASSERT_TRUE(client.ObserveAggregation(7, items).ok());
  ASSERT_TRUE(client.DeliverResult(7, items).ok());
  ASSERT_EQ(client.FetchResult(7).ValueOrDie(), items);

  // u32 count; per item u8 tag flag, [u32-len tag], u32-len blob.
  const std::string kItems =
      "03000000"
      "01" "02000000" "a0a1" "03000000" "101112"
      "00" "02000000" "2021"
      "01" "01000000" "c0" "00000000";
  const std::string kQuery = "0700000000000000";
  const std::string kTds = "0300000000000000";
  const std::string kToken = "0200000000000000";
  const std::map<MsgType, std::string> want_requests = {
      {MsgType::kUploadCollection, "07" + kQuery + kTds + kItems},
      {MsgType::kStagePartition, "09" + kQuery + kToken + kItems},
      {MsgType::kUploadRoundOutput, "0b" + kQuery + kToken + kItems},
      {MsgType::kObserveAggregation, "0d" + kQuery + kItems},
      {MsgType::kDeliverResult, "0f" + kQuery + kItems},
  };
  // Each reply envelope: u8 status OK, then the item vector.
  const std::map<MsgType, std::string> want_replies = {
      {MsgType::kTakeCollected, "00" + kItems},
      {MsgType::kFetchPartition, "00" + kItems},
      {MsgType::kTakeRoundOutput, "00" + kItems},
      {MsgType::kFetchResult, "00" + kItems},
  };
  for (const auto& [type, hex] : want_requests) {
    EXPECT_EQ(ToHex(requests[static_cast<uint8_t>(type)]), hex)
        << "request of MsgType " << static_cast<int>(type);
  }
  for (const auto& [type, hex] : want_replies) {
    EXPECT_EQ(ToHex(replies[static_cast<uint8_t>(type)]), hex)
        << "reply to MsgType " << static_cast<int>(type);
  }
}

// ---------------------------------------------------------------------------
// Wire pinning: what a client session puts on the wire, frame by frame.

TEST(SsiWireTest, FramesArePinned) {
  // A scripted session that sends every live MsgType, draws one
  // application-error reply and ships one 8-call frame. The SHA-256 of every
  // request and reply frame must match the digests below: however the
  // client and node build and read their frames, the bytes may not move.
  SsiNode node;
  std::vector<std::string> frames;
  LoopbackTransport transport([&](const Bytes& request) -> Result<Bytes> {
    TCELLS_ASSIGN_OR_RETURN(Bytes reply, node.Handle(request));
    const auto request_digest = crypto::Sha256::Hash(request);
    const auto reply_digest = crypto::Sha256::Hash(reply);
    frames.push_back(ToHex(request_digest.data(), request_digest.size()) +
                     " " + ToHex(reply_digest.data(), reply_digest.size()));
    return reply;
  });
  BatchOptions batching;
  batching.max_calls_per_frame = 8;
  SsiClient client(&transport, RetryPolicy{}, nullptr, batching);

  const ssi::EncryptedItem tagged(MakeBytes({0x10, 0x11, 0x12}),
                                  MakeBytes({0xA0, 0xA1}));
  const ssi::EncryptedItem untagged(MakeBytes({0x20, 0x21}));
  const std::vector<ssi::EncryptedItem> items = {tagged, untagged};
  ssi::Partition partition;
  partition.items = items;

  ssi::QueryPost global;
  global.query_id = 7;
  global.encrypted_query = MakeBytes({0x51, 0x52, 0x53, 0x54});
  global.querier_id = "querier";
  global.credential_mac = MakeBytes({0xC1, 0xC2});
  global.size_max_tuples = 100;
  ssi::QueryPost personal;
  personal.query_id = 8;
  personal.encrypted_query = MakeBytes({0x61});
  personal.querier_id = "q";
  personal.size_max_duration_ticks = 3;
  personal.key_posting =
      ssi::QueryKeyPosting{2, 8, Bytes(ssi::QueryKeyPosting::kNonceSize, 0x4e)};

  ASSERT_TRUE(client.PostGlobal(global).ok());
  ASSERT_TRUE(client.PostPersonal(5, personal).ok());
  ASSERT_TRUE(client.PostEpochBlock(MakeBytes({0xE0, 0xE1, 0xE2})).ok());
  ASSERT_EQ(client.FetchEpochBlock(3).ValueOrDie(),
            MakeBytes({0xE0, 0xE1, 0xE2}));
  ASSERT_EQ(client.FetchPosts(3).ValueOrDie().size(), 1u);
  std::vector<Result<std::vector<ssi::QueryPost>>> posts =
      client.FetchPostsBatch({1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_EQ(posts.size(), 8u);
  ASSERT_EQ(posts[4].ValueOrDie().size(), 2u);
  ASSERT_TRUE(client.Acknowledge(4, 7).ok());
  ASSERT_TRUE(client.UploadCollection(7, 3, items).ValueOrDie());
  ASSERT_EQ(client.TakeCollected(7).ValueOrDie(), items);
  ASSERT_TRUE(client.StagePartition(7, 2, partition).ok());
  ASSERT_EQ(client.FetchPartition(7, 2).ValueOrDie().items, items);
  ASSERT_TRUE(client.UploadRoundOutput(7, 2, items).ok());
  ASSERT_EQ(client.TakeRoundOutput(7, 2).ValueOrDie(), items);
  ASSERT_TRUE(client.ObserveAggregation(7, items).ok());
  ASSERT_TRUE(client.DeliverResult(7, items).ok());
  ASSERT_EQ(client.FetchResult(7).ValueOrDie(), items);
  ASSERT_EQ(client.GetAdversaryView(7).ValueOrDie().collection_items, 2u);
  ASSERT_TRUE(IsNotFound(client.FetchPartition(7, 99).status()));
  ASSERT_TRUE(client.Retire(7).ok());
  ASSERT_TRUE(client.Retire(8).ok());

  // One "request-digest reply-digest" line per frame, in session order.
  const std::vector<std::string> want = {
      "6fa146acabd4154df8c4c864cdf5ea7402fd578d4ede865fbfb0c0e5da77550e"
      " 236bc39db406da35999a3a7d427cd4c00a52d012c228257420ed9b74836ab584",
      "b99d8ec8dd88b78dabe5f120d66b4f938c19a1847e6ef54b93eef922844071b9"
      " 56cc55f6c733192fb68d54500e391f9f5e8cbec156bd48ffc2b891f125dcde63",
      "1e85219b6bf157a252fc502ea14cfd4d03550e862031e910f6b254043be9b594"
      " e88d5bc134808c4bfa495e205351230b46a7725f41a9cf96ee9fa6ad530e0b9a",
      "650e65880f427404515f5eab33bbd6e73cd7a3026bbc2434a4abcce70d9beee1"
      " 74a3db5aa89f45a13180f06a66df191ce5ac8102925e7455c98f76162e9033b5",
      "d067e5a4fd058955c0e0be98cde77a40ae330331360dbd345f7cd255a9d2ac41"
      " a2a5f9ce945ec8d16eb02ff39ec895c3ea9389cc48b38170dc037c40fccc782d",
      "efe15a9655dd26024d5734f172283367399d5edc43d20712359b71d9d9c2c433"
      " d85592a22dd04a19727ef3bec6969767e8790552efa517cc2a03f7ab991f6e0a",
      "bd4d1fe4411e4e6f7202897c57f64447b12704de6c9be182cb4b10c7d56b47af"
      " 803bcc8714bbc21dfa70242c001187375af09445d44eca87398ffbfa632f2881",
      "3464163e6e2d7fa30ce8939b3ed03179f72484f6a4dadcdb81a4010b8d71ac21"
      " 7e1f8d96ac48311dc7c995aa79281d9f05b42866b3c6aa52b229bc99557f8053",
      "bcc8f48fca230e76984511305ce1deceb6acdff94547eed223d3b745427407c6"
      " 9ea38b7fa34e6c2b2d017685225fc9ae9459bb62dbe6d9373d005728ef9d3683",
      "3f6963a84684edb7ef8825c06ea24b8f807baf29bbb8d044464486fe66e0638b"
      " 518a88e2fe62e7bbaef45d8b98c8bd05c9cc8188e22975c13343651afe58eddd",
      "c755a820e5c1620fc04f961cbdd232ceeaf6056da0ae042b83ecddfc14b0caf8"
      " 215773fed2ae28ce2541d17dfbc3b4782434eb081b4f9f3c5370ea1b1fdb7938",
      "df6058676f257b81660ae87341fe5887d7271edb7bd462357088b558ea46ffe5"
      " 617e9aa0f1458d7409661b1c943d9a57a1a4c4b273c32494e1aee284f8717b21",
      "934fa8ecf2d77eda8fdc59aa0285707523f13af1a1e0449ffca67725ca7b0033"
      " 76dff8a8a531b3157ff2098b3fae0400c3ef685ca81e60f1cdb9644e72cf2a10",
      "e944bb7c92c9184930e277212c1a5697be907c55d515ff707c8c2311c7b0ada9"
      " 2285d4a4e44524ed49fb85aeeeddfb13df0f1ecdfe40a59c0adb39f1df52e3cc",
      "bbee8695957dab92ba7254e71d13db626eed569d00ff8e732c9e83b32a0289c7"
      " 9a7df7f3053a90e3f9a0e536b5e5ee053a50e5fc94003a1ccbb1a6cef12400b8",
      "2bd088f55fb125cad40c1137105beeb50e4563a22474d739622dd19fc72b3202"
      " 1272601ca1a0ee343003cf4420bb5b7b5d74a4edf9e0a8e27b33d259f8983372",
      "975999d65d38a924405581663445f64dc6e7c72f84895a73d432be70c7479048"
      " b1e91c836fbf325be103de5cd955a4468cf467b83345b702b08e8eb93cb94b31",
      "23f6dd8fcf110dc5ec21c93ead33ba76d34d6a310cd8ce03fb5c8a2dbd500ae6"
      " ee7146589a704b5383192fc5294b4bf3040b84438bdca86d02ad281d5489eb3f",
      "05d2f114adf333a5116c7a5c4637951f27185cfb0a0f7d4431b195206c9835f9"
      " ec2f8e66b1a5fe4942a5ea8f040ea930eafe2eef2b6238ff81158962d220db66",
      "8979a60db1b8a9efe8e3e06e2b9fb0a838eb7f2342d91eaf2aaf19aa7b0f1afd"
      " becba30d96e879f63116ea9afff65cf5a0de3506501aecc9f35ff8ba27947c05",
  };
  EXPECT_EQ(frames, want);
}

// ---------------------------------------------------------------------------
// FaultyTransport: the deterministic fault-injection decorator.

TEST(FaultyTransportTest, DroppedRequestIsRetriedAndCounted) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kFetchPosts,
                                   FaultKind::kDropRequest));
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics);

  auto n = client.FetchPosts(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 1u);
  EXPECT_EQ(faulty.injected_count(), 1u);
  ASSERT_EQ(faulty.events().size(), 1u);
  EXPECT_EQ(faulty.events()[0].kind, FaultKind::kDropRequest);
}

TEST(FaultyTransportTest, DroppedReplyStillReachesTheServer) {
  // drop_reply models the server processing the request but the reply frame
  // dying on the way back: the acknowledgement reaches the server, and the
  // client's retry of it succeeds.
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kAcknowledge,
                                   FaultKind::kDropReply));
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics);

  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.Acknowledge(/*tds_id=*/3, /*query_id=*/1).ok());
  auto n = client.FetchPosts(3);
  ASSERT_TRUE(n.ok());
  EXPECT_TRUE(n->empty());  // TDS 3 is recorded as served
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 1u);
}

TEST(FaultyTransportTest, TruncatedReplyIsCorruption) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kFetchPosts,
                                   FaultKind::kTruncate));
  SsiClient client(&faulty);
  auto n = client.FetchPosts(1);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(IsCorruption(n.status())) << n.status().ToString();
}

TEST(FaultyTransportTest, DuplicateDeliveryDoesNotDoubleCountMetrics) {
  // Satellite regression: a duplicated kUploadCollection reaches the node
  // twice; the accept bit must be replayed, the contribution stored once,
  // and net.retries untouched (the client made a single call).
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kUploadCollection,
                                   FaultKind::kDuplicate));
  obs::MetricsRegistry metrics;
  SsiClient client(&faulty, RetryPolicy{}, &metrics);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false),
                                           MakeItem(2, false)};
  auto accepted = client.UploadCollection(5, /*tds_id=*/3, items);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_TRUE(*accepted);
  EXPECT_TRUE(client.FetchPosts(3).ValueOrDie().empty());  // TDS 3 served
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 2u);
  EXPECT_EQ(metrics.snapshot().counters.count("net.retries"), 0u);
}

TEST(FaultyTransportTest, DuplicatedCollectionTakeReplaysTheSameBytes) {
  // Regression for a campaign-discovered bug: kTakeCollected drains the
  // storage, so a duplicated delivery used to hand the client the second
  // (empty) reply — the whole collection silently vanished. The node now
  // replays the first take's bytes.
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kTakeCollected,
                                   FaultKind::kDuplicate));
  SsiClient client(&faulty);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false),
                                           MakeItem(2, false)};
  ASSERT_TRUE(client.UploadCollection(5, 3, items).ok());
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  EXPECT_EQ(collected->size(), 2u);  // pre-fix: 0 (drained by the duplicate)
}

TEST(FaultyTransportTest, DisconnectKillsTheChannelUntilRedial) {
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultyTransport faulty(&inner,
                         ScriptOne(MsgType::kFetchPosts,
                                   FaultKind::kDisconnect));
  obs::MetricsRegistry metrics;
  VirtualClock vclock;
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics);

  // The client re-dials on Unavailable, so the retry lands on a fresh
  // channel and succeeds.
  auto n = client.FetchPosts(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(metrics.snapshot().counters.at("net.retries"), 1u);
}

TEST(FaultyTransportTest, BitFlipIsDeterministicForTheSameSeed) {
  // Two transports with identical plans corrupt identical bits; a different
  // seed picks a different fault schedule. The decision is a pure function
  // of (seed, type, key, attempt) — never of arrival order.
  FaultPlan plan;
  plan.seed = 42;
  plan.per_type[MsgType::kFetchPosts].bit_flip = 1.0;

  std::string logs[2];
  for (int run = 0; run < 2; ++run) {
    SsiNode node;
    LoopbackTransport inner(node.handler());
    FaultyTransport faulty(&inner, plan);
    SsiClient client(&faulty);
    (void)client.FetchPosts(1);
    (void)client.FetchPosts(2);
    logs[run] = faulty.CanonicalLog();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

TEST(FaultyTransportTest, DelayConsumesVirtualTimeOnly) {
  FaultPlan plan = ScriptOne(MsgType::kFetchPosts, FaultKind::kDelay);
  plan.delay_seconds = 0.5;
  SsiNode node;
  LoopbackTransport inner(node.handler());
  VirtualClock vclock;
  FaultyTransport faulty(&inner, plan, &vclock);
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy);

  auto n = client.FetchPosts(1);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_DOUBLE_EQ(vclock.total_slept_seconds(), 0.5);
}

// ---------------------------------------------------------------------------
// ByzantineProxy: application-level lies from a hostile SSI.

TEST(ByzantineProxyTest, ForgedAcceptByteLeavesServerUntouched) {
  TamperPlan plan;
  plan.forge_accept_byte = true;
  ByzantineProxy proxy(plan);
  SsiNode node(proxy.filter());
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<ssi::EncryptedItem> items = {MakeItem(1, false)};
  auto accepted = client.UploadCollection(5, 3, items);
  ASSERT_TRUE(accepted.ok());
  // The proxy lies "rejected"; the server actually stored the contribution.
  EXPECT_FALSE(*accepted);
  EXPECT_EQ(proxy.stats().forged_accepts, 1u);
  auto collected = client.TakeCollected(5);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 1u);
}

TEST(ByzantineProxyTest, ReplayedRoundOutputIsServedOnLaterTakes) {
  TamperPlan plan;
  plan.replay_round_output = true;
  ByzantineProxy proxy(plan);
  SsiNode node(proxy.filter());
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport);
  PostQuery(&client, 7);

  std::vector<ssi::EncryptedItem> round1 = {MakeItem(1, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, round1).ok());
  auto take1 = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(take1.ok());

  std::vector<ssi::EncryptedItem> round2 = {MakeItem(2, false)};
  ASSERT_TRUE(client.UploadRoundOutput(7, 0, round2).ok());
  auto take2 = client.TakeRoundOutput(7, 0);
  ASSERT_TRUE(take2.ok());
  // The proxy served round 1's recorded bytes instead of round 2's upload —
  // exactly what the engine's digest check must catch.
  ASSERT_EQ(take2->size(), 1u);
  EXPECT_EQ(BlobOf((*take2)[0]), BlobOf(round1[0]));
  EXPECT_EQ(proxy.stats().replayed_round_outputs, 1u);
}

TEST(ByzantineProxyTest, LiesApplyToEveryCallOfABatchFrame) {
  // The proxy wraps the node's per-call dispatch, so a frame of many calls
  // is lied about call by call, exactly as the same calls one per frame.
  TamperPlan plan;
  plan.forge_accept_byte = true;
  ByzantineProxy proxy(plan);
  SsiNode node(proxy.filter());
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  BatchOptions batch;
  batch.max_calls_per_frame = 8;
  SsiClient client(&transport, RetryPolicy{}, &metrics, batch);

  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<CollectionUpload> uploads;
  for (uint64_t tds = 0; tds < 3; ++tds) {
    uploads.push_back(CollectionUpload{5, tds, {MakeItem(1, false)}});
  }
  const uint64_t frames_before = metrics.counter("net.frames_sent").value();
  for (const Result<bool>& accepted : client.UploadCollectionBatch(uploads)) {
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    EXPECT_FALSE(*accepted);
  }
  EXPECT_EQ(metrics.counter("net.frames_sent").value() - frames_before, 1u);
  EXPECT_EQ(proxy.stats().forged_accepts, 3u);
}

// ---------------------------------------------------------------------------
// Shard router.

TEST(ShardedSsiClientTest, TakeCollectedReplaysSubmissionOrder) {
  // The router routes and logs; it enforces no SIZE bound. Sent one call at
  // a time or as one batch, at one shard or two, every upload is accepted
  // and the take serves the items in submission order — the arrival order
  // one node would have stored.
  auto collect = [](size_t num_shards, bool batched) {
    SsiNode node0, node1;
    LoopbackTransport transport0(node0.handler()), transport1(node1.handler());
    SsiClient client0(&transport0), client1(&transport1);
    std::vector<SsiApi*> shards = {&client0, &client1};
    shards.resize(num_shards);
    ShardedSsiClient router(shards);
    ssi::QueryPost post;
    post.query_id = 5;
    post.size_max_tuples = 5;
    EXPECT_TRUE(router.PostGlobal(post).ok());
    std::vector<CollectionUpload> uploads;
    std::vector<ssi::EncryptedItem> submitted;
    unsigned shards_hit = 0;
    for (uint8_t tds = 0; tds < 8; ++tds) {
      uploads.push_back({5, tds, {MakeItem(tds, false), MakeItem(tds, true)}});
      submitted.insert(submitted.end(), uploads.back().items.begin(),
                       uploads.back().items.end());
      shards_hit |= 1u << router.ShardOfTds(tds);
    }
    if (num_shards == 2) {
      EXPECT_EQ(shards_hit, 3u);  // both shards take uploads
    }
    std::vector<Result<bool>> replies;
    if (batched) {
      replies = router.UploadCollectionBatch(uploads);
    } else {
      for (const CollectionUpload& u : uploads) {
        replies.push_back(router.UploadCollection(5, u.tds_id, u.items));
      }
    }
    for (const Result<bool>& r : replies) EXPECT_TRUE(r.ValueOrDie());
    EXPECT_EQ(router.TakeCollected(5).ValueOrDie(), submitted);
  };
  for (size_t num_shards : {1, 2}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    collect(num_shards, false);
    collect(num_shards, true);
  }
}

/// A shard that answers only the first `answered` calls of every batch.
class ShortReplyingClient : public SsiClient {
 public:
  ShortReplyingClient(Transport* transport, size_t answered)
      : SsiClient(transport), answered_(answered) {}

  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override {
    auto replies = SsiClient::FetchPostsBatch(tds_ids);
    replies.erase(replies.begin() + std::min(replies.size(), answered_),
                  replies.end());
    return replies;
  }
  std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<CollectionUpload>& uploads) override {
    auto replies = SsiClient::UploadCollectionBatch(uploads);
    replies.erase(replies.begin() + std::min(replies.size(), answered_),
                  replies.end());
    return replies;
  }

 private:
  size_t answered_;
};

TEST(ShardedSsiClientTest, ShortShardRepliesLeaveExactlyTheirSlotsUnavailable) {
  // Shard 1 answers only the first 2 calls of each batch it is sent. The
  // router hands every other slot its own reply, and exactly shard 1's
  // unanswered slots come back Unavailable.
  SsiNode node0, node1;
  LoopbackTransport transport0(node0.handler()), transport1(node1.handler());
  SsiClient client0(&transport0);
  ShortReplyingClient client1(&transport1, /*answered=*/2);
  ShardedSsiClient router({&client0, &client1});
  ssi::QueryPost post;
  post.query_id = 5;
  ASSERT_TRUE(router.PostGlobal(post).ok());

  std::vector<uint64_t> ids;
  std::vector<CollectionUpload> uploads;
  for (uint8_t tds = 0; tds < 12; ++tds) {
    ids.push_back(tds);
    uploads.push_back({5, tds, {MakeItem(tds, false)}});
  }
  // Which slots shard 1 leaves unanswered: all of its slots after its 2nd.
  std::vector<bool> unanswered(ids.size(), false);
  size_t on_shard1 = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (router.ShardOfTds(ids[i]) == 1 && ++on_shard1 > 2) {
      unanswered[i] = true;
    }
  }
  ASSERT_GT(on_shard1, 2u);
  ASSERT_LT(on_shard1, ids.size());

  auto posts = router.FetchPostsBatch(ids);
  ASSERT_EQ(posts.size(), ids.size());
  auto accepts = router.UploadCollectionBatch(uploads);
  ASSERT_EQ(accepts.size(), uploads.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(i));
    if (unanswered[i]) {
      EXPECT_TRUE(IsUnavailable(posts[i].status()));
      EXPECT_TRUE(IsUnavailable(accepts[i].status()));
    } else {
      ASSERT_TRUE(posts[i].ok()) << posts[i].status().ToString();
      EXPECT_EQ(posts[i]->size(), 1u);
      EXPECT_TRUE(accepts[i].ValueOrDie());
    }
  }
}

TEST(ShardedSsiClientTest, QueryStateLivesOnItsHomeNode) {
  // A query's round transfers, result and Retire go to the node it was
  // posted to: for a personal query, its TDS's node and no other; for a
  // global one, a single node besides the post and Retire fan-out.
  constexpr size_t kShards = 4;
  for (bool personal : {true, false}) {
    SCOPED_TRACE(personal ? "personal" : "global");
    std::vector<std::unique_ptr<SsiNode>> nodes;
    std::vector<std::vector<uint8_t>> seen(kShards);
    std::vector<std::unique_ptr<LoopbackTransport>> transports;
    std::vector<std::unique_ptr<SsiClient>> clients;
    std::vector<SsiApi*> shards;
    for (size_t i = 0; i < kShards; ++i) {
      nodes.push_back(std::make_unique<SsiNode>());
      transports.push_back(std::make_unique<LoopbackTransport>(
          [&seen, &nodes, i](const Bytes& frame) -> Result<Bytes> {
            TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                                    DecodeBatchFrame(frame));
            for (const BatchCall& call : calls) {
              seen[i].push_back(call.payload[0]);
            }
            return nodes[i]->Handle(frame);
          }));
      clients.push_back(std::make_unique<SsiClient>(transports[i].get()));
      shards.push_back(clients[i].get());
    }
    ShardedSsiClient router(shards);
    ssi::QueryPost post;
    post.query_id = 42;
    const uint64_t tds_id = 5;
    ASSERT_TRUE(personal ? router.PostPersonal(tds_id, post).ok()
                         : router.PostGlobal(post).ok());
    for (std::vector<uint8_t>& types : seen) types.clear();

    ssi::Partition partition;
    partition.items = {MakeItem(1, true)};
    for (uint64_t token = 0; token < 8; ++token) {
      ASSERT_TRUE(router.StagePartition(42, token, partition).ok());
      ASSERT_EQ(router.FetchPartition(42, token).ValueOrDie().items,
                partition.items);
      ASSERT_TRUE(router.UploadRoundOutput(42, token, partition.items).ok());
      ASSERT_EQ(router.TakeRoundOutput(42, token).ValueOrDie(),
                partition.items);
    }
    ASSERT_TRUE(router.DeliverResult(42, partition.items).ok());
    ASSERT_EQ(router.FetchResult(42).ValueOrDie(), partition.items);
    size_t home = kShards;
    for (size_t i = 0; i < kShards; ++i) {
      if (seen[i].empty()) continue;
      EXPECT_EQ(home, kShards) << "a second node served the query: " << i;
      home = i;
    }
    ASSERT_LT(home, kShards);
    if (personal) {
      EXPECT_EQ(home, router.ShardOfTds(tds_id));
    }
    EXPECT_EQ(seen[home].size(), 8u * 4u + 2u);

    ASSERT_TRUE(router.Retire(42).ok());
    for (size_t i = 0; i < kShards; ++i) {
      SCOPED_TRACE("node " + std::to_string(i));
      const size_t retires = personal && i != home ? 0u : 1u;
      EXPECT_EQ(std::count(seen[i].begin(), seen[i].end(),
                           static_cast<uint8_t>(MsgType::kRetire)),
                static_cast<std::ptrdiff_t>(retires));
      EXPECT_EQ(nodes[i]->num_active_queries(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Batch envelope wire format.

TEST(BatchWireTest, RoundTrip) {
  const std::vector<Bytes> payloads = {MakeBytes({1, 2, 3}), Bytes(),
                                       MakeBytes({4})};
  const std::vector<BatchCall> calls = {
      BatchCall{7, payloads[0]}, BatchCall{9, payloads[1]},
      BatchCall{0xFFFFFFFFFFFFFFFFULL, payloads[2]}};
  Bytes frame = EncodeBatchFrame(calls);
  auto decoded = DecodeBatchFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 3u);
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ((*decoded)[i].correlation_id, calls[i].correlation_id);
    EXPECT_EQ(Bytes((*decoded)[i].payload), payloads[i]);
    // The decoded payloads are views into the frame.
    EXPECT_GE((*decoded)[i].payload.data(), frame.data());
    EXPECT_LE((*decoded)[i].payload.data() + payloads[i].size(),
              frame.data() + frame.size());
  }
}

TEST(BatchWireTest, WriterAbandonsAnOpenCall) {
  // A call the client abandons (it opens the next frame instead) leaves a
  // well-formed frame of the calls closed before it.
  Bytes frame;
  BatchFrameWriter writer(&frame);
  writer.Open(1);
  frame.push_back(0xAC);
  EXPECT_EQ(writer.open_payload_size(), 1u);
  writer.Close();
  writer.Open(2);
  frame.push_back(0xBB);
  frame.push_back(0xBC);
  writer.Abandon();
  writer.Finish();
  const Bytes payload = MakeBytes({0xAC});
  EXPECT_EQ(frame, EncodeBatchFrame({BatchCall{1, payload}}));
}

TEST(BatchWireTest, CorrelationIdsAreWrittenInPlace) {
  const Bytes a = MakeBytes({1});
  const Bytes b = MakeBytes({2, 3});
  Bytes frame = EncodeBatchFrame({BatchCall{0, a}, BatchCall{0, b}});
  SetCorrelationIds(&frame, 40);
  EXPECT_EQ(frame, EncodeBatchFrame({BatchCall{40, a}, BatchCall{41, b}}));
}

TEST(BatchWireTest, RejectsHostileCountBeforeAllocation) {
  // A count claiming 4 billion calls inside a 10-byte frame must be rejected
  // by arithmetic on the remaining length, never by attempting the reserve.
  Bytes frame;
  ByteWriter w(&frame);
  w.PutU8(kBatchMagic);
  w.PutU8(kBatchVersion);
  w.PutU32(0xFFFFFFFFu);
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(frame).status()));
}

TEST(BatchWireTest, RejectsCountBeyondBatchCap) {
  // Enough real bytes to back the claimed count, but over kMaxCallsPerBatch:
  // rejected before any per-call decode.
  Bytes frame;
  ByteWriter w(&frame);
  w.PutU8(kBatchMagic);
  w.PutU8(kBatchVersion);
  const uint32_t count = kMaxCallsPerBatch + 1;
  w.PutU32(count);
  Bytes backing(static_cast<size_t>(count) * 12, 0);
  w.PutRaw(backing.data(), backing.size());
  auto decoded = DecodeBatchFrame(frame);
  ASSERT_TRUE(IsCorruption(decoded.status()));
  EXPECT_NE(decoded.status().ToString().find("kMaxCallsPerBatch"),
            std::string::npos);
}

TEST(BatchWireTest, RejectsEmptyVersionedAndTrailingGarbage) {
  Bytes empty;
  ByteWriter we(&empty);
  we.PutU8(kBatchMagic);
  we.PutU8(kBatchVersion);
  we.PutU32(0);
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(empty).status()));

  const Bytes payload = MakeBytes({1});
  std::vector<BatchCall> calls = {BatchCall{1, payload}};
  Bytes versioned = EncodeBatchFrame(calls);
  versioned[1] = kBatchVersion + 1;
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(versioned).status()));

  Bytes trailing = EncodeBatchFrame(calls);
  trailing.push_back(0x00);
  EXPECT_TRUE(IsCorruption(DecodeBatchFrame(trailing).status()));
}

// ---------------------------------------------------------------------------
// Batched exchanges.

BatchOptions TestBatch(size_t max_calls) {
  BatchOptions batch;
  batch.max_calls_per_frame = max_calls;
  return batch;
}

// Every FetchEpochBlock reply carries the whole block, which runs to
// megabytes once many TDSs are revoked. A batched fetch sizes its frames so
// their replies stay within max_bytes_per_frame (far below the frame cap),
// instead of packing max_calls_per_frame blocks into one reply.
TEST(SsiClientBatchTest, EpochBlockBatchKeepsRepliesWithinTheFrameBudget) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics, TestBatch(64));
  const Bytes block(300u << 10, 0x7b);  // 3 fit into the 1 MiB budget
  ASSERT_TRUE(client.PostEpochBlock(block).ok());
  obs::Counter& frames = metrics.counter("net.frames_sent");
  const uint64_t before = frames.value();
  std::vector<Result<Bytes>> replies =
      client.FetchEpochBlockBatch({0, 1, 2, 3, 4, 5, 6, 7},
                                  std::vector<uint64_t>(8, 0));
  ASSERT_EQ(replies.size(), 8u);
  for (const Result<Bytes>& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, block);
  }
  EXPECT_EQ(frames.value() - before, 3u);  // 3 + 3 + 2 calls
}

// A conditional fetch: a held tag naming the node's block gets an empty OK
// body, a zero or stale tag the whole block, and no tag makes a missing
// block appear.
TEST(SsiClientBatchTest, EpochBlockFetchAnswersAHeldTagWithAnEmptyBody) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(8));
  const Bytes block0 = MakeBytes({0xE0, 0xE1, 0xE2});
  const Bytes block1 = MakeBytes({0xE3, 0xE4});
  const uint64_t tag0 = ssi::EpochBlockTag(block0);
  EXPECT_TRUE(IsNotFound(client.FetchEpochBlockBatch({1}, {tag0})[0].status()));
  ASSERT_TRUE(client.PostEpochBlock(block0).ok());
  std::vector<Result<Bytes>> replies =
      client.FetchEpochBlockBatch({1, 2}, {0, tag0});
  EXPECT_EQ(replies[0].ValueOrDie(), block0);
  EXPECT_EQ(replies[1].ValueOrDie(), Bytes());
  ASSERT_TRUE(client.PostEpochBlock(block1).ok());
  replies = client.FetchEpochBlockBatch(
      {1, 2}, {tag0, ssi::EpochBlockTag(block1)});
  EXPECT_EQ(replies[0].ValueOrDie(), block1);
  EXPECT_EQ(replies[1].ValueOrDie(), Bytes());
  EXPECT_EQ(client.FetchEpochBlock(3).ValueOrDie(), block1);
}

// An empty "still current" reply must not shrink the block size a batched
// fetch budgets its frames by: the next stale fetch moves whole blocks.
TEST(SsiClientBatchTest, CurrentEpochBlockRepliesKeepTheFrameBudget) {
  SsiNode node;
  LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics, TestBatch(64));
  SsiClient publisher(&transport, RetryPolicy{}, nullptr, TestBatch(64));
  const Bytes block(300u << 10, 0x7b);
  const uint64_t tag = ssi::EpochBlockTag(block);
  ASSERT_TRUE(client.PostEpochBlock(block).ok());
  std::vector<Result<Bytes>> current = client.FetchEpochBlockBatch({0}, {tag});
  ASSERT_TRUE(current[0].ok()) << current[0].status().ToString();
  ASSERT_TRUE(current[0]->empty());
  // Published by another client, so only this client's fetches size its
  // frames.
  const Bytes next(300u << 10, 0x7c);
  ASSERT_TRUE(publisher.PostEpochBlock(next).ok());
  obs::Counter& frames = metrics.counter("net.frames_sent");
  const uint64_t before = frames.value();
  std::vector<Result<Bytes>> replies = client.FetchEpochBlockBatch(
      {0, 1, 2, 3, 4, 5, 6, 7}, std::vector<uint64_t>(8, tag));
  ASSERT_EQ(replies.size(), 8u);
  for (const Result<Bytes>& reply : replies) {
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, next);
  }
  EXPECT_EQ(frames.value() - before, 3u);  // 3 + 3 + 2 calls
}

TEST(SsiClientBatchTest, OutOfOrderRepliesAreMatchedByCorrelationId) {
  // An echoing server that completes the batch in reverse order: only
  // correlation-ID matching can hand each caller its own bytes back.
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                            DecodeBatchFrame(req));
    Bytes reply;
    BatchFrameWriter writer(&reply);
    for (auto call = calls.rbegin(); call != calls.rend(); ++call) {
      writer.Open(call->correlation_id);
      AppendReplyOk(&reply, call->payload);
      writer.Close();
    }
    writer.Finish();
    return reply;
  });
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(8));

  std::vector<Bytes> payloads;
  for (uint8_t i = 0; i < 8; ++i) payloads.push_back(Bytes(4, i));
  std::vector<Result<Bytes>> bodies = client.Exchange(payloads);
  ASSERT_EQ(bodies.size(), payloads.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    ASSERT_TRUE(bodies[i].ok()) << bodies[i].status().ToString();
    EXPECT_EQ(*bodies[i], payloads[i]);
  }
}

TEST(SsiClientBatchTest, UnknownAndDuplicateCorrelationIdsAreDropped) {
  // The reply batch answers call 0 twice and invents an ID nobody asked for;
  // call 0 keeps the first answer, call 1 fails loudly (its reply is
  // missing), and nothing is silently cross-wired.
  obs::MetricsRegistry metrics;
  LoopbackTransport transport([&](const Bytes& req) -> Result<Bytes> {
    TCELLS_ASSIGN_OR_RETURN(std::vector<BatchCall> calls,
                            DecodeBatchFrame(req));
    const Bytes one = EncodeReplyOk(MakeBytes({1}));
    const Bytes two = EncodeReplyOk(MakeBytes({2}));
    const Bytes three = EncodeReplyOk(MakeBytes({3}));
    return EncodeBatchFrame({BatchCall{calls[0].correlation_id, one},
                             BatchCall{calls[0].correlation_id, two},
                             BatchCall{calls[0].correlation_id + 1000000,
                                       three}});
  });
  RetryPolicy policy;
  policy.max_attempts = 1;
  SsiClient client(&transport, policy, &metrics, TestBatch(2));

  std::vector<Result<Bytes>> replies =
      client.Exchange({MakeBytes({0xAA}), MakeBytes({0xBB})});
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].ok()) << replies[0].status().ToString();
  EXPECT_EQ(*replies[0], MakeBytes({1}));  // first answer wins
  EXPECT_TRUE(IsCorruption(replies[1].status()))
      << replies[1].status().ToString();
  EXPECT_EQ(metrics.snapshot().counters.at("net.stale_replies_dropped"), 2u);
}

TEST(SsiClientBatchTest, BatchMixesSuccessesAndFailures) {
  // One frame carrying one servable call and one application error: each
  // call completes with its own verdict, the error does not poison the
  // frame.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient client(&transport, RetryPolicy{}, nullptr, TestBatch(4));
  PostQuery(&client, 7);

  ssi::Partition partition;
  partition.items = {MakeItem(1, false)};
  ASSERT_TRUE(client.StagePartition(7, /*token=*/0, partition).ok());

  auto make_fetch = [](uint64_t query_id) {
    Bytes req;
    ByteWriter w(&req);
    w.PutU8(static_cast<uint8_t>(MsgType::kFetchPartition));
    w.PutU64(query_id);
    w.PutU64(0);
    return req;
  };
  std::vector<Result<Bytes>> replies =
      client.Exchange({make_fetch(7), make_fetch(99)});
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].ok()) << replies[0].status().ToString();
  auto decoded = ssi::DecodeItems(*replies[0]);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 1u);
  EXPECT_TRUE(IsNotFound(replies[1].status()));
}

TEST(SsiClientBatchTest, WholeFrameStaleReplayIsRetriedWithFreshIds) {
  // FaultyTransport replays the first fetch's reply frame for the second
  // fetch. The replayed frame carries the first exchange's correlation IDs,
  // which match nothing in the second's attempt — the client must treat the
  // exchange as Unavailable and retry with fresh IDs rather than consume the
  // stale bytes, so the retry sees the server's new state.
  SsiNode node;
  LoopbackTransport loopback(node.handler());
  FaultPlan plan;
  ScriptedFault fault;
  fault.type = MsgType::kFetchPosts;
  fault.kind = FaultKind::kStaleReplay;
  fault.scope = ScriptedFault::Scope::kPerKey;
  fault.nth = 2;
  plan.script.push_back(fault);
  VirtualClock vclock;
  FaultyTransport faulty(&loopback, plan, &vclock);
  obs::MetricsRegistry metrics;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy, &metrics, TestBatch(16));

  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.Acknowledge(4, 1).ok());
  auto first = client.FetchPosts(3);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), 1u);
  ASSERT_TRUE(client.Acknowledge(3, 1).ok());
  auto second = client.FetchPosts(3);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->empty());  // never the replayed post
  EXPECT_EQ(faulty.injected_count(), 1u);
  auto counters = metrics.snapshot().counters;
  EXPECT_EQ(counters.at("net.retries"), 1u);
  EXPECT_EQ(counters.at("net.stale_replies_dropped"), 1u);
  // calls_sent counts physical attempts, so the invariant
  // frames_sent <= calls_sent survives the retry.
  EXPECT_EQ(counters.at("net.frames_sent"), 6u);
  EXPECT_EQ(counters.at("net.calls_sent"), 6u);
}

TEST(SsiClientBatchTest, ConcurrentCallersOverTcpKeepEveryCallIntact) {
  // Many threads share one client over real sockets: each caller runs its
  // own exchange on its own channel, so every call is answered with its own
  // reply and travels in a frame of its own.
  SsiNode node;
  TcpServer server;
  ASSERT_TRUE(server.Start(node.handler()).ok());
  TcpTransport transport("127.0.0.1", server.port());
  obs::MetricsRegistry metrics;
  SsiClient client(&transport, RetryPolicy{}, &metrics, TestBatch(64));

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        auto n = client.FetchPosts(1);
        if (!n.ok() || !n->empty()) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  auto snapshot = metrics.snapshot();
  const uint64_t calls = snapshot.counters.at("net.calls_sent");
  const uint64_t frames = snapshot.counters.at("net.frames_sent");
  EXPECT_EQ(calls, static_cast<uint64_t>(kThreads * kCallsPerThread));
  EXPECT_EQ(frames, calls);
  const auto& per_frame = snapshot.histograms.at("net.calls_per_frame");
  EXPECT_EQ(per_frame.count, frames);
  EXPECT_EQ(per_frame.sum, static_cast<double>(calls));
}

TEST(SsiNodeTest, ServesBatchFramesInOrder) {
  // The node decodes a batch envelope, dispatches in frame order under one
  // mutex hold, and replies with a batch frame carrying the same IDs.
  SsiNode node;
  LoopbackTransport transport(node.handler());
  SsiClient poster(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(poster.PostGlobal(post).ok());

  std::vector<BatchCall> calls;
  Bytes ack;
  ByteWriter wa(&ack);
  wa.PutU8(static_cast<uint8_t>(MsgType::kAcknowledge));
  wa.PutU64(3);  // tds_id
  wa.PutU64(1);  // query_id
  const Bytes fetch = FetchPostsRequest(3);
  calls.push_back(BatchCall{10, ack});
  calls.push_back(BatchCall{11, fetch});
  auto reply = node.Handle(EncodeBatchFrame(calls));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto replies = DecodeBatchFrame(*reply);
  ASSERT_TRUE(replies.ok());
  ASSERT_EQ(replies->size(), 2u);
  EXPECT_EQ((*replies)[0].correlation_id, 10u);
  EXPECT_EQ((*replies)[1].correlation_id, 11u);
  // The ack executed before the fetch in the same frame: FetchPosts already
  // leaves the served query out.
  auto body = DecodeReply((*replies)[1].payload);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  auto n = ByteReader(*body).GetU32();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}


TEST(SsiNodeTest, RetiredMessageTypesAreUnknown) {
  // MsgTypes 5 and 6 (the window probes), 14 (ObserveFiltering) and 19
  // (AckRoundOutput) are retired and stay retired: a node treats each like
  // any unknown type.
  SsiNode node;
  for (uint8_t retired : {5, 6, 14, 19}) {
    SCOPED_TRACE("MsgType " + std::to_string(retired));
    Bytes call;
    ByteWriter w(&call);
    w.PutU8(retired);
    w.PutU64(1);  // the query id the retired calls carried
    auto reply = node.Handle(EncodeBatchFrame({BatchCall{1, call}}));
    ASSERT_TRUE(IsCorruption(reply.status())) << reply.status().ToString();
    EXPECT_EQ(reply.status().message(), "unknown SSI message type");
  }
}

TEST(SsiNodeTest, LeakageIsCountedOnceWhereTheBytesArrive) {
  // The node records the aggregation covering on the first
  // ObserveAggregation and the filtering leakage on the first DeliverResult
  // of a posted query. A retry after a lost reply reaches the node a second
  // time and must add nothing.
  SsiNode node;
  LoopbackTransport inner(node.handler());
  FaultPlan plan;
  for (MsgType type : {MsgType::kObserveAggregation, MsgType::kDeliverResult}) {
    ScriptedFault drop;  // the first attempt of the call
    drop.type = type;
    drop.kind = FaultKind::kDropReply;
    plan.script.push_back(drop);
  }
  VirtualClock vclock;
  FaultyTransport faulty(&inner, plan, &vclock);
  RetryPolicy policy;
  policy.clock = &vclock;
  SsiClient client(&faulty, policy);

  ssi::QueryPost post;
  post.query_id = 7;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  const std::vector<ssi::EncryptedItem> covering = {
      MakeItem(1, true), MakeItem(2, true), MakeItem(3, false)};
  const std::vector<ssi::EncryptedItem> result = {MakeItem(4, false),
                                                  MakeItem(5, false)};
  ASSERT_TRUE(client.ObserveAggregation(7, covering).ok());
  ASSERT_TRUE(client.DeliverResult(7, result).ok());
  EXPECT_EQ(faulty.injected_count(), 2u);
  const ssi::AdversaryView view = client.GetAdversaryView(7).ValueOrDie();
  EXPECT_EQ(view.aggregation_items, covering.size());
  EXPECT_EQ(view.filtering_items, result.size());
  EXPECT_EQ(client.FetchResult(7).ValueOrDie(), result);
}

}  // namespace
}  // namespace tcells::net
