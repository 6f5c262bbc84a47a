// Real-socket transport backend: the SSI listens on a TCP port and every
// querier / TDS interaction travels as length-prefixed frames over a
// connection to it. The server runs a single poll(2) loop on its own thread
// (listener + one receive buffer per connection, frames dispatched inline to
// the handler); the client side honors per-call deadlines with poll timeouts.
//
// Error mapping at the channel surface: connection loss, reset, or peer
// close mid-frame → Unavailable (retryable); deadline expiry → DeadlineExceeded
// (retryable); a hostile length prefix, or bytes after a reply → Corruption
// (fatal, the stream cannot be re-synchronized, so the connection is dropped).
#ifndef TCELLS_NET_TCP_H_
#define TCELLS_NET_TCP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>

#include "net/channel.h"
#include "net/frame.h"

namespace tcells::net {

/// Framed request/reply server bound to 127.0.0.1. Start() binds + listens
/// and spawns the poll loop; Stop() (or the destructor) wakes the loop, joins
/// the thread and closes every connection.
class TcpServer {
 public:
  TcpServer() = default;
  ~TcpServer() { Stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// `port == 0` picks an ephemeral port; see port() after Start succeeds.
  /// `handler` is invoked on the server thread, one frame at a time.
  Status Start(Handler handler, uint16_t port = 0);
  void Stop();

  uint16_t port() const { return port_; }
  bool running() const { return listen_fd_ >= 0; }

  /// Per-connection buffer caps, in bytes. The loop stops reading from a
  /// connection while its receive buffer holds `max_in` bytes or its unsent
  /// reply backlog reaches `max_out_backlog`, and it defers serving further
  /// pipelined frames until the peer drains replies — so a peer that floods
  /// requests or never reads replies cannot grow the buffers without bound.
  /// A frame's payload buffer never outgrows `max_in` ahead of its bytes'
  /// arrival, whatever length its header announces.
  /// Each cap must be at least one full frame (`FrameWireSize` of the
  /// largest expected payload) for progress; the defaults hold one maximum
  /// frame. Call before Start().
  void set_buffer_caps(size_t max_in, size_t max_out_backlog) {
    max_in_buffer_ = max_in;
    max_out_backlog_ = max_out_backlog;
  }

 private:
  void Loop();

  Handler handler_;
  size_t max_in_buffer_ = FrameWireSize(kMaxFramePayload);
  size_t max_out_backlog_ = FrameWireSize(kMaxFramePayload);
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// Channel factory that dials `host:port` once per Connect().
class TcpTransport : public Transport {
 public:
  TcpTransport(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}

  Result<std::unique_ptr<Channel>> Connect() override;
  const char* name() const override { return "tcp"; }

 private:
  std::string host_;
  uint16_t port_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_TCP_H_
