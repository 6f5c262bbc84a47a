#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/frame.h"

namespace tcells::net {

namespace {

Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " +
                             std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Milliseconds until `deadline`, clamped to >= 0.
int RemainingMillis(std::chrono::steady_clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Sends what the socket takes of a frame's wire bytes — the u32 length
/// prefix, then `payload` — from wire offset `off`, gathered from where they
/// lie instead of copied together. Returns ::sendmsg's result.
ssize_t SendFrameFrom(int fd, std::span<const uint8_t> payload, size_t off) {
  uint8_t header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<uint8_t>(payload.size() >> (8 * i));
  }
  struct iovec iov[2];
  size_t count = 0;
  if (off < 4) iov[count++] = {header + off, 4 - off};
  const size_t body = off < 4 ? 0 : off - 4;
  if (body < payload.size()) {
    iov[count++] = {const_cast<uint8_t*>(payload.data()) + body,
                    payload.size() - body};
  }
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

/// Bytes one receive takes when it starts a frame: a frame this small
/// arrives whole in one system call.
constexpr size_t kRecvChunk = 16384;

/// One ::recv for `receiver`, returning its result: straight into the
/// payload in progress where Space() allows (and committed), otherwise into
/// `chunk`, whose received bytes `*unconsumed` then names for Consume().
ssize_t RecvFor(int fd, FrameReceiver* receiver, std::span<uint8_t> chunk,
                std::span<const uint8_t>* unconsumed) {
  *unconsumed = {};
  const std::span<uint8_t> space = receiver->Space();
  if (!space.empty()) {
    const ssize_t n = ::recv(fd, space.data(), space.size(), 0);
    if (n > 0) receiver->Commit(static_cast<size_t>(n));
    return n;
  }
  const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
  if (n > 0) *unconsumed = chunk.first(static_cast<size_t>(n));
  return n;
}

/// Per-connection server state: the frame being received, request frames
/// received but not yet served, reply frames not yet fully written to the
/// socket (with the wire bytes of each queue and how much of the first reply
/// went out), and the epoll interest mask currently registered for the fd
/// (so the loop only issues EPOLL_CTL_MOD when the desired mask actually
/// changes).
struct Conn {
  FrameReceiver receiver;
  std::deque<Bytes> in;
  size_t in_bytes = 0;
  std::deque<Bytes> out;
  size_t out_bytes = 0;
  size_t out_pos = 0;
  uint32_t interest = 0;

  size_t buffered() const { return in_bytes + receiver.pending(); }
  size_t backlog() const { return out_bytes - out_pos; }
};

class TcpChannel : public Channel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) {}
  ~TcpChannel() override {
    if (fd_ >= 0) ::close(fd_);
  }

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  Result<Bytes> Call(const Bytes& request, const CallOptions& opts) override {
    if (fd_ < 0) return Status::Unavailable("channel is closed");
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(
            static_cast<int64_t>(opts.deadline_seconds * 1e6));

    Status sent = SendFrame(request, deadline);
    if (!sent.ok()) {
      Close();
      return sent;
    }
    // Frames are strictly request/reply per channel, so everything that
    // arrives now belongs to this call's response: its first receive takes
    // the header and the start of the body, and the rest of a large body is
    // received straight into the reply's own buffer.
    while (!receiver_.complete()) {
      Status received = RecvSome(deadline);
      if (!received.ok()) {
        // Abandoning a call mid-receive (deadline expiry included) leaves
        // its reply in flight; the stream can never again be paired with a
        // later call, so the channel closes rather than serve stale bytes.
        // A hostile length prefix, or bytes past the reply, is fatal the same
        // way, and not retryable.
        Close();
        return received;
      }
    }
    return receiver_.TakeFrame();
  }

 private:
  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  Status SendFrame(const Bytes& payload,
                   std::chrono::steady_clock::time_point deadline) {
    size_t off = 0;
    while (off < FrameWireSize(payload.size())) {
      struct pollfd pfd = {fd_, POLLOUT, 0};
      int ms = RemainingMillis(deadline);
      if (ms == 0) return Status::DeadlineExceeded("send deadline expired");
      int rc = ::poll(&pfd, 1, ms);
      if (rc == 0) return Status::DeadlineExceeded("send deadline expired");
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Errno("poll");
      }
      ssize_t n = SendFrameFrom(fd_, payload, off);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        return Errno("send");
      }
      off += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status RecvSome(std::chrono::steady_clock::time_point deadline) {
    struct pollfd pfd = {fd_, POLLIN, 0};
    int ms = RemainingMillis(deadline);
    if (ms == 0) return Status::DeadlineExceeded("receive deadline expired");
    int rc = ::poll(&pfd, 1, ms);
    if (rc == 0) return Status::DeadlineExceeded("receive deadline expired");
    if (rc < 0) {
      if (errno == EINTR) return Status::OK();
      return Errno("poll");
    }
    uint8_t chunk[kRecvChunk];
    std::span<const uint8_t> unconsumed;
    ssize_t n = RecvFor(fd_, &receiver_, chunk, &unconsumed);
    if (n == 0) {
      Close();
      return Status::Unavailable("peer closed connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return Status::OK();
      }
      Close();
      return Errno("recv");
    }
    if (unconsumed.empty()) return Status::OK();
    TCELLS_ASSIGN_OR_RETURN(size_t used, receiver_.Consume(unconsumed));
    if (used < unconsumed.size()) {
      // The peer sent more than the reply: nothing it sends can be paired
      // with a call any more.
      return Status::Corruption("bytes after the reply frame");
    }
    return Status::OK();
  }

  int fd_;
  FrameReceiver receiver_;
};

}  // namespace

Status TcpServer::Start(Handler handler, uint16_t port) {
  if (running()) return Status::InvalidArgument("server already started");
  handler_ = std::move(handler);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind");
    ::close(fd);
    return s;
  }
  if (::listen(fd, 64) < 0) {
    Status s = Errno("listen");
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    Status s = Errno("getsockname");
    ::close(fd);
    return s;
  }
  port_ = ntohs(addr.sin_port);

  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    Status s = Errno("pipe");
    ::close(fd);
    return s;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  listen_fd_ = fd;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void TcpServer::Stop() {
  if (!running()) return;
  uint8_t b = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &b, 1);
  thread_.join();
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = -1;
  wake_read_fd_ = -1;
  wake_write_fd_ = -1;
  port_ = 0;
}

void TcpServer::Loop() {
  // Event loop on epoll (level-triggered): readiness is O(ready fds) per
  // wake-up instead of poll(2)'s O(all fds) scan + interest-list rebuild,
  // which is what lets one loop thread serve thousands of idle TDS
  // connections. Interest masks are updated with EPOLL_CTL_MOD only when a
  // connection's desired mask changes (reads pause at the buffer caps,
  // writes arm only while a reply backlog exists) — the backpressure
  // semantics are exactly the old poll loop's.
  std::unordered_map<int, Conn> conns;
  int epfd = ::epoll_create1(0);
  if (epfd < 0) return;
  auto arm = [&](int fd, uint32_t events) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  };
  arm(wake_read_fd_, EPOLLIN);
  arm(listen_fd_, EPOLLIN);

  // Desired interest from the buffer state: stop reading while the receive
  // buffer or the unsent reply backlog is at its cap — level-triggered, so
  // the kernel re-delivers readiness once the mask re-arms.
  auto desired_interest = [&](const Conn& conn) -> uint32_t {
    uint32_t events = 0;
    if (conn.buffered() < max_in_buffer_ &&
        conn.backlog() < max_out_backlog_) {
      events |= EPOLLIN;
    }
    if (conn.backlog() > 0) events |= EPOLLOUT;
    return events;
  };
  auto update_interest = [&](int fd, Conn& conn) {
    uint32_t want = desired_interest(conn);
    if (want == conn.interest) return;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = want;
    ev.data.fd = fd;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev);
    conn.interest = want;
  };

  bool stop = false;
  std::vector<struct epoll_event> events(64);
  while (!stop) {
    int rc = ::epoll_wait(epfd, events.data(),
                          static_cast<int>(events.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < rc; ++i) {
      int fd = events[i].data.fd;
      uint32_t revents = events[i].events;

      if (fd == wake_read_fd_) {
        stop = true;  // Stop() signalled.
        continue;
      }
      if (fd == listen_fd_) {
        for (;;) {
          int cfd = ::accept(listen_fd_, nullptr, nullptr);
          if (cfd < 0) break;
          if (!SetNonBlocking(cfd).ok()) {
            ::close(cfd);
            continue;
          }
          SetNoDelay(cfd);
          Conn fresh;
          fresh.receiver = FrameReceiver(max_in_buffer_);
          fresh.interest = EPOLLIN;
          arm(cfd, EPOLLIN);
          conns.emplace(cfd, std::move(fresh));
        }
        continue;
      }

      auto conn_it = conns.find(fd);
      if (conn_it == conns.end()) continue;
      Conn& conn = conn_it->second;
      bool drop = false;

      if (revents & (EPOLLERR | EPOLLHUP)) drop = true;

      if (!drop && (revents & EPOLLIN)) {
        uint8_t chunk[kRecvChunk];
        while (conn.buffered() < max_in_buffer_) {
          std::span<const uint8_t> unconsumed;
          ssize_t n = RecvFor(fd, &conn.receiver, chunk, &unconsumed);
          if (n > 0) {
            // A chunk may complete several pipelined frames.
            for (;;) {
              if (conn.receiver.complete()) {
                conn.in.push_back(conn.receiver.TakeFrame());
                conn.in_bytes += FrameWireSize(conn.in.back().size());
              }
              if (unconsumed.empty()) break;
              Result<size_t> used = conn.receiver.Consume(unconsumed);
              if (!used.ok()) {
                drop = true;  // Hostile length prefix.
                break;
              }
              unconsumed = unconsumed.subspan(*used);
            }
            if (drop) break;
            continue;
          }
          if (n == 0) drop = true;  // Peer closed.
          else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
            drop = true;
          break;
        }
      }

      // Serve received frames in arrival order, pausing while the reply
      // backlog is at its cap, and write replies while the socket takes
      // them. Frames that stay queued here imply a non-empty backlog, so
      // the interest mask keeps EPOLLOUT armed and this loop resumes once
      // the peer drains replies — never a silent stall.
      bool progress = true;
      while (!drop && progress) {
        progress = false;
        while (conn.backlog() < max_out_backlog_ && !conn.in.empty()) {
          const Bytes frame = std::move(conn.in.front());
          conn.in.pop_front();
          conn.in_bytes -= FrameWireSize(frame.size());
          Result<Bytes> reply = handler_(frame);
          if (!reply.ok()) {
            // The handler wraps application errors into reply payloads; a
            // failure here means the request frame itself was undecodable.
            drop = true;
            break;
          }
          conn.out_bytes += FrameWireSize(reply->size());
          conn.out.push_back(std::move(*reply));
          progress = true;
        }
        while (!drop && !conn.out.empty()) {
          const Bytes& front = conn.out.front();
          ssize_t n = SendFrameFrom(fd, front, conn.out_pos);
          if (n <= 0) {
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR) {
              drop = true;
            }
            break;
          }
          conn.out_pos += static_cast<size_t>(n);
          if (conn.out_pos == FrameWireSize(front.size())) {
            conn.out_bytes -= conn.out_pos;
            conn.out_pos = 0;
            conn.out.pop_front();
          }
          progress = true;
        }
      }

      if (drop) {
        ::close(fd);  // Also removes the fd from the epoll set.
        conns.erase(conn_it);
      } else {
        update_interest(fd, conn);
      }
    }
  }
  for (auto& [fd, conn] : conns) ::close(fd);
  ::close(epfd);
}

Result<std::unique_ptr<Channel>> TcpTransport::Connect() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host_);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Errno("connect");
    ::close(fd);
    return s;
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    ::close(fd);
    return nb;
  }
  SetNoDelay(fd);
  return std::unique_ptr<Channel>(new TcpChannel(fd));
}

}  // namespace tcells::net
