// In-process loopback transport: the default backend. Every call still round
// trips through the real frame codec — encode, length-prefix, decode on the
// "server" side and back — so framing bugs and byte counts are exercised
// identically to the TCP backend, but no sockets or threads are involved and
// results are bit-identical to a direct method call.
#ifndef TCELLS_NET_LOOPBACK_H_
#define TCELLS_NET_LOOPBACK_H_

#include <utility>

#include "net/channel.h"

namespace tcells::net {

class LoopbackTransport : public Transport {
 public:
  /// `handler` must outlive the transport and every channel it creates.
  explicit LoopbackTransport(Handler handler) : handler_(std::move(handler)) {}

  Result<std::unique_ptr<Channel>> Connect() override;
  const char* name() const override { return "loopback"; }

  /// One framed request/reply exchange; channels delegate here.
  Result<Bytes> DoCall(const Bytes& request);

 private:
  Handler handler_;
};

}  // namespace tcells::net

#endif  // TCELLS_NET_LOOPBACK_H_
