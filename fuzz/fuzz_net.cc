// Fuzz harness for the transport layer's untrusted decode surfaces.
//
// Input: one selector byte, then the payload for the selected surface:
//   0 -> TryExtractFrame over the body as a hostile socket receive buffer
//   1 -> SsiNode::Handle on the body as one batch request frame
//   2 -> DecodeReply on the body as one reply envelope
//   3 -> DecodeBatchFrame on the body as one multi-call batch envelope
// Corpus files carry the selector as their first byte (see make_corpus.cc).
#include "common/bytes.h"
#include "fuzz_util.h"
#include "net/frame.h"
#include "net/ssi_node.h"
#include "net/ssi_wire.h"

using tcells::Bytes;
using tcells::Result;
using tcells::Status;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 4;
  Bytes input(data + 1, data + size);
  switch (selector) {
    case 0: {
      // Drain the buffer the way the socket loops do. Every extracted frame
      // must respect the payload cap (the length prefix is checked before
      // any allocation), the buffer must shrink on every success so the loop
      // terminates, and a hostile prefix must surface as Corruption — the
      // signal transports use to drop the connection.
      Bytes buf = input;
      Bytes frame;
      Status error;
      while (true) {
        size_t before = buf.size();
        if (!tcells::net::TryExtractFrame(&buf, &frame, &error)) break;
        FUZZ_ASSERT(frame.size() <= tcells::net::kMaxFramePayload);
        FUZZ_ASSERT(buf.size() < before);
      }
      FUZZ_ASSERT(error.ok() || error.IsCorruption());
      break;
    }
    case 1: {
      // A long-lived node absorbing hostile request frames, like the TCP
      // server's handler does. Decode failures must be Status, never a
      // crash, and the node never fabricates transport-level codes — those
      // belong to the channel alone. Only a batch frame is accepted, and it
      // yields a batch reply answering every inner call with its
      // correlation ID, in order, each with a parseable reply envelope.
      static tcells::net::SsiNode& node = *new tcells::net::SsiNode();
      Result<Bytes> reply = node.Handle(input);
      if (reply.ok()) {
        Result<std::vector<tcells::net::BatchCall>> calls =
            tcells::net::DecodeBatchFrame(input);
        Result<std::vector<tcells::net::BatchCall>> replies =
            tcells::net::DecodeBatchFrame(*reply);
        FUZZ_ASSERT(calls.ok() && replies.ok());
        FUZZ_ASSERT(replies->size() == calls->size());
        for (size_t i = 0; i < calls->size(); ++i) {
          FUZZ_ASSERT((*replies)[i].correlation_id ==
                      (*calls)[i].correlation_id);
          Result<Bytes> unwrapped =
              tcells::net::DecodeReply((*replies)[i].payload);
          FUZZ_ASSERT(unwrapped.ok() || !unwrapped.status().IsCorruption());
        }
      } else {
        FUZZ_ASSERT(!reply.status().IsUnavailable());
        FUZZ_ASSERT(!reply.status().IsDeadlineExceeded());
      }
      break;
    }
    case 2: {
      // Client-side reply envelope parse. An accepted OK envelope is the
      // identity wrapping of its body, so re-encoding must reproduce the
      // input bit-for-bit.
      Result<Bytes> body = tcells::net::DecodeReply(input);
      if (body.ok()) {
        FUZZ_ASSERT(tcells::net::EncodeReplyOk(*body) == input);
      }
      break;
    }
    default: {
      // Batch envelope parse. The count is validated against the remaining
      // length before any allocation, so a hostile count can never reserve
      // gigabytes; an accepted batch re-encodes to the input bit-for-bit
      // (the codec has no redundant representations).
      Result<std::vector<tcells::net::BatchCall>> calls =
          tcells::net::DecodeBatchFrame(input);
      if (calls.ok()) {
        FUZZ_ASSERT(!calls->empty());
        FUZZ_ASSERT(calls->size() <= tcells::net::kMaxCallsPerBatch);
        FUZZ_ASSERT(tcells::net::EncodeBatchFrame(*calls) == input);
      } else {
        FUZZ_ASSERT(calls.status().IsCorruption());
      }
      break;
    }
  }
  return 0;
}
