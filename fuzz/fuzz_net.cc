// Fuzz harness for the transport layer's untrusted decode surfaces.
//
// Input: one selector byte, then the payload for the selected surface:
//   0 -> FrameReceiver over the body as a hostile socket byte stream
//   1 -> SsiNode::Handle on the body as one batch request frame
//   2 -> DecodeReply on the body as one reply envelope
//   3 -> BatchFrameReader on the body as one multi-call batch envelope
//   4 -> keys::EpochBlock::Decode on the body as the block a TDS fetched
// Corpus files carry the selector as their first byte (see make_corpus.cc).
// The selector-4 seeds are hand-built: a small real epoch block and the
// same block with two header entries swapped, which Decode must refuse.
#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "fuzz_util.h"
#include "keys/epoch.h"
#include "net/frame.h"
#include "net/ssi_node.h"
#include "net/ssi_wire.h"

using tcells::Bytes;
using tcells::Result;
using tcells::Status;

namespace {

/// Reads `frame` with BatchFrameReader and writes its calls back with
/// BatchFrameWriter: the frame codec's two halves, composed.
Result<Bytes> Rewrite(std::span<const uint8_t> frame) {
  TCELLS_ASSIGN_OR_RETURN(tcells::net::BatchFrameReader reader,
                          tcells::net::BatchFrameReader::Open(frame));
  Bytes out;
  tcells::net::BatchFrameWriter writer(&out);
  for (uint32_t i = 0; i < reader.count(); ++i) {
    const tcells::net::BatchCall call = reader.Next();
    writer.Open(call.correlation_id);
    out.insert(out.end(), call.payload.begin(), call.payload.end());
    writer.Close();
  }
  writer.Finish();
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 5;
  Bytes input(data + 1, data + size);
  switch (selector) {
    case 0: {
      // Feed the stream the way the socket loops do, receive by receive: in
      // place where the receiver offers room, otherwise in chunks through
      // Consume (the chunk size and the receiver's buffer bound vary with
      // the input). Every receive makes progress, every complete frame
      // respects the payload cap (the length prefix is checked before any
      // allocation), and a hostile prefix surfaces as Corruption — the
      // signal transports use to drop the connection.
      const size_t chunk = 1 + input.size() % 37;
      tcells::net::FrameReceiver receiver(
          /*max_buffer=*/64 + input.size() % 512);
      Status error;
      for (size_t pos = 0; pos < input.size();) {
        const std::span<uint8_t> space = receiver.Space();
        size_t n = 0;
        if (!space.empty()) {
          n = std::min(space.size(), input.size() - pos);
          std::memcpy(space.data(), input.data() + pos, n);
          receiver.Commit(n);
        } else {
          Result<size_t> used = receiver.Consume(
              {input.data() + pos, std::min(chunk, input.size() - pos)});
          if (!used.ok()) {
            error = used.status();
            break;
          }
          n = *used;
        }
        FUZZ_ASSERT(n > 0);
        pos += n;
        if (receiver.complete()) {
          FUZZ_ASSERT(receiver.TakeFrame().size() <=
                      tcells::net::kMaxFramePayload);
        }
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
      // correlation ID, in order, each with a parseable reply envelope. The
      // node writes its reply frame in place: reading it and writing it
      // back must reproduce it.
      static tcells::net::SsiNode& node = *new tcells::net::SsiNode();
      Result<Bytes> reply = node.Handle(input);
      if (reply.ok()) {
        Result<tcells::net::BatchFrameReader> calls =
            tcells::net::BatchFrameReader::Open(input);
        Result<tcells::net::BatchFrameReader> replies =
            tcells::net::BatchFrameReader::Open(*reply);
        FUZZ_ASSERT(calls.ok() && replies.ok());
        FUZZ_ASSERT(replies->count() == calls->count());
        for (uint32_t i = 0; i < calls->count(); ++i) {
          const tcells::net::BatchCall answer = replies->Next();
          FUZZ_ASSERT(answer.correlation_id == calls->Next().correlation_id);
          Result<std::span<const uint8_t>> unwrapped =
              tcells::net::DecodeReply(answer.payload);
          FUZZ_ASSERT(unwrapped.ok() || !unwrapped.status().IsCorruption());
        }
        Result<Bytes> rewritten = Rewrite(*reply);
        FUZZ_ASSERT(rewritten.ok() && *rewritten == *reply);
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
      Result<std::span<const uint8_t>> body = tcells::net::DecodeReply(input);
      if (body.ok()) {
        Bytes rewrapped;
        tcells::net::AppendReplyOk(&rewrapped, *body);
        FUZZ_ASSERT(rewrapped == input);
      }
      break;
    }
    case 4: {
      // Epoch block parse, the bytes an SSI hands a refreshing TDS. An
      // accepted block lists a nonzero, strictly ascending node id per
      // entry (devices binary-search it) and re-encodes to the input
      // bit-for-bit.
      Result<tcells::keys::EpochBlock> block =
          tcells::keys::EpochBlock::Decode(input);
      if (block.ok()) {
        const auto& header = block->message.header;
        FUZZ_ASSERT(!header.empty() && header.front().first > 0);
        for (size_t i = 1; i < header.size(); ++i) {
          FUZZ_ASSERT(header[i - 1].first < header[i].first);
        }
        FUZZ_ASSERT(block->Encode() == input);
      } else {
        FUZZ_ASSERT(block.status().IsCorruption());
      }
      break;
    }
    default: {
      // Batch envelope parse. The count is validated against the remaining
      // length before any allocation, so a hostile count can never reserve
      // gigabytes; an accepted batch re-encodes to the input bit-for-bit
      // (the codec has no redundant representations).
      Result<tcells::net::BatchFrameReader> reader =
          tcells::net::BatchFrameReader::Open(input);
      if (reader.ok()) {
        FUZZ_ASSERT(reader->count() > 0);
        FUZZ_ASSERT(reader->count() <= tcells::net::kMaxCallsPerBatch);
        Result<Bytes> rewritten = Rewrite(input);
        FUZZ_ASSERT(rewritten.ok() && *rewritten == input);
      } else {
        FUZZ_ASSERT(reader.status().IsCorruption());
      }
      break;
    }
  }
  return 0;
}
