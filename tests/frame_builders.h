// Frame builders for tests and fuzz/make_corpus: the vector-composed forms
// of the SSI frame codec. The node and the client write frames in place with
// BatchFrameWriter, AppendReplyOk/AppendReplyError and read them with
// BatchFrameReader (net/ssi_wire.h); these helpers compose whole frames from
// parts, which only hand-written peers, pinned wire bytes and seed corpora
// need.
#ifndef TCELLS_TESTS_FRAME_BUILDERS_H_
#define TCELLS_TESTS_FRAME_BUILDERS_H_

#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "net/ssi_wire.h"

namespace tcells::net {

/// Appends one stream frame (u32 LE length + payload) to `out`, as the TCP
/// transport sends it.
inline void AppendFrame(Bytes* out, std::span<const uint8_t> payload) {
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutRaw(payload.data(), payload.size());
}

/// A reply envelope as a buffer of its own.
inline Bytes EncodeReplyOk(std::span<const uint8_t> body) {
  Bytes out;
  AppendReplyOk(&out, body);
  return out;
}
inline Bytes EncodeReplyError(const Status& status) {
  Bytes out;
  AppendReplyError(&out, status);
  return out;
}

/// Encodes `calls` as one batch frame through BatchFrameWriter.
inline Bytes EncodeBatchFrame(const std::vector<BatchCall>& calls) {
  Bytes frame;
  BatchFrameWriter writer(&frame);
  for (const BatchCall& call : calls) {
    writer.Open(call.correlation_id);
    ByteWriter(&frame).PutRaw(call.payload.data(), call.payload.size());
    writer.Close();
  }
  writer.Finish();
  return frame;
}

/// Every call of a batch frame through BatchFrameReader, as views into
/// `frame`.
inline Result<std::vector<BatchCall>> DecodeBatchFrame(
    std::span<const uint8_t> frame) {
  TCELLS_ASSIGN_OR_RETURN(BatchFrameReader reader,
                          BatchFrameReader::Open(frame));
  std::vector<BatchCall> calls;
  for (uint32_t i = 0; i < reader.count(); ++i) calls.push_back(reader.Next());
  return calls;
}

}  // namespace tcells::net

#endif  // TCELLS_TESTS_FRAME_BUILDERS_H_
