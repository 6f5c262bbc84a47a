// Fuzz harness for the SSI message codecs.
//
// Input: one selector byte, then the payload for the selected codec:
//   0 -> QueryPost::Decode
//   1 -> Partition::Decode and ScanItems (both accept exactly the same
//        inputs with the same count; accepted partitions must re-encode
//        bit-identical)
//   2 -> a stream of EncryptedItem::DecodeFrom reads
//   3 -> DecodePayloadView / DecodePayload (view and copy must agree)
// Corpus files carry the selector as their first byte (see make_corpus.cc).
#include <cstring>

#include "common/bytes.h"
#include "fuzz_util.h"
#include "ssi/messages.h"

using tcells::Bytes;
using tcells::ByteReader;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 4;
  Bytes input(data + 1, data + size);
  switch (selector) {
    case 0: {
      (void)tcells::ssi::QueryPost::Decode(input);
      break;
    }
    case 1: {
      tcells::Result<tcells::ssi::Partition> partition =
          tcells::ssi::Partition::Decode(input);
      // The SSI node validates item vectors with the scanner and never
      // decodes them: it must accept exactly what a decode accepts.
      ByteReader scan_reader(input);
      tcells::Result<uint32_t> scanned = tcells::ssi::ScanItems(&scan_reader);
      FUZZ_ASSERT(scanned.ok() == partition.ok());
      if (partition.ok()) {
        FUZZ_ASSERT(*scanned == partition->items.size());
        // The wire format is canonical: decode rejects trailing bytes and
        // every field is written one way, so re-encoding an accepted
        // partition must reproduce the input exactly.
        FUZZ_ASSERT(partition->Encode() == input);
      }
      break;
    }
    case 2: {
      ByteReader reader(input);
      while (!reader.AtEnd()) {
        tcells::Result<tcells::ssi::EncryptedItem> item =
            tcells::ssi::EncryptedItem::DecodeFrom(&reader);
        if (!item.ok()) break;
      }
      break;
    }
    default: {
      tcells::Result<tcells::ssi::PayloadView> view =
          tcells::ssi::DecodePayloadView(input.data(), input.size());
      tcells::Result<tcells::ssi::DecodedPayload> copy =
          tcells::ssi::DecodePayload(input);
      FUZZ_ASSERT(view.ok() == copy.ok());
      if (view.ok()) {
        FUZZ_ASSERT(view->kind == copy->kind);
        FUZZ_ASSERT(view->body_size == copy->body.size());
        FUZZ_ASSERT(view->body_size == 0 ||
                    std::memcmp(view->body, copy->body.data(),
                                view->body_size) == 0);
      }
      break;
    }
  }
  return 0;
}
