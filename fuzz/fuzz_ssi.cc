// Fuzz harness for the SSI message codecs.
//
// Input: one selector byte, then the payload for the selected codec:
//   0 -> QueryPost::Decode
//   1 -> DecodeItems and ItemScanner (both accept exactly the same inputs
//        with the same count, every decoded item's blob and tag are the
//        scanner's views, and accepted vectors re-encode bit-identical)
//   2 -> DecodeItems of a copy the harness frees at once: every surviving
//        item is read after its vector and the input copy are gone, so a
//        slice that outlives its owner is a use-after-free under ASan
//   3 -> DecodePayloadView (an accepted body lies inside the input, just
//        past the header)
//   4 -> AdversaryView::Decode (the view the SSI reports; an accepted view
//        re-encodes bit-identical, so each view has one encoding)
// Corpus files carry the selector as their first byte (see make_corpus.cc).
#include <algorithm>
#include <vector>

#include "common/bytes.h"
#include "fuzz_util.h"
#include "ssi/messages.h"
#include "ssi/ssi.h"

using tcells::Bytes;
using tcells::ByteReader;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const uint8_t selector = data[0] % 5;
  Bytes input(data + 1, data + size);
  switch (selector) {
    case 0: {
      (void)tcells::ssi::QueryPost::Decode(input);
      break;
    }
    case 1: {
      tcells::Result<std::vector<tcells::ssi::EncryptedItem>> items =
          tcells::ssi::DecodeItems(input);
      // The SSI node validates item vectors with the scanner and never
      // decodes them: it must accept exactly what a decode accepts, and a
      // decoded item must read exactly the bytes the scanner points at.
      ByteReader scan_reader(input);
      tcells::Result<tcells::ssi::ItemScanner> scan =
          tcells::ssi::ItemScanner::Open(&scan_reader);
      bool scanned = scan.ok();
      for (uint32_t i = 0; scanned && i < scan->count(); ++i) {
        tcells::Result<tcells::ssi::ItemView> view = scan->Next();
        scanned = view.ok();
        if (!scanned || !items.ok()) continue;
        const tcells::ssi::EncryptedItem& item = (*items)[i];
        FUZZ_ASSERT(std::ranges::equal(item.blob(), view->blob()));
        FUZZ_ASSERT(item.routing_tag().has_value() ==
                    view->routing_tag().has_value());
        FUZZ_ASSERT(!item.routing_tag() ||
                    std::ranges::equal(*item.routing_tag(),
                                       *view->routing_tag()));
      }
      FUZZ_ASSERT(scanned == items.ok());
      if (items.ok()) {
        FUZZ_ASSERT(scan->count() == items->size());
        // The wire format is canonical: decode rejects trailing bytes and
        // every field is written one way, so re-encoding an accepted
        // vector must reproduce the input exactly.
        Bytes encoded;
        tcells::ssi::EncodeItemsTo(*items, &encoded);
        FUZZ_ASSERT(encoded == input);
      }
      break;
    }
    case 2: {
      // `input` is moved into the decode, so only the items own it now; the
      // vector is dropped too, keeping copies of every other item.
      std::vector<tcells::ssi::EncryptedItem> kept;
      {
        tcells::Result<std::vector<tcells::ssi::EncryptedItem>> items =
            tcells::ssi::DecodeItems(std::move(input));
        if (!items.ok()) break;
        for (size_t i = 0; i < items->size(); i += 2) {
          kept.push_back((*items)[i]);
        }
      }
      // Reads every byte of each survivor: a copy rebuilt from its fields
      // must encode exactly as the adopted item does.
      for (const tcells::ssi::EncryptedItem& item : kept) {
        const tcells::ssi::EncryptedItem rebuilt(item.blob(),
                                                 item.routing_tag());
        FUZZ_ASSERT(rebuilt == item);
      }
      break;
    }
    case 3: {
      tcells::Result<tcells::ssi::PayloadView> view =
          tcells::ssi::DecodePayloadView(input.data(), input.size());
      if (view.ok()) {
        // An accepted body follows the 5-byte header and ends inside the
        // input.
        FUZZ_ASSERT(view->body == input.data() + 5);
        FUZZ_ASSERT(view->body_size <= input.size() - 5);
      }
      break;
    }
    default: {
      tcells::Result<tcells::ssi::AdversaryView> view =
          tcells::ssi::AdversaryView::Decode(input);
      if (view.ok()) {
        Bytes encoded;
        view->EncodeTo(&encoded);
        FUZZ_ASSERT(encoded == input);
      }
      break;
    }
  }
  return 0;
}
