// Wire messages exchanged through the SSI. Everything the SSI can see is in
// these structs; everything sensitive is inside `blob` ciphertexts.
#ifndef TCELLS_SSI_MESSAGES_H_
#define TCELLS_SSI_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/result.h"
#include "crypto/encryption.h"
#include "storage/tuple.h"

namespace tcells::ssi {

/// An encrypted unit flowing through the SSI: a collection tuple, a partial
/// aggregation, or a final result row. `routing_tag`, when present, is the
/// only cleartext channel a protocol deliberately exposes to the SSI for
/// partitioning: Det_Enc(A_G) bytes (Noise protocols), h(bucketId) (ED_Hist
/// phase 1) or Det_Enc(group) (ED_Hist phase 2). S_Agg and the basic
/// protocol expose no tag at all.
struct EncryptedItem {
  Bytes blob;
  std::optional<Bytes> routing_tag;

  size_t WireSize() const {
    return blob.size() + (routing_tag ? routing_tag->size() : 0);
  }

  /// One item's wire encoding: u8 tag flag (0 or 1), the u32-length tag
  /// when the flag is 1, then the u32-length blob. Item vectors (below)
  /// carry it on every SSI call; the contribution digest hashes it.
  void EncodeTo(Bytes* out) const;
  size_t EncodedSize() const {
    return 5 + blob.size() + (routing_tag ? 4 + routing_tag->size() : 0);
  }
  static Result<EncryptedItem> DecodeFrom(::tcells::ByteReader* reader);

  /// Field equality is wire equality (the codec is lossless), so integrity
  /// checks can compare items directly instead of re-encoding and hashing.
  friend bool operator==(const EncryptedItem& a, const EncryptedItem& b) {
    return a.blob == b.blob && a.routing_tag == b.routing_tag;
  }
};

/// Zero-copy view of one encoded item: spans into the scanned buffer, valid
/// while that buffer is unchanged.
struct ItemView {
  std::span<const uint8_t> blob;
  std::optional<std::span<const uint8_t>> routing_tag;

  EncryptedItem ToItem() const;
};

// ---- Item-vector codec ----
// An item vector is a u32 count followed by that many item encodings. It is
// the one way items cross the SSI (net/ssi_wire.h), and ItemScanner is its
// one reader: the SSI node validates with it without materializing an item,
// and every decode is built on it, so the two accept exactly the same bytes.

/// Appends the item-vector encoding of `items` to `out`, growing it once.
void EncodeItemsTo(std::span<const EncryptedItem> items, Bytes* out);
/// The number of bytes EncodeItemsTo appends for `items`.
size_t EncodedItemsSize(std::span<const EncryptedItem> items);

/// Reads one item vector that fills the rest of a ByteReader, item by item,
/// without copying. Corruption on a count the remaining bytes cannot hold at
/// 5 bytes per item (checked before any item is read), a tag flag above 1, a
/// length past the end, or bytes left after the last item. Reading all
/// count() items through Next() performs every one of those checks.
class ItemScanner {
 public:
  /// Reads the count and takes the rest of `reader` as the items.
  static Result<ItemScanner> Open(::tcells::ByteReader* reader);

  uint32_t count() const { return count_; }
  /// The next of count() items; the last one also rejects trailing bytes.
  Result<ItemView> Next();

 private:
  ItemScanner(std::span<const uint8_t> items, uint32_t count)
      : items_(items), count_(count) {}
  /// The u32-length-prefixed field at pos_, or false when it overruns.
  bool TakeField(std::span<const uint8_t>* field);

  std::span<const uint8_t> items_;
  size_t pos_ = 0;
  uint32_t count_;
  uint32_t read_ = 0;
};

/// Validates the rest of `reader` as one item vector and returns its count,
/// materializing nothing.
Result<uint32_t> ScanItems(::tcells::ByteReader* reader);
/// Decodes the rest of `reader` as one item vector.
Result<std::vector<EncryptedItem>> DecodeItems(::tcells::ByteReader* reader);

/// Kinds of plaintext payloads found inside an EncryptedItem blob once a TDS
/// decrypts it. The SSI can never read this byte.
enum class PayloadKind : uint8_t {
  kTrueTuple = 0,   ///< a real collection tuple
  kDummyTuple = 1,  ///< §3.2: empty result or access denied
  kFakeTuple = 2,   ///< Noise protocols' noise
  kPartialAgg = 3,  ///< serialized GroupedAggregation
  kResultRow = 4,   ///< final result row under k1
};

/// Serializes a payload: kind byte, u32 body length, body, then zero padding
/// up to `pad_to` total bytes (0 = no padding). Padding makes dummy/fake
/// payloads the same plaintext length as true ones, so that ciphertext
/// lengths leak nothing.
Bytes EncodePayload(PayloadKind kind, const Bytes& body, size_t pad_to = 0);
Bytes EncodePayload(PayloadKind kind, const uint8_t* body, size_t body_size,
                    size_t pad_to = 0);
/// Scratch form: overwrites `out`, reusing its capacity. The per-tuple seal
/// paths call this with a thread-local buffer so encoding stops allocating.
void EncodePayloadTo(PayloadKind kind, const uint8_t* body, size_t body_size,
                     size_t pad_to, Bytes* out);

struct DecodedPayload {
  PayloadKind kind;
  Bytes body;
};
Result<DecodedPayload> DecodePayload(const Bytes& payload);

/// Zero-copy view of a decoded payload: `body` points into the buffer handed
/// to DecodePayloadView and is valid only while that buffer is unchanged.
/// The TDS open paths decode every partition item through this view so the
/// body bytes are never copied out of the decryption scratch buffer.
struct PayloadView {
  PayloadKind kind;
  const uint8_t* body = nullptr;
  size_t body_size = 0;

  Bytes ToBytes() const { return Bytes(body, body + body_size); }
};
Result<PayloadView> DecodePayloadView(const uint8_t* payload, size_t n);
inline Result<PayloadView> DecodePayloadView(const Bytes& payload) {
  return DecodePayloadView(payload.data(), payload.size());
}

/// Batch-opens every item blob under `enc` into `plains` (resized to
/// items.size(); each element's capacity is reused across calls, so a
/// caller that keeps the vector alive across partitions stops allocating
/// once the buffers have grown). Returns the first decryption failure.
Status OpenAll(const crypto::NDetEnc& enc,
               std::span<const EncryptedItem> items,
               std::vector<Bytes>* plains);

/// Arena-backed batch open: every plaintext lives in `arena` and `plains` is
/// filled with views into it, so a warmed arena makes the whole open
/// allocation-free. The views are valid until the arena's next Reset(); the
/// caller owns that lifetime (the TDS resets once per partition).
Status OpenAllInto(const crypto::NDetEnc& enc,
                   std::span<const EncryptedItem> items, Arena* arena,
                   std::vector<std::span<const uint8_t>>* plains);

/// Public key-establishment material of one dynamically-keyed query (see
/// docs/KEYS.md): the key epoch the querier derived from plus a fresh nonce.
/// Everything here is cleartext by design — the per-query keys k1q/k2q are
/// derived from the *secret* epoch master secret, which the SSI never holds,
/// so publishing (epoch, query_id, nonce) reveals nothing.
struct QueryKeyPosting {
  uint32_t epoch = 0;
  uint64_t query_id = 0;
  Bytes nonce;  ///< 16 fresh bytes drawn by the querier per query

  static constexpr size_t kNonceSize = 16;

  void EncodeTo(Bytes* out) const;
  static Result<QueryKeyPosting> DecodeFrom(::tcells::ByteReader* reader);

  friend bool operator==(const QueryKeyPosting& a, const QueryKeyPosting& b) {
    return a.epoch == b.epoch && a.query_id == b.query_id &&
           a.nonce == b.nonce;
  }
};

/// What the querier posts on the SSI (§3.2 step 1): the encrypted query, the
/// querier's credential (signed by an authority), and the SIZE clause in
/// cleartext so the SSI can evaluate it. A dynamically-keyed query also
/// carries its public QueryKeyPosting; statically-keyed posts encode
/// byte-identically to the pre-key-management wire format.
struct QueryPost {
  uint64_t query_id = 0;
  Bytes encrypted_query;         ///< nDet_Enc_k1(SQL text)
  std::string querier_id;        ///< cleartext querier identity
  Bytes credential_mac;          ///< authority MAC over querier_id
  std::optional<uint64_t> size_max_tuples;
  std::optional<uint64_t> size_max_duration_ticks;
  std::optional<QueryKeyPosting> key_posting;  ///< dynamic key mode only

  Bytes Encode() const;
  static Result<QueryPost> Decode(const Bytes& data);
};

/// A chunk of the covering result handed to one TDS. Its codec is the
/// item-vector codec above.
struct Partition {
  std::vector<EncryptedItem> items;

  uint64_t WireSize() const {
    uint64_t n = 0;
    for (const auto& item : items) n += item.WireSize();
    return n;
  }

  Bytes Encode() const;
  static Result<Partition> Decode(const Bytes& data);
};

}  // namespace tcells::ssi

#endif  // TCELLS_SSI_MESSAGES_H_
