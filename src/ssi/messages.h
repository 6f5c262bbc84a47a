// Wire messages exchanged through the SSI. Everything the SSI can see is in
// these types; everything sensitive is inside item blob ciphertexts.
#ifndef TCELLS_SSI_MESSAGES_H_
#define TCELLS_SSI_MESSAGES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/encryption.h"
#include "storage/tuple.h"

namespace tcells::ssi {

/// Where the blob starts in an untagged item's encoding: after the flag
/// byte and the blob length. A tagged item's blob starts 4 + tag bytes later.
inline constexpr uint32_t kUntaggedBlobOffset = 5;

/// Zero-copy view of one encoded item: its encoding — u8 tag flag (0 or
/// 1), the u32-length tag when the flag is 1, then the u32-length blob — and
/// where the blob starts in it. The spans point into the buffer the view was
/// read from and are valid while that buffer is unchanged. ItemScanner
/// yields these, and EncryptedItem reads its fields through one.
class ItemView {
 public:
  std::span<const uint8_t> blob() const {
    return encoding_.subspan(blob_offset_);
  }
  /// The tag follows the flag and its u32 length; the blob's u32 length
  /// follows the tag.
  std::optional<std::span<const uint8_t>> routing_tag() const {
    if (blob_offset_ == kUntaggedBlobOffset) return std::nullopt;
    return encoding_.subspan(5, blob_offset_ - 9);
  }
  /// The whole item encoding, from the tag flag to the blob's last byte.
  std::span<const uint8_t> encoding() const { return encoding_; }

 private:
  friend class ItemScanner;
  friend class EncryptedItem;

  ItemView(std::span<const uint8_t> encoding, uint32_t blob_offset)
      : encoding_(encoding), blob_offset_(blob_offset) {}

  std::span<const uint8_t> encoding_;
  uint32_t blob_offset_;
};

/// An encrypted unit flowing through the SSI: a collection tuple, a partial
/// aggregation, or a final result row. Its routing tag, when present, is the
/// only cleartext channel a protocol deliberately exposes to the SSI for
/// partitioning: Det_Enc(A_G) bytes (Noise protocols), h(bucketId) (ED_Hist
/// phase 1) or Det_Enc(group) (ED_Hist phase 2). S_Agg and the basic
/// protocol expose no tag at all.
///
/// An item is a read-only handle on its own wire encoding (see ItemView)
/// inside a buffer it shares with the other items of the vector it was
/// sealed or received in (ItemsBuilder, DecodeItems). Copying an item bumps
/// that buffer's reference count and copies no bytes.
///
/// Two rules keep the sharing sound:
///  - Lifetime: an item keeps its whole source buffer alive (a received
///    reply body, a sealed serve), so a single surviving item pins it.
///  - Threads: the bytes are never written after construction, so items of
///    one buffer may be read from any number of threads; the atomic
///    reference count is the only state they share.
class EncryptedItem {
 public:
  /// No tag and an empty blob; points at a static encoding and allocates
  /// nothing.
  EncryptedItem();
  /// An item holding a copy of `blob` (and of `routing_tag`, when present)
  /// in a buffer of its own. A present-but-empty tag stays distinct from no
  /// tag. For tests and cold single-item paths; vectors go through
  /// ItemsBuilder or DecodeItems.
  explicit EncryptedItem(
      std::span<const uint8_t> blob,
      std::optional<std::span<const uint8_t>> routing_tag = std::nullopt);

  std::span<const uint8_t> blob() const { return view().blob(); }
  std::optional<std::span<const uint8_t>> routing_tag() const {
    return view().routing_tag();
  }
  /// The item's whole wire encoding: what item vectors carry on every SSI
  /// call and what the contribution digest hashes.
  std::span<const uint8_t> encoding() const { return {data_.get(), size_}; }

  /// Blob plus tag bytes: what the item puts on the wire beyond framing.
  size_t WireSize() const {
    const auto tag = routing_tag();
    return blob().size() + (tag ? tag->size() : 0);
  }
  size_t EncodedSize() const { return size_; }

  /// Encoding equality. The codec is canonical, so this is field equality
  /// (blob, tag presence, tag bytes), and integrity checks can compare items
  /// directly instead of re-encoding and hashing.
  friend bool operator==(const EncryptedItem& a, const EncryptedItem& b);

 private:
  friend class ItemsBuilder;
  friend Result<std::vector<EncryptedItem>> DecodeItems(
      const std::shared_ptr<const void>& owner, std::span<const uint8_t> data);

  EncryptedItem(std::shared_ptr<const uint8_t> data, uint32_t size,
                uint32_t blob_offset)
      : data_(std::move(data)), size_(size), blob_offset_(blob_offset) {}
  ItemView view() const { return ItemView(encoding(), blob_offset_); }
  /// Validates `items` (an item-vector encoding inside the buffer `owner`
  /// keeps alive) and returns one item per encoding, each sharing `owner`.
  static Result<std::vector<EncryptedItem>> Adopt(
      const std::shared_ptr<const void>& owner,
      std::span<const uint8_t> items);

  /// Aliases the source buffer's owner and points at this item's encoding.
  std::shared_ptr<const uint8_t> data_;
  uint32_t size_;
  uint32_t blob_offset_;
};

// ---- Item-vector codec ----
// An item vector is a u32 count followed by that many item encodings. It is
// the one way items cross the SSI (net/ssi_wire.h), and ItemScanner is its
// one reader: the SSI node validates with it without materializing an item,
// and the one decode is built on it, so the two accept exactly the same
// bytes.

/// Appends the item-vector encoding of `items` to `out`, growing it once:
/// one memcpy per item encoding.
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
/// Decodes `data`, which must hold exactly one item vector inside a buffer
/// `owner` keeps alive. The items share `owner`: one validating ItemScanner
/// pass, no copy and no allocation per item. Every reply that carries items
/// is decoded here, with the reply frame as the owner.
Result<std::vector<EncryptedItem>> DecodeItems(
    const std::shared_ptr<const void>& owner, std::span<const uint8_t> data);
/// DecodeItems over a buffer of its own, which the items adopt.
Result<std::vector<EncryptedItem>> DecodeItems(Bytes data);

/// Seals one item vector straight into its encoding. The encodings are
/// written into a caller-lent scratch buffer (whose capacity a warmed thread
/// reuses across calls) and Finish() hands them out over one exact-size
/// shared buffer, so a vector costs one buffer, not two per item. A scratch
/// buffer must never back two live builders: a live builder keeps it
/// non-empty, and a second one asserts that it is empty.
class ItemsBuilder {
 public:
  explicit ItemsBuilder(Bytes* scratch);
  ~ItemsBuilder();
  ItemsBuilder(const ItemsBuilder&) = delete;
  ItemsBuilder& operator=(const ItemsBuilder&) = delete;

  /// Appends one item whose blob is nDet_Enc(`plaintext`) under `enc`, with
  /// the IV drawn from `rng` exactly as NDetEnc::Encrypt draws it.
  void Seal(const crypto::NDetEnc& enc, std::span<const uint8_t> plaintext,
            std::optional<std::span<const uint8_t>> routing_tag, Rng* rng);
  /// The items sealed so far, in order, over one new buffer. The builder
  /// is empty afterwards and may seal a new vector.
  Result<std::vector<EncryptedItem>> Finish();

 private:
  Bytes* scratch_;
  uint32_t count_ = 0;
};

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

/// Zero-copy view of a decoded payload: `body` points into the buffer handed
/// to DecodePayloadView and is valid only while that buffer is unchanged.
/// Every reader (the TDS open paths, the querier's result rows) decodes
/// through this view, so the body bytes are never copied out of the
/// decryption buffer.
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

/// Batch open: every item blob is decrypted under `enc` into `arena` and
/// `plains` is filled with views into it, so a warmed arena makes the whole
/// open allocation-free. Returns the first decryption failure. The views are
/// valid until the arena's next Reset(); the caller owns that lifetime (the
/// TDS resets once per partition).
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
  SharedBytes nonce;  ///< 16 fresh bytes drawn by the querier per query

  static constexpr size_t kNonceSize = 16;

  void EncodeTo(Bytes* out) const;
  /// Reads a posting from `reader`, whose buffer `owner` keeps alive; the
  /// nonce shares it.
  static Result<QueryKeyPosting> DecodeFrom(
      ::tcells::ByteReader* reader, const std::shared_ptr<const void>& owner);

  friend bool operator==(const QueryKeyPosting& a, const QueryKeyPosting& b) {
    return a.epoch == b.epoch && a.query_id == b.query_id &&
           a.nonce == b.nonce;
  }
};

/// The tag a conditional epoch-block fetch (net::MsgType::kFetchEpochBlock)
/// names a key-epoch block by: the first 8 bytes of SHA-256 over the
/// encoded block, read little-endian, with 0 mapped to 1, since a held tag
/// of 0 means "no block held". The SSI tags the opaque bytes it serves, a
/// TDS the bytes it adopted (docs/KEYS.md "When a TDS refreshes").
uint64_t EpochBlockTag(std::span<const uint8_t> block);

/// What the querier posts on the SSI (§3.2 step 1): the encrypted query, the
/// querier's credential (signed by an authority), and the SIZE clause in
/// cleartext so the SSI can evaluate it. A dynamically-keyed query also
/// carries its public QueryKeyPosting; statically-keyed posts encode
/// byte-identically to the pre-key-management wire format.
///
/// The byte fields are SharedBytes: a decoded post's fields are views into
/// the buffer it was decoded from, so copying a post — one per TDS that
/// downloads it — copies no bytes (a querier id longer than the string's
/// inline capacity excepted).
struct QueryPost {
  uint64_t query_id = 0;
  SharedBytes encrypted_query;   ///< nDet_Enc_k1(SQL text)
  std::string querier_id;        ///< cleartext querier identity
  SharedBytes credential_mac;    ///< authority MAC over querier_id
  std::optional<uint64_t> size_max_tuples;
  std::optional<uint64_t> size_max_duration_ticks;
  std::optional<QueryKeyPosting> key_posting;  ///< dynamic key mode only

  Bytes Encode() const;
  /// Appends the encoding to `out`.
  void EncodeTo(Bytes* out) const;
  /// Decodes `data`, which must hold exactly one post, into one copy of it
  /// that the post's byte fields share.
  static Result<QueryPost> Decode(std::span<const uint8_t> data);
  /// Decodes `data`, inside a buffer `owner` keeps alive; the byte fields
  /// are views into it and copy nothing.
  static Result<QueryPost> Decode(const std::shared_ptr<const void>& owner,
                                  std::span<const uint8_t> data);
};

/// A chunk of the covering result handed to one TDS. Its codec is the
/// item-vector codec above (Encode here, DecodeItems to read it back).
struct Partition {
  std::vector<EncryptedItem> items;

  uint64_t WireSize() const {
    uint64_t n = 0;
    for (const auto& item : items) n += item.WireSize();
    return n;
  }

  Bytes Encode() const;
};

}  // namespace tcells::ssi

#endif  // TCELLS_SSI_MESSAGES_H_
