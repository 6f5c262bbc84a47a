#include "ssi/messages.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "crypto/sha256.h"

namespace tcells::ssi {

namespace {

uint8_t* PutLe32(uint8_t* p, size_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<uint8_t>(v >> (8 * i));
  return p;
}

uint8_t* PutField(uint8_t* p, std::span<const uint8_t> field) {
  p = PutLe32(p, field.size());
  if (!field.empty()) std::memcpy(p, field.data(), field.size());
  return p + field.size();
}

/// Writes the head of an item encoding — tag flag, the tag when present, the
/// blob length — at `p` and returns where the blob goes.
uint8_t* PutItemHead(uint8_t* p,
                     std::optional<std::span<const uint8_t>> routing_tag,
                     size_t blob_size) {
  *p++ = routing_tag ? 1 : 0;
  if (routing_tag) p = PutField(p, *routing_tag);
  return PutLe32(p, blob_size);
}

size_t ItemEncodedSize(std::optional<std::span<const uint8_t>> routing_tag,
                       size_t blob_size) {
  return 5 + blob_size + (routing_tag ? 4 + routing_tag->size() : 0);
}

/// The encoding of the default item: no tag, empty blob.
constexpr uint8_t kEmptyItem[5] = {0, 0, 0, 0, 0};

}  // namespace

EncryptedItem::EncryptedItem()
    : data_(std::shared_ptr<const uint8_t>(), kEmptyItem),
      size_(sizeof(kEmptyItem)),
      blob_offset_(kUntaggedBlobOffset) {}

EncryptedItem::EncryptedItem(
    std::span<const uint8_t> blob,
    std::optional<std::span<const uint8_t>> routing_tag) {
  const size_t size = ItemEncodedSize(routing_tag, blob.size());
  auto buffer = std::make_shared_for_overwrite<uint8_t[]>(size);
  uint8_t* p = PutItemHead(buffer.get(), routing_tag, blob.size());
  if (!blob.empty()) std::memcpy(p, blob.data(), blob.size());
  size_ = static_cast<uint32_t>(size);
  blob_offset_ = static_cast<uint32_t>(p - buffer.get());
  uint8_t* start = buffer.get();
  data_ = std::shared_ptr<const uint8_t>(std::move(buffer), start);
}

bool operator==(const EncryptedItem& a, const EncryptedItem& b) {
  return a.size_ == b.size_ &&
         (a.data_.get() == b.data_.get() ||
          std::memcmp(a.data_.get(), b.data_.get(), a.size_) == 0);
}

Result<std::vector<EncryptedItem>> EncryptedItem::Adopt(
    const std::shared_ptr<const void>& owner, std::span<const uint8_t> items) {
  ByteReader reader(items.data(), items.size());
  TCELLS_ASSIGN_OR_RETURN(ItemScanner scan, ItemScanner::Open(&reader));
  std::vector<EncryptedItem> out;
  out.reserve(scan.count());
  for (uint32_t i = 0; i < scan.count(); ++i) {
    TCELLS_ASSIGN_OR_RETURN(ItemView view, scan.Next());
    if (view.encoding_.size() > UINT32_MAX) {
      return Status::Corruption("item encoding exceeds 4 GiB");
    }
    out.push_back(EncryptedItem(
        std::shared_ptr<const uint8_t>(owner, view.encoding_.data()),
        static_cast<uint32_t>(view.encoding_.size()), view.blob_offset_));
  }
  return out;
}

size_t EncodedItemsSize(std::span<const EncryptedItem> items) {
  size_t n = 4;
  for (const auto& item : items) n += item.EncodedSize();
  return n;
}

void EncodeItemsTo(std::span<const EncryptedItem> items, Bytes* out) {
  const size_t start = out->size();
  out->resize(start + EncodedItemsSize(items));
  uint8_t* p = PutLe32(out->data() + start, items.size());
  for (const auto& item : items) {
    std::memcpy(p, item.encoding().data(), item.EncodedSize());
    p += item.EncodedSize();
  }
}

Result<ItemScanner> ItemScanner::Open(ByteReader* reader) {
  // Smallest possible item is 5 bytes (tag flag + empty blob length), so a
  // count larger than remaining/5 cannot be satisfied by the buffer.
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader->GetCountU32(5));
  const std::span<const uint8_t> items = reader->rest();
  TCELLS_RETURN_IF_ERROR(reader->Skip(items.size()));
  if (n == 0 && !items.empty()) {
    return Status::Corruption("trailing bytes after partition");
  }
  return ItemScanner(items, n);
}

bool ItemScanner::TakeField(std::span<const uint8_t>* field) {
  if (items_.size() - pos_ < 4) return false;
  const uint8_t* p = items_.data() + pos_;
  const size_t n = static_cast<size_t>(p[0]) | static_cast<size_t>(p[1]) << 8 |
                   static_cast<size_t>(p[2]) << 16 |
                   static_cast<size_t>(p[3]) << 24;
  pos_ += 4;
  if (items_.size() - pos_ < n) return false;
  *field = items_.subspan(pos_, n);
  pos_ += n;
  return true;
}

Result<ItemView> ItemScanner::Next() {
  if (read_ == count_) return Status::Corruption("read past item vector");
  if (pos_ == items_.size()) return Status::Corruption("byte reader underflow");
  const size_t start = pos_;
  const uint8_t has_tag = items_[pos_++];
  if (has_tag > 1) return Status::Corruption("bad item tag flag");
  std::span<const uint8_t> field;
  if (has_tag && !TakeField(&field)) {
    return Status::Corruption("byte reader underflow");
  }
  if (!TakeField(&field)) {
    return Status::Corruption("byte reader underflow");
  }
  if (++read_ == count_ && pos_ != items_.size()) {
    return Status::Corruption("trailing bytes after partition");
  }
  return ItemView(
      items_.subspan(start, pos_ - start),
      static_cast<uint32_t>(field.data() - (items_.data() + start)));
}

Result<uint32_t> ScanItems(ByteReader* reader) {
  TCELLS_ASSIGN_OR_RETURN(ItemScanner scan, ItemScanner::Open(reader));
  for (uint32_t i = 0; i < scan.count(); ++i) {
    TCELLS_RETURN_IF_ERROR(scan.Next().status());
  }
  return scan.count();
}

Result<std::vector<EncryptedItem>> DecodeItems(
    const std::shared_ptr<const void>& owner, std::span<const uint8_t> data) {
  return EncryptedItem::Adopt(owner, data);
}

Result<std::vector<EncryptedItem>> DecodeItems(Bytes data) {
  auto owner = std::make_shared<const Bytes>(std::move(data));
  return DecodeItems(owner, *owner);
}

ItemsBuilder::ItemsBuilder(Bytes* scratch) : scratch_(scratch) {
  assert(scratch_->empty() && "a scratch buffer backs two live builders");
  scratch_->resize(4);  // the count, written by Finish
}

ItemsBuilder::~ItemsBuilder() { scratch_->clear(); }

void ItemsBuilder::Seal(const crypto::NDetEnc& enc,
                        std::span<const uint8_t> plaintext,
                        std::optional<std::span<const uint8_t>> routing_tag,
                        Rng* rng) {
  const size_t blob_size = plaintext.size() + crypto::NDetEnc::kOverhead;
  const size_t start = scratch_->size();
  scratch_->resize(start + ItemEncodedSize(routing_tag, blob_size));
  uint8_t* blob =
      PutItemHead(scratch_->data() + start, routing_tag, blob_size);
  enc.EncryptInto(plaintext.data(), plaintext.size(), rng, blob);
  count_ += 1;
}

Result<std::vector<EncryptedItem>> ItemsBuilder::Finish() {
  PutLe32(scratch_->data(), count_);
  const size_t size = scratch_->size();
  std::shared_ptr<uint8_t[]> buffer =
      std::make_shared_for_overwrite<uint8_t[]>(size);
  std::memcpy(buffer.get(), scratch_->data(), size);
  scratch_->resize(4);
  count_ = 0;
  const std::span<const uint8_t> items(buffer.get(), size);
  return EncryptedItem::Adopt(std::move(buffer), items);
}

namespace {

/// A u32-length-prefixed byte string read from `reader` as a view into the
/// buffer `owner` keeps alive.
Result<SharedBytes> GetShared(ByteReader* reader,
                              const std::shared_ptr<const void>& owner) {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader->GetU32());
  const std::span<const uint8_t> bytes = reader->rest();
  TCELLS_RETURN_IF_ERROR(reader->Skip(n));
  return SharedBytes(owner, bytes.first(n));
}

void PutShared(ByteWriter* w, const SharedBytes& bytes) {
  w->PutU32(static_cast<uint32_t>(bytes.size()));
  w->PutRaw(bytes.data(), bytes.size());
}

}  // namespace

void QueryKeyPosting::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU32(epoch);
  w.PutU64(query_id);
  PutShared(&w, nonce);
}

Result<QueryKeyPosting> QueryKeyPosting::DecodeFrom(
    ByteReader* reader, const std::shared_ptr<const void>& owner) {
  QueryKeyPosting posting;
  TCELLS_ASSIGN_OR_RETURN(posting.epoch, reader->GetU32());
  TCELLS_ASSIGN_OR_RETURN(posting.query_id, reader->GetU64());
  TCELLS_ASSIGN_OR_RETURN(posting.nonce, GetShared(reader, owner));
  if (posting.nonce.size() != kNonceSize) {
    return Status::Corruption("key posting nonce must be 16 bytes");
  }
  return posting;
}

uint64_t EpochBlockTag(std::span<const uint8_t> block) {
  crypto::Sha256 sha;
  sha.Update(block.data(), block.size());
  const std::array<uint8_t, crypto::Sha256::kDigestSize> digest = sha.Finish();
  uint64_t tag = 0;
  for (size_t i = 8; i-- > 0;) tag = (tag << 8) | digest[i];
  return tag == 0 ? 1 : tag;
}

Bytes QueryPost::Encode() const {
  Bytes out;
  EncodeTo(&out);
  return out;
}

void QueryPost::EncodeTo(Bytes* out) const {
  ByteWriter w(out);
  w.PutU64(query_id);
  PutShared(&w, encrypted_query);
  w.PutString(querier_id);
  PutShared(&w, credential_mac);
  w.PutU8(static_cast<uint8_t>((size_max_tuples ? 1 : 0) |
                               (size_max_duration_ticks ? 2 : 0) |
                               (key_posting ? 4 : 0)));
  if (size_max_tuples) w.PutU64(*size_max_tuples);
  if (size_max_duration_ticks) w.PutU64(*size_max_duration_ticks);
  if (key_posting) key_posting->EncodeTo(out);
}

Result<QueryPost> QueryPost::Decode(std::span<const uint8_t> data) {
  std::shared_ptr<uint8_t[]> copy =
      std::make_shared_for_overwrite<uint8_t[]>(data.size());
  if (!data.empty()) std::memcpy(copy.get(), data.data(), data.size());
  const std::span<const uint8_t> bytes(copy.get(), data.size());
  return Decode(std::move(copy), bytes);
}

Result<QueryPost> QueryPost::Decode(const std::shared_ptr<const void>& owner,
                                    std::span<const uint8_t> data) {
  ByteReader reader(data);
  QueryPost post;
  TCELLS_ASSIGN_OR_RETURN(post.query_id, reader.GetU64());
  TCELLS_ASSIGN_OR_RETURN(post.encrypted_query, GetShared(&reader, owner));
  TCELLS_ASSIGN_OR_RETURN(post.querier_id, reader.GetString());
  TCELLS_ASSIGN_OR_RETURN(post.credential_mac, GetShared(&reader, owner));
  TCELLS_ASSIGN_OR_RETURN(uint8_t flags, reader.GetU8());
  if (flags > 7) return Status::Corruption("bad query post flags");
  if (flags & 1) {
    TCELLS_ASSIGN_OR_RETURN(uint64_t v, reader.GetU64());
    post.size_max_tuples = v;
  }
  if (flags & 2) {
    TCELLS_ASSIGN_OR_RETURN(uint64_t v, reader.GetU64());
    post.size_max_duration_ticks = v;
  }
  if (flags & 4) {
    TCELLS_ASSIGN_OR_RETURN(QueryKeyPosting posting,
                            QueryKeyPosting::DecodeFrom(&reader, owner));
    if (posting.query_id != post.query_id) {
      return Status::Corruption("key posting query id mismatch");
    }
    post.key_posting = std::move(posting);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after query post");
  }
  return post;
}

Bytes Partition::Encode() const {
  Bytes out;
  EncodeItemsTo(items, &out);
  return out;
}

Bytes EncodePayload(PayloadKind kind, const Bytes& body, size_t pad_to) {
  return EncodePayload(kind, body.data(), body.size(), pad_to);
}

Bytes EncodePayload(PayloadKind kind, const uint8_t* body, size_t body_size,
                    size_t pad_to) {
  Bytes out;
  EncodePayloadTo(kind, body, body_size, pad_to, &out);
  return out;
}

void EncodePayloadTo(PayloadKind kind, const uint8_t* body, size_t body_size,
                     size_t pad_to, Bytes* out) {
  out->clear();
  out->reserve(std::max(pad_to, 5 + body_size));
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU32(static_cast<uint32_t>(body_size));
  w.PutRaw(body, body_size);
  if (out->size() < pad_to) out->resize(pad_to, 0);
}

Result<PayloadView> DecodePayloadView(const uint8_t* payload, size_t n) {
  ByteReader reader(payload, n);
  TCELLS_ASSIGN_OR_RETURN(uint8_t kind, reader.GetU8());
  if (kind > static_cast<uint8_t>(PayloadKind::kResultRow)) {
    return Status::Corruption("unknown payload kind");
  }
  TCELLS_ASSIGN_OR_RETURN(uint32_t body_size, reader.GetU32());
  if (body_size > reader.remaining()) {
    return Status::Corruption("payload body overruns buffer");
  }
  PayloadView view;
  view.kind = static_cast<PayloadKind>(kind);
  view.body = payload + (n - reader.remaining());
  view.body_size = body_size;
  return view;
}

Status OpenAllInto(const crypto::NDetEnc& enc,
                   std::span<const EncryptedItem> items, Arena* arena,
                   std::vector<std::span<const uint8_t>>* plains) {
  plains->clear();
  plains->reserve(items.size());
  for (const auto& item : items) {
    const std::span<const uint8_t> blob = item.blob();
    if (blob.size() < crypto::NDetEnc::kOverhead) {
      return Status::Corruption("nDet ciphertext too short");
    }
    const size_t plain_size = blob.size() - crypto::NDetEnc::kOverhead;
    uint8_t* out = arena->Allocate(plain_size, 1);
    TCELLS_RETURN_IF_ERROR(enc.DecryptInto(blob.data(), blob.size(), out));
    plains->emplace_back(out, plain_size);
  }
  return Status::OK();
}

}  // namespace tcells::ssi
