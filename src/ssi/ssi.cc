#include "ssi/ssi.h"

#include <algorithm>
#include <type_traits>

namespace tcells::ssi {

namespace {

template <typename Key>
constexpr bool kTagKey = std::is_same_v<Key, Bytes>;

/// Writes a u32 entry count, then (key, count) pairs in ascending key order.
template <typename Key>
void EncodeHistogram(const std::map<Key, uint64_t>& hist, Bytes* out) {
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(hist.size()));
  for (const auto& [key, count] : hist) {
    if constexpr (kTagKey<Key>) {
      w.PutBytes(key);
    } else {
      w.PutU64(key);
    }
    w.PutU64(count);
  }
}

/// Reads what EncodeHistogram writes into an empty `hist`. Keys must be
/// strictly ascending, so every histogram has one encoding.
template <typename Key>
Status DecodeHistogram(ByteReader* reader, std::map<Key, uint64_t>* hist) {
  // An entry is a tag (4-byte length and up) or an 8-byte size, then a count.
  TCELLS_ASSIGN_OR_RETURN(uint32_t n,
                          reader->GetCountU32(kTagKey<Key> ? 12 : 16));
  for (uint32_t i = 0; i < n; ++i) {
    Key key;
    if constexpr (kTagKey<Key>) {
      TCELLS_ASSIGN_OR_RETURN(key, reader->GetBytes());
    } else {
      TCELLS_ASSIGN_OR_RETURN(key, reader->GetU64());
    }
    TCELLS_ASSIGN_OR_RETURN(uint64_t count, reader->GetU64());
    if (!hist->empty() && !(hist->rbegin()->first < key)) {
      return Status::Corruption("histogram keys not strictly ascending");
    }
    hist->emplace_hint(hist->end(), std::move(key), count);
  }
  return Status::OK();
}

}  // namespace

void AdversaryView::Merge(const AdversaryView& other) {
  const auto merge = [](const auto& from, auto* into) {
    for (const auto& [key, count] : from) (*into)[key] += count;
  };
  merge(other.collection_tag_histogram, &collection_tag_histogram);
  merge(other.collection_blob_size_histogram, &collection_blob_size_histogram);
  merge(other.aggregation_tag_histogram, &aggregation_tag_histogram);
  collection_items += other.collection_items;
  aggregation_items += other.aggregation_items;
  filtering_items += other.filtering_items;
}

void AdversaryView::EncodeTo(Bytes* out) const {
  EncodeHistogram(collection_tag_histogram, out);
  EncodeHistogram(collection_blob_size_histogram, out);
  EncodeHistogram(aggregation_tag_histogram, out);
  ByteWriter w(out);
  w.PutU64(collection_items);
  w.PutU64(aggregation_items);
  w.PutU64(filtering_items);
}

Result<AdversaryView> AdversaryView::Decode(std::span<const uint8_t> data) {
  ByteReader reader(data);
  AdversaryView view;
  TCELLS_RETURN_IF_ERROR(
      DecodeHistogram(&reader, &view.collection_tag_histogram));
  TCELLS_RETURN_IF_ERROR(
      DecodeHistogram(&reader, &view.collection_blob_size_histogram));
  TCELLS_RETURN_IF_ERROR(
      DecodeHistogram(&reader, &view.aggregation_tag_histogram));
  TCELLS_ASSIGN_OR_RETURN(view.collection_items, reader.GetU64());
  TCELLS_ASSIGN_OR_RETURN(view.aggregation_items, reader.GetU64());
  TCELLS_ASSIGN_OR_RETURN(view.filtering_items, reader.GetU64());
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after AdversaryView");
  }
  return view;
}

namespace {

/// Orders tags as std::map<Bytes> does (lexicographically), and lets a
/// span look up a Bytes key without building one.
struct TagLess {
  using is_transparent = void;
  bool operator()(std::span<const uint8_t> a,
                  std::span<const uint8_t> b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

}  // namespace

Result<uint32_t> ViewRecorder::ObserveItems(std::span<const uint8_t> items,
                                            TagCounts* tags,
                                            SizeCounts* blob_sizes) {
  ByteReader reader(items.data(), items.size());
  TCELLS_ASSIGN_OR_RETURN(ItemScanner scan, ItemScanner::Open(&reader));
  for (uint32_t i = 0; i < scan.count(); ++i) {
    TCELLS_ASSIGN_OR_RETURN(ItemView item, scan.Next());
    if (const auto tag = item.routing_tag()) {
      const std::string_view key(reinterpret_cast<const char*>(tag->data()),
                                 tag->size());
      if (auto it = tags->find(key); it != tags->end()) {
        it->second += 1;
      } else {
        tags->emplace(key, 1);
      }
    }
    if (blob_sizes != nullptr) (*blob_sizes)[item.blob().size()] += 1;
  }
  return scan.count();
}

Status ViewRecorder::ObserveCollection(std::span<const uint8_t> items) {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n,
                          ObserveItems(items, &collection_tags_,
                                       &collection_sizes_));
  view_.collection_items += n;
  return Status::OK();
}

Status ViewRecorder::ObserveAggregation(std::span<const uint8_t> items) {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n,
                          ObserveItems(items, &aggregation_tags_, nullptr));
  view_.aggregation_items += n;
  return Status::OK();
}

const AdversaryView& ViewRecorder::View() {
  const auto fold = [](TagCounts* counts, std::map<Bytes, uint64_t>* hist) {
    for (const auto& [tag, count] : *counts) {
      (*hist)[Bytes(tag.begin(), tag.end())] += count;
    }
    counts->clear();
  };
  fold(&collection_tags_, &view_.collection_tag_histogram);
  fold(&aggregation_tags_, &view_.aggregation_tag_histogram);
  for (const auto& [size, count] : collection_sizes_) {
    view_.collection_blob_size_histogram[size] += count;
  }
  collection_sizes_.clear();
  return view_;
}

std::vector<Partition> PartitionRandomly(std::vector<EncryptedItem> items,
                                         size_t chunk_items, Rng* rng) {
  if (chunk_items == 0) chunk_items = 1;
  rng->Shuffle(&items);
  std::vector<Partition> partitions;
  for (size_t i = 0; i < items.size(); i += chunk_items) {
    Partition p;
    size_t end = std::min(items.size(), i + chunk_items);
    p.items.assign(std::make_move_iterator(items.begin() + i),
                   std::make_move_iterator(items.begin() + end));
    partitions.push_back(std::move(p));
  }
  return partitions;
}

Result<std::vector<Partition>> PartitionByTag(std::vector<EncryptedItem> items) {
  // Tags are looked up as spans into the items' buffers; a key is built only
  // for a first-seen tag.
  std::map<Bytes, Partition, TagLess> by_tag;
  for (auto& item : items) {
    const auto tag = item.routing_tag();
    if (!tag) {
      return Status::InvalidArgument(
          "tag-based partitioning requires routing tags on all items");
    }
    auto it = by_tag.lower_bound(*tag);
    if (it == by_tag.end() || TagLess()(*tag, it->first)) {
      it = by_tag.emplace_hint(it, Bytes(tag->begin(), tag->end()),
                               Partition{});
    }
    it->second.items.push_back(std::move(item));
  }
  std::vector<Partition> partitions;
  partitions.reserve(by_tag.size());
  for (auto& [tag, partition] : by_tag) {
    partitions.push_back(std::move(partition));
  }
  return partitions;
}

std::vector<Partition> SplitPartition(Partition partition, size_t ways) {
  ways = std::max<size_t>(1, std::min(ways, partition.items.size()));
  std::vector<Partition> out(ways);
  // Round-robin keeps sub-partitions balanced to within one item.
  for (size_t i = 0; i < partition.items.size(); ++i) {
    out[i % ways].items.push_back(std::move(partition.items[i]));
  }
  return out;
}

}  // namespace tcells::ssi
