#include "ssi/ssi.h"

#include <algorithm>

namespace tcells::ssi {

namespace {

void EncodeTagHistogram(const std::map<Bytes, uint64_t>& hist, Bytes* out) {
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(hist.size()));
  for (const auto& [tag, count] : hist) {
    w.PutBytes(tag);
    w.PutU64(count);
  }
}

Result<std::map<Bytes, uint64_t>> DecodeTagHistogram(ByteReader* reader) {
  // Each entry is at least a 4-byte tag length plus an 8-byte count.
  TCELLS_ASSIGN_OR_RETURN(uint32_t n, reader->GetCountU32(12));
  std::map<Bytes, uint64_t> hist;
  for (uint32_t i = 0; i < n; ++i) {
    TCELLS_ASSIGN_OR_RETURN(Bytes tag, reader->GetBytes());
    TCELLS_ASSIGN_OR_RETURN(uint64_t count, reader->GetU64());
    hist[std::move(tag)] = count;
  }
  return hist;
}

}  // namespace

void AdversaryView::EncodeTo(Bytes* out) const {
  EncodeTagHistogram(collection_tag_histogram, out);
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(collection_blob_sizes.size()));
  for (size_t size : collection_blob_sizes) w.PutU64(size);
  EncodeTagHistogram(aggregation_tag_histogram, out);
  w.PutU64(collection_items);
  w.PutU64(aggregation_items);
  w.PutU64(filtering_items);
}

Result<AdversaryView> AdversaryView::Decode(std::span<const uint8_t> data) {
  ByteReader reader(data);
  AdversaryView view;
  TCELLS_ASSIGN_OR_RETURN(view.collection_tag_histogram,
                          DecodeTagHistogram(&reader));
  TCELLS_ASSIGN_OR_RETURN(uint32_t n_sizes, reader.GetCountU32(8));
  view.collection_blob_sizes.reserve(n_sizes);
  for (uint32_t i = 0; i < n_sizes; ++i) {
    TCELLS_ASSIGN_OR_RETURN(uint64_t size, reader.GetU64());
    view.collection_blob_sizes.push_back(static_cast<size_t>(size));
  }
  TCELLS_ASSIGN_OR_RETURN(view.aggregation_tag_histogram,
                          DecodeTagHistogram(&reader));
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
                                            std::vector<size_t>* blob_sizes) {
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
    if (blob_sizes != nullptr) blob_sizes->push_back(item.blob().size());
  }
  return scan.count();
}

Status ViewRecorder::ObserveCollection(std::span<const uint8_t> items) {
  TCELLS_ASSIGN_OR_RETURN(uint32_t n,
                          ObserveItems(items, &collection_tags_,
                                       &view_.collection_blob_sizes));
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
