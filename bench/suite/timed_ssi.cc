#include "timed_ssi.h"

#include <cstdio>

namespace tcells::bench {

namespace {

constexpr const char* kCallNames[kNumSsiCalls] = {
    "ssi.PostGlobal",         "ssi.PostPersonal",
    "ssi.FetchPosts",         "ssi.FetchPostsBatch",
    "ssi.Acknowledge",        "ssi.NumAcknowledged",
    "ssi.SizeReached",        "ssi.UploadCollection",
    "ssi.UploadCollectionBatch", "ssi.TakeCollected",
    "ssi.StagePartition",     "ssi.FetchPartition",
    "ssi.UploadRoundOutput",  "ssi.TakeRoundOutput",
    "ssi.ObserveAggregation", "ssi.ObserveFiltering",
    "ssi.PostEpochBlock",     "ssi.FetchEpochBlock",
    "ssi.DeliverResult",      "ssi.FetchResult",
    "ssi.GetAdversaryView",   "ssi.Retire",
};

uint64_t ItemBytes(const std::vector<ssi::EncryptedItem>& items) {
  uint64_t n = 0;
  for (const auto& item : items) n += item.WireSize();
  return n;
}

}  // namespace

void SpanLog::SetContext(uint64_t query_id, uint64_t parent) {
  std::lock_guard<std::mutex> lock(mu_);
  context_query_ = query_id;
  context_parent_ = parent;
}

uint64_t SpanLog::Add(uint64_t query_id, uint64_t parent, const char* name,
                      int64_t start_ns, int64_t dur_ns, uint64_t bytes,
                      int call) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.query_id = query_id;
  span.name = name;
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  span.bytes = bytes;
  span.call = call;
  spans_.push_back(span);
  return span.id;
}

uint64_t SpanLog::Open(uint64_t query_id, uint64_t parent, const char* name) {
  return Add(query_id, parent, name, Now(), 0);
}

int64_t SpanLog::Close(uint64_t id) {
  const int64_t end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& span = spans_.at(id - 1);
  span.dur_ns = end - span.start_ns;
  return span.dur_ns;
}

void SpanLog::AddCall(SsiCall call, int64_t start_ns, int64_t end_ns,
                      uint64_t bytes) {
  uint64_t query_id = 0, parent = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    query_id = context_query_;
    parent = context_parent_;
  }
  Add(query_id, parent, kCallNames[static_cast<size_t>(call)], start_ns,
      end_ns - start_ns, bytes, static_cast<int>(call));
}

std::vector<SpanRecord> SpanLog::SpansOf(uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : spans_) {
    if (span.query_id == query_id) out.push_back(span);
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"dur_ns\": %lld, "
                 "\"bytes\": %llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.dur_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

template <typename F>
auto TimedSsi::Timed(SsiCall call, uint64_t bytes, F&& forward) {
  const int64_t t0 = log_->Now();
  auto result = forward();
  log_->AddCall(call, t0, log_->Now(), bytes);
  return result;
}

Status TimedSsi::PostGlobal(const ssi::QueryPost& post) {
  return Timed(SsiCall::kPostGlobal, 0,
               [&] { return inner_->PostGlobal(post); });
}

Status TimedSsi::PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) {
  return Timed(SsiCall::kPostPersonal, 0,
               [&] { return inner_->PostPersonal(tds_id, post); });
}

Result<std::vector<ssi::QueryPost>> TimedSsi::FetchPosts(uint64_t tds_id) {
  return Timed(SsiCall::kFetchPosts, 0,
               [&] { return inner_->FetchPosts(tds_id); });
}

std::vector<Result<std::vector<ssi::QueryPost>>> TimedSsi::FetchPostsBatch(
    const std::vector<uint64_t>& tds_ids) {
  return Timed(SsiCall::kFetchPostsBatch, 0,
               [&] { return inner_->FetchPostsBatch(tds_ids); });
}

Status TimedSsi::Acknowledge(uint64_t tds_id, uint64_t query_id) {
  return Timed(SsiCall::kAcknowledge, 0,
               [&] { return inner_->Acknowledge(tds_id, query_id); });
}

Result<uint64_t> TimedSsi::NumAcknowledged(uint64_t query_id) {
  return Timed(SsiCall::kNumAcknowledged, 0,
               [&] { return inner_->NumAcknowledged(query_id); });
}

Result<bool> TimedSsi::SizeReached(uint64_t query_id) {
  return Timed(SsiCall::kSizeReached, 0,
               [&] { return inner_->SizeReached(query_id); });
}

Result<bool> TimedSsi::UploadCollection(
    uint64_t query_id, uint64_t tds_id,
    const std::vector<ssi::EncryptedItem>& items) {
  return Timed(SsiCall::kUploadCollection, ItemBytes(items), [&] {
    return inner_->UploadCollection(query_id, tds_id, items);
  });
}

std::vector<Result<bool>> TimedSsi::UploadCollectionBatch(
    const std::vector<net::CollectionUpload>& uploads) {
  uint64_t bytes = 0;
  for (const net::CollectionUpload& u : uploads) bytes += ItemBytes(u.items);
  return Timed(SsiCall::kUploadCollectionBatch, bytes,
               [&] { return inner_->UploadCollectionBatch(uploads); });
}

Result<std::vector<ssi::EncryptedItem>> TimedSsi::TakeCollected(
    uint64_t query_id) {
  return Timed(SsiCall::kTakeCollected, 0,
               [&] { return inner_->TakeCollected(query_id); });
}

Status TimedSsi::StagePartition(uint64_t query_id, uint64_t token,
                                const ssi::Partition& partition) {
  return Timed(SsiCall::kStagePartition, partition.WireSize(), [&] {
    return inner_->StagePartition(query_id, token, partition);
  });
}

Result<ssi::Partition> TimedSsi::FetchPartition(uint64_t query_id,
                                                uint64_t token) {
  return Timed(SsiCall::kFetchPartition, 0,
               [&] { return inner_->FetchPartition(query_id, token); });
}

Status TimedSsi::UploadRoundOutput(
    uint64_t query_id, uint64_t token,
    const std::vector<ssi::EncryptedItem>& items) {
  return Timed(SsiCall::kUploadRoundOutput, ItemBytes(items), [&] {
    return inner_->UploadRoundOutput(query_id, token, items);
  });
}

Result<std::vector<ssi::EncryptedItem>> TimedSsi::TakeRoundOutput(
    uint64_t query_id, uint64_t token) {
  return Timed(SsiCall::kTakeRoundOutput, 0,
               [&] { return inner_->TakeRoundOutput(query_id, token); });
}

Status TimedSsi::ObserveAggregation(
    uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) {
  return Timed(SsiCall::kObserveAggregation, ItemBytes(items),
               [&] { return inner_->ObserveAggregation(query_id, items); });
}

Status TimedSsi::ObserveFiltering(
    uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) {
  return Timed(SsiCall::kObserveFiltering, ItemBytes(items),
               [&] { return inner_->ObserveFiltering(query_id, items); });
}

Status TimedSsi::PostEpochBlock(const Bytes& block) {
  return Timed(SsiCall::kPostEpochBlock, block.size(),
               [&] { return inner_->PostEpochBlock(block); });
}

Result<Bytes> TimedSsi::FetchEpochBlock(uint64_t tds_id) {
  return Timed(SsiCall::kFetchEpochBlock, 0,
               [&] { return inner_->FetchEpochBlock(tds_id); });
}

Status TimedSsi::DeliverResult(uint64_t query_id,
                               const std::vector<ssi::EncryptedItem>& items) {
  return Timed(SsiCall::kDeliverResult, ItemBytes(items),
               [&] { return inner_->DeliverResult(query_id, items); });
}

Result<std::vector<ssi::EncryptedItem>> TimedSsi::FetchResult(
    uint64_t query_id) {
  return Timed(SsiCall::kFetchResult, 0,
               [&] { return inner_->FetchResult(query_id); });
}

Result<ssi::AdversaryView> TimedSsi::GetAdversaryView(uint64_t query_id) {
  return Timed(SsiCall::kGetAdversaryView, 0,
               [&] { return inner_->GetAdversaryView(query_id); });
}

Status TimedSsi::Retire(uint64_t query_id) {
  return Timed(SsiCall::kRetire, 0, [&] { return inner_->Retire(query_id); });
}

}  // namespace tcells::bench
