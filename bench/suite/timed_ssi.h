// Outside-in timing for the repository benchmark (tcells_bench).
//
// SpanLog keeps every span the benchmark records in memory — name, start,
// end, parent and query id — and writes them out once the run ends. TimedSsi
// is a net::SsiApi decorator that times each call into the SSI layer and
// files it as a span; it forwards every call one to one, overriding every
// virtual (including the batched and epoch calls whose base versions would
// otherwise replay a serial loop), so the wrapped stack sees exactly the call
// pattern it would see without the decorator.
#ifndef TCELLS_BENCH_SUITE_TIMED_SSI_H_
#define TCELLS_BENCH_SUITE_TIMED_SSI_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/ssi_api.h"

namespace tcells::bench {

/// Every SsiApi entry point, as the span name it is recorded under.
enum class SsiCall : uint8_t {
  kPostGlobal,
  kPostPersonal,
  kFetchPosts,
  kFetchPostsBatch,
  kAcknowledge,
  kNumAcknowledged,
  kSizeReached,
  kUploadCollection,
  kUploadCollectionBatch,
  kTakeCollected,
  kStagePartition,
  kFetchPartition,
  kUploadRoundOutput,
  kTakeRoundOutput,
  kObserveAggregation,
  kObserveFiltering,
  kPostEpochBlock,
  kFetchEpochBlock,
  kDeliverResult,
  kFetchResult,
  kGetAdversaryView,
  kRetire,
};
inline constexpr size_t kNumSsiCalls = 22;

/// One recorded interval. Times are nanoseconds since the log was created;
/// `start_ns` is -1 for spans whose duration is known but whose position is
/// not (the engine's own trace spans carry only a wall duration).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = top level
  uint64_t query_id = 0;
  const char* name = "";  ///< string literal (static lifetime)
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint64_t bytes = 0;  ///< payload bytes the span moved, where measured
  int call = -1;       ///< SsiCall index for SSI spans, -1 otherwise
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Files later SSI spans under `query_id` and `parent` (the benchmark runs
  /// one traced query at a time, so the SSI layer need not know ids).
  void SetContext(uint64_t query_id, uint64_t parent);

  /// Appends a finished span and returns its id.
  uint64_t Add(uint64_t query_id, uint64_t parent, const char* name,
               int64_t start_ns, int64_t dur_ns, uint64_t bytes = 0,
               int call = -1);
  /// Starts a span now; Close(id) sets its duration.
  uint64_t Open(uint64_t query_id, uint64_t parent, const char* name);
  /// Ends span `id` now and returns its duration in nanoseconds.
  int64_t Close(uint64_t id);
  /// Appends an SSI span under the current context.
  void AddCall(SsiCall call, int64_t start_ns, int64_t end_ns, uint64_t bytes);

  /// Copies of the spans recorded for `query_id`, in record order.
  std::vector<SpanRecord> SpansOf(uint64_t query_id) const;
  size_t size() const;

  /// One JSON object per line. False when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t context_query_ = 0;
  uint64_t context_parent_ = 0;
};

class TimedSsi final : public net::SsiApi {
 public:
  /// Both pointers are borrowed and must outlive the decorator.
  TimedSsi(net::SsiApi* inner, SpanLog* log) : inner_(inner), log_(log) {}

  Status PostGlobal(const ssi::QueryPost& post) override;
  Status PostPersonal(uint64_t tds_id, const ssi::QueryPost& post) override;
  Result<std::vector<ssi::QueryPost>> FetchPosts(uint64_t tds_id) override;
  std::vector<Result<std::vector<ssi::QueryPost>>> FetchPostsBatch(
      const std::vector<uint64_t>& tds_ids) override;
  Status Acknowledge(uint64_t tds_id, uint64_t query_id) override;
  Result<uint64_t> NumAcknowledged(uint64_t query_id) override;
  Result<bool> SizeReached(uint64_t query_id) override;
  Result<bool> UploadCollection(
      uint64_t query_id, uint64_t tds_id,
      const std::vector<ssi::EncryptedItem>& items) override;
  std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<net::CollectionUpload>& uploads) override;
  Result<std::vector<ssi::EncryptedItem>> TakeCollected(
      uint64_t query_id) override;
  Status StagePartition(uint64_t query_id, uint64_t token,
                        const ssi::Partition& partition) override;
  Result<ssi::Partition> FetchPartition(uint64_t query_id,
                                        uint64_t token) override;
  Status UploadRoundOutput(
      uint64_t query_id, uint64_t token,
      const std::vector<ssi::EncryptedItem>& items) override;
  Result<std::vector<ssi::EncryptedItem>> TakeRoundOutput(
      uint64_t query_id, uint64_t token) override;
  Status ObserveAggregation(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;
  Status ObserveFiltering(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;
  Status PostEpochBlock(const Bytes& block) override;
  Result<Bytes> FetchEpochBlock(uint64_t tds_id) override;
  Status DeliverResult(
      uint64_t query_id, const std::vector<ssi::EncryptedItem>& items) override;
  Result<std::vector<ssi::EncryptedItem>> FetchResult(
      uint64_t query_id) override;
  Result<ssi::AdversaryView> GetAdversaryView(uint64_t query_id) override;
  Status Retire(uint64_t query_id) override;

 private:
  template <typename F>
  auto Timed(SsiCall call, uint64_t bytes, F&& forward);

  net::SsiApi* inner_;
  SpanLog* log_;
};

}  // namespace tcells::bench

#endif  // TCELLS_BENCH_SUITE_TIMED_SSI_H_
