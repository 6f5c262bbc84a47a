// The querying protocols of the paper, over a common 3-phase engine:
//
//   collection  -> aggregation -> filtering          (generic protocol, §4.1)
//
//  * BasicSfw  (§3.2)  — Select-From-Where, no aggregation phase.
//  * SAgg      (§4.2)  — nDet_Enc everywhere; iterative random-partition
//                        merging with reduction factor alpha (optimum 3.6).
//  * RnfNoise  (§4.3)  — Det_Enc(A_G) routing tags + nf random fake tuples
//                        per true tuple.
//  * CNoise    (§4.3)  — Det_Enc(A_G) routing tags + complementary-domain
//                        noise (flat mixed distribution by construction).
//  * EdHist    (§4.4)  — equi-depth histogram bucket hashes, two aggregation
//                        steps (bucket-level then group-level).
#ifndef TCELLS_PROTOCOL_PROTOCOLS_H_
#define TCELLS_PROTOCOL_PROTOCOLS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "protocol/querier.h"
#include "protocol/run_context.h"
#include "sql/executor.h"

namespace tcells::protocol {

enum class ProtocolKind { kBasicSfw, kSAgg, kRnfNoise, kCNoise, kEdHist };

const char* ProtocolKindToString(ProtocolKind kind);

/// Strategy interface: how to encode the collection phase and how to reduce
/// the collected items to the covering result.
class Protocol {
 public:
  virtual ~Protocol() = default;
  virtual ProtocolKind kind() const = 0;
  const char* name() const { return ProtocolKindToString(kind()); }

  /// Builds the collection-phase configuration distributed to TDSs. The
  /// session fills in the protocol-independent fields (key posting, payload
  /// padding) afterwards.
  virtual Result<tds::CollectionConfig> MakeCollectionConfig(
      RunContext& ctx, const sql::AnalyzedQuery& query) = 0;

  /// Aggregation phase: collected items -> covering result (one encrypted
  /// aggregate item per group). Identity for BasicSfw.
  virtual Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) = 0;
};

/// §3.2: no aggregation; the filtering phase drops dummy tuples.
class BasicSfwProtocol : public Protocol {
 public:
  ProtocolKind kind() const override { return ProtocolKind::kBasicSfw; }
  Result<tds::CollectionConfig> MakeCollectionConfig(
      RunContext& ctx, const sql::AnalyzedQuery& query) override;
  Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) override;
};

/// §4.2: Secure Aggregation.
class SAggProtocol : public Protocol {
 public:
  ProtocolKind kind() const override { return ProtocolKind::kSAgg; }
  Result<tds::CollectionConfig> MakeCollectionConfig(
      RunContext& ctx, const sql::AnalyzedQuery& query) override;
  Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) override;
};

/// §4.3: both noise flavours, selected by `complementary`.
class NoiseProtocol : public Protocol {
 public:
  /// `group_domain`: the known A_G domain. Rnf_Noise draws random fakes from
  /// it; C_Noise enumerates it.
  NoiseProtocol(bool complementary,
                std::shared_ptr<const std::vector<storage::Tuple>> group_domain)
      : complementary_(complementary), group_domain_(std::move(group_domain)) {}

  ProtocolKind kind() const override {
    return complementary_ ? ProtocolKind::kCNoise : ProtocolKind::kRnfNoise;
  }
  Result<tds::CollectionConfig> MakeCollectionConfig(
      RunContext& ctx, const sql::AnalyzedQuery& query) override;
  Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) override;

 private:
  bool complementary_;
  std::shared_ptr<const std::vector<storage::Tuple>> group_domain_;
};

/// §4.4: equi-depth histogram protocol. Needs the (approximate) A_G
/// distribution, normally produced by the discovery protocol (discovery.h).
class EdHistProtocol : public Protocol {
 public:
  EdHistProtocol(std::shared_ptr<const tds::EquiDepthHistogram> histogram)
      : histogram_(std::move(histogram)) {}

  /// Convenience: builds the histogram from a frequency map.
  static std::unique_ptr<EdHistProtocol> FromDistribution(
      const std::map<storage::Tuple, uint64_t>& freq, size_t num_buckets);

  ProtocolKind kind() const override { return ProtocolKind::kEdHist; }
  Result<tds::CollectionConfig> MakeCollectionConfig(
      RunContext& ctx, const sql::AnalyzedQuery& query) override;
  Result<std::vector<ssi::EncryptedItem>> RunAggregation(
      RunContext& ctx, const sql::AnalyzedQuery& query,
      const tds::CollectionConfig& config,
      std::vector<ssi::EncryptedItem> items) override;

  const tds::EquiDepthHistogram& histogram() const { return *histogram_; }

 private:
  std::shared_ptr<const tds::EquiDepthHistogram> histogram_;
};

/// Everything a finished run produced.
struct RunOutcome {
  sql::QueryResult result;
  RunMetrics metrics;
  ssi::AdversaryView adversary;
  /// The query's span tree, when the run was handed a Tracer (null
  /// otherwise). See obs/trace.h for the determinism contract.
  std::shared_ptr<const obs::Trace> trace;
};

/// Filtering phase (§3.2 steps 9-12): spreads the covering result over the
/// available TDSs, which drop dummies / finalize groups / apply HAVING and
/// re-encrypt result rows under k1. Called by QuerySession::RunAll.
/// `config` carries the run's collection configuration through to the TDSs —
/// in dynamic key mode its key posting selects the per-query session keys
/// the result rows are re-encrypted under.
Result<std::vector<ssi::EncryptedItem>> RunFilteringPhase(
    RunContext& ctx, const sql::AnalyzedQuery& query,
    const tds::CollectionConfig& config,
    std::vector<ssi::EncryptedItem> covering);

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_PROTOCOLS_H_
