#include "protocol/protocols.h"

#include <algorithm>
#include <cmath>

namespace tcells::protocol {

using ssi::EncryptedItem;
using ssi::Partition;
using tds::CollectionConfig;
using tds::CollectionMode;
using tds::OutputTagPolicy;

const char* ProtocolKindToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kBasicSfw: return "Basic_SFW";
    case ProtocolKind::kSAgg: return "S_Agg";
    case ProtocolKind::kRnfNoise: return "Rnf_Noise";
    case ProtocolKind::kCNoise: return "C_Noise";
    case ProtocolKind::kEdHist: return "ED_Hist";
  }
  return "?";
}

namespace {

/// Partition processor running the aggregation step on a TDS. Draws from the
/// partition's private Rng stream so partitions can run concurrently.
RunContext::PartitionFn AggregateFn(const sql::AnalyzedQuery& query,
                                    OutputTagPolicy policy,
                                    const CollectionConfig& config) {
  return [&query, policy, &config](tds::TrustedDataServer* server,
                                   const Partition& partition, Rng* rng) {
    return server->ProcessAggregationPartition(query, partition, policy,
                                               config, rng);
  };
}

/// Splits each tag-partition `ways` ways (ways<=1 keeps them whole).
std::vector<Partition> SplitEach(std::vector<Partition> partitions,
                                 size_t ways) {
  if (ways <= 1) return partitions;
  std::vector<Partition> out;
  for (auto& p : partitions) {
    for (auto& sub : ssi::SplitPartition(std::move(p), ways)) {
      out.push_back(std::move(sub));
    }
  }
  return out;
}

Status RequireAggregation(const sql::AnalyzedQuery& query, const char* name) {
  if (!query.is_aggregation) {
    return Status::InvalidArgument(
        std::string(name) +
        " handles GROUP BY/aggregate queries; use Basic_SFW otherwise");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// BasicSfw

Result<CollectionConfig> BasicSfwProtocol::MakeCollectionConfig(
    RunContext& ctx, const sql::AnalyzedQuery& query) {
  (void)ctx;
  if (query.is_aggregation) {
    return Status::InvalidArgument(
        "Basic_SFW cannot evaluate aggregation queries");
  }
  CollectionConfig config;
  config.mode = CollectionMode::kNDet;
  return config;
}

Result<std::vector<EncryptedItem>> BasicSfwProtocol::RunAggregation(
    RunContext& ctx, const sql::AnalyzedQuery& query,
    const CollectionConfig& config, std::vector<EncryptedItem> items) {
  (void)ctx;
  (void)query;
  (void)config;
  // No aggregation phase: the covering result goes straight to filtering.
  return items;
}

// ---------------------------------------------------------------------------
// S_Agg

Result<CollectionConfig> SAggProtocol::MakeCollectionConfig(
    RunContext& ctx, const sql::AnalyzedQuery& query) {
  (void)ctx;
  TCELLS_RETURN_IF_ERROR(RequireAggregation(query, "S_Agg"));
  CollectionConfig config;
  config.mode = CollectionMode::kNDet;
  return config;
}

Result<std::vector<EncryptedItem>> SAggProtocol::RunAggregation(
    RunContext& ctx, const sql::AnalyzedQuery& query,
    const CollectionConfig& config, std::vector<EncryptedItem> items) {
  const RunOptions& opts = ctx.options();
  const double alpha = std::max(2.0, std::ceil(opts.alpha));
  // First round: each TDS ingests ~alpha*G raw tuples so its partial
  // aggregate covers most groups (§6.1.1); later rounds merge alpha partials.
  const double first_chunk =
      alpha * static_cast<double>(std::max<size_t>(1, opts.expected_groups));

  bool first = true;
  while (items.size() > 1 || first) {
    // A chunk above the item count is one partition, so capping it there
    // first keeps a huge alpha from ever reaching the integer conversion.
    const size_t chunk = static_cast<size_t>(
        std::min(first ? first_chunk : alpha,
                 static_cast<double>(std::max<size_t>(1, items.size()))));
    first = false;
    Rng rng = ctx.Stream(RngDomain::kPartitioning,
                         ctx.NextRound(sim::Phase::kAggregation));
    std::vector<Partition> partitions =
        ssi::PartitionRandomly(std::move(items), chunk, &rng);
    TCELLS_ASSIGN_OR_RETURN(
        items, ctx.RunRound(sim::Phase::kAggregation, partitions,
                            AggregateFn(query, OutputTagPolicy::kNone,
                                        config)));
    if (items.empty()) break;  // nothing but dummies collected
  }
  return items;
}

// ---------------------------------------------------------------------------
// Noise protocols

Result<CollectionConfig> NoiseProtocol::MakeCollectionConfig(
    RunContext& ctx, const sql::AnalyzedQuery& query) {
  TCELLS_RETURN_IF_ERROR(RequireAggregation(query, name()));
  if (!group_domain_ || group_domain_->empty()) {
    return Status::FailedPrecondition(
        std::string(name()) + " needs the A_G domain (see discovery.h)");
  }
  CollectionConfig config;
  config.mode = CollectionMode::kDetTag;
  config.noise.complementary = complementary_;
  config.noise.nf = complementary_ ? 0 : ctx.options().nf;
  config.noise.group_domain = group_domain_;
  return config;
}

Result<std::vector<EncryptedItem>> NoiseProtocol::RunAggregation(
    RunContext& ctx, const sql::AnalyzedQuery& query,
    const CollectionConfig& config, std::vector<EncryptedItem> items) {
  TCELLS_ASSIGN_OR_RETURN(std::vector<Partition> by_group,
                          ssi::PartitionByTag(std::move(items)));

  // n_NB: TDSs cooperating on one group in step 1. The analytical optimum is
  // sqrt((nf+1)*N_t/G) (§6.1.2) — estimated here from the observed sizes.
  size_t total = 0;
  for (const auto& p : by_group) total += p.items.size();
  double avg = static_cast<double>(total) /
               static_cast<double>(std::max<size_t>(1, by_group.size()));
  size_t n_nb =
      std::max<size_t>(1, static_cast<size_t>(std::llround(std::sqrt(avg))));

  std::vector<Partition> step1 = SplitEach(std::move(by_group), n_nb);
  TCELLS_ASSIGN_OR_RETURN(
      std::vector<EncryptedItem> partials,
      ctx.RunRound(sim::Phase::kAggregation, step1,
                   AggregateFn(query, OutputTagPolicy::kPreserve,
                               config)));
  if (n_nb <= 1) return partials;

  // Step 2: merge the n_NB partials of each group on a single TDS.
  TCELLS_ASSIGN_OR_RETURN(std::vector<Partition> step2,
                          ssi::PartitionByTag(std::move(partials)));
  return ctx.RunRound(sim::Phase::kAggregation, step2,
                      AggregateFn(query, OutputTagPolicy::kPreserve, config));
}

// ---------------------------------------------------------------------------
// ED_Hist

std::unique_ptr<EdHistProtocol> EdHistProtocol::FromDistribution(
    const std::map<storage::Tuple, uint64_t>& freq, size_t num_buckets) {
  auto histogram = std::make_shared<tds::EquiDepthHistogram>(
      tds::EquiDepthHistogram::Build(freq, num_buckets));
  return std::make_unique<EdHistProtocol>(std::move(histogram));
}

Result<CollectionConfig> EdHistProtocol::MakeCollectionConfig(
    RunContext& ctx, const sql::AnalyzedQuery& query) {
  (void)ctx;
  TCELLS_RETURN_IF_ERROR(RequireAggregation(query, "ED_Hist"));
  if (!histogram_ || histogram_->num_buckets() == 0) {
    return Status::FailedPrecondition(
        "ED_Hist needs a histogram built from the A_G distribution");
  }
  CollectionConfig config;
  config.mode = CollectionMode::kHistTag;
  config.histogram = histogram_;
  return config;
}

Result<std::vector<EncryptedItem>> EdHistProtocol::RunAggregation(
    RunContext& ctx, const sql::AnalyzedQuery& query,
    const CollectionConfig& config, std::vector<EncryptedItem> items) {
  // Step 1: per-bucket partitions; TDSs emit one Det-tagged partial per
  // group found in the bucket.
  TCELLS_ASSIGN_OR_RETURN(std::vector<Partition> by_bucket,
                          ssi::PartitionByTag(std::move(items)));
  size_t total = 0;
  for (const auto& p : by_bucket) total += p.items.size();
  double avg = static_cast<double>(total) /
               static_cast<double>(std::max<size_t>(1, by_bucket.size()));
  // n_ED: the analytical optimum (h*N_t/G)^(2/3) ~ cuberoot-squared of the
  // bucket size.
  size_t n_ed = std::max<size_t>(
      1, static_cast<size_t>(std::llround(std::pow(avg, 2.0 / 3.0))));
  std::vector<Partition> step1 = SplitEach(std::move(by_bucket), n_ed);
  TCELLS_ASSIGN_OR_RETURN(
      std::vector<EncryptedItem> partials,
      ctx.RunRound(sim::Phase::kAggregation, step1,
                   AggregateFn(query, OutputTagPolicy::kPerGroupDet,
                               config)));

  // Step 2: per-group partitions (Det_Enc(group) tags) -> final aggregates.
  TCELLS_ASSIGN_OR_RETURN(std::vector<Partition> step2,
                          ssi::PartitionByTag(std::move(partials)));
  return ctx.RunRound(sim::Phase::kAggregation, step2,
                      AggregateFn(query, OutputTagPolicy::kPreserve, config));
}

// ---------------------------------------------------------------------------
// End-to-end driver

Result<std::vector<EncryptedItem>> RunFilteringPhase(
    RunContext& ctx, const sql::AnalyzedQuery& query,
    const CollectionConfig& config, std::vector<EncryptedItem> covering) {
  if (covering.empty()) return std::vector<EncryptedItem>{};
  size_t pool_size = std::max<size_t>(1, ctx.compute_pool().size());
  size_t chunk = (covering.size() + pool_size - 1) / pool_size;
  Rng rng = ctx.Stream(RngDomain::kPartitioning,
                       ctx.NextRound(sim::Phase::kFiltering));
  std::vector<Partition> partitions =
      ssi::PartitionRandomly(std::move(covering), chunk, &rng);
  return ctx.RunRound(sim::Phase::kFiltering, partitions,
                      [&query, &config](tds::TrustedDataServer* server,
                                        const Partition& partition, Rng* rng) {
                        return server->ProcessFiltering(query, partition,
                                                        config, rng);
                      });
}

}  // namespace tcells::protocol
