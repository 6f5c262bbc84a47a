#include "protocol/run_context.h"

#include <algorithm>
#include <cmath>

namespace tcells::protocol {

namespace {

Status BadOption(const char* what) {
  return Status::InvalidArgument(std::string("RunOptions: ") + what);
}

}  // namespace

bool IsTransportError(const Status& s) {
  return s.IsUnavailable() || s.IsDeadlineExceeded();
}

double WallMicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

net::RetryPolicy TransportRetryPolicy(const RunOptions& options) {
  net::RetryPolicy policy;
  policy.max_attempts = options.max_dropout_retries + 1;
  policy.clock = options.clock;
  return policy;
}

Status RunOptions::Validate() const {
  if (!(compute_availability > 0.0) || compute_availability > 1.0) {
    return BadOption("compute_availability must be in (0, 1]");
  }
  if (!(dropout_rate >= 0.0 && dropout_rate <= 1.0)) {
    return BadOption("dropout_rate must be in [0, 1]");
  }
  if (dropout_rate > 0.0 && max_dropout_retries == 0) {
    return BadOption(
        "max_dropout_retries must be positive when dropout_rate > 0");
  }
  if (!(std::isfinite(dropout_timeout_seconds) &&
        dropout_timeout_seconds >= 0.0)) {
    return BadOption("dropout_timeout_seconds must be finite and >= 0");
  }
  if (!(std::isfinite(alpha) && alpha > 1.0)) {
    return BadOption(
        "alpha must be finite and > 1 (merge rounds must shrink the set)");
  }
  if (nf < 0) {
    return BadOption("nf must be >= 0");
  }
  if (!(connect_prob_per_tick > 0.0) || connect_prob_per_tick > 1.0) {
    return BadOption("connect_prob_per_tick must be in (0, 1]");
  }
  if (num_threads > kMaxThreads) {
    return BadOption("num_threads exceeds RunOptions::kMaxThreads (256)");
  }
  return Status::OK();
}

RunContext::RunContext(Fleet* fleet, net::SsiApi* client,
                       ParallelExecutor* executor, uint64_t query_id,
                       const sim::DeviceModel& device, RunOptions options,
                       obs::Trace* trace)
    : fleet_(fleet),
      client_(client),
      executor_(executor),
      query_id_(query_id),
      device_(device),
      options_(options),
      trace_(trace) {}

const std::vector<tds::TrustedDataServer*>& RunContext::compute_pool() {
  if (!pool_sampled_) {
    Rng rng = Stream(RngDomain::kComputePool);
    pool_ = fleet_->SampleAvailable(options_.compute_availability, &rng);
    // Dynamic key mode: revoked TDSs are dropped after sampling, so who
    // happens to be revoked does not change which others are sampled.
    if (options_.key_authority != nullptr) {
      pool_.erase(std::remove_if(pool_.begin(), pool_.end(),
                                 [&](tds::TrustedDataServer* server) {
                                   return options_.key_authority->IsRevoked(
                                       server->id());
                                 }),
                  pool_.end());
    }
    pool_sampled_ = true;
    metrics_.available_compute_tds = pool_.size();
  }
  return pool_;
}

Result<std::vector<ssi::EncryptedItem>> RunContext::RunRound(
    sim::Phase phase, const std::vector<ssi::Partition>& partitions,
    const PartitionFn& process) {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled before round");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto& pool = compute_pool();
  if (pool.empty() && !partitions.empty()) {
    // Only reachable when revocation emptied the sampled pool.
    return Status::FailedPrecondition(
        "no non-revoked compute TDS available for the round");
  }
  const size_t n = partitions.size();
  const uint64_t round = NextRound(phase);

  // Per-partition results, filled by the fan-out into disjoint slots.
  struct PartitionRun {
    std::vector<ssi::EncryptedItem> items;
    /// The TDS that processed the partition; unset when none did (lost at
    /// stage or fetch, or a mismatched input), so no TDS is charged for it.
    std::optional<uint64_t> server_id;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t tuples = 0;
    uint64_t dropouts = 0;
    double seconds = 0;
    /// Transport retry budget exhausted: the round degrades without this
    /// partition instead of failing the query.
    bool lost = false;
    /// The partition fetched back from the SSI was not the one staged (a
    /// stale or swapped input), or the round output taken back did not match
    /// the bytes the TDS uploaded — detected inside the task.
    bool tampered = false;
  };
  std::vector<PartitionRun> runs(n);

  TCELLS_RETURN_IF_ERROR(executor_->ForEachIndex(n, [&](size_t i) -> Status {
    const ssi::Partition& partition = partitions[i];
    Rng prng = Stream(RngDomain::kPartition, round, i);
    PartitionRun& run = runs[i];
    run.bytes_in = partition.WireSize();
    run.tuples = partition.items.size();

    // Stage the partition with the SSI so the assigned TDS can download it
    // (and re-download it after an injected dropout).
    Status staged = client_->StagePartition(query_id_, i, partition);
    if (IsTransportError(staged)) {
      run.lost = true;
      return Status::OK();
    }
    TCELLS_RETURN_IF_ERROR(staged);

    // Fault injection: a TDS may drop mid-partition; the SSI re-dispatches
    // after a timeout until a TDS completes it (§3.2 Correctness). The
    // schedule comes from the partition's stream alone, never from a
    // transport call, so it is identical on every backend.
    for (size_t attempt = 0; attempt <= options_.max_dropout_retries;
         ++attempt) {
      tds::TrustedDataServer* server = pool[prng.NextBelow(pool.size())];
      bool drops = prng.NextBool(options_.dropout_rate) &&
                   attempt < options_.max_dropout_retries;
      if (drops) {
        run.dropouts += 1;
        run.seconds += options_.dropout_timeout_seconds;
        continue;
      }
      // The TDS downloads its partition from the SSI, processes it locally,
      // and uploads the round output.
      Result<ssi::Partition> fetched =
          client_->FetchPartition(query_id_, i);
      if (IsTransportError(fetched.status())) {
        run.lost = true;
        return Status::OK();
      }
      TCELLS_RETURN_IF_ERROR(fetched.status());
      // Input integrity: this round staged the partition itself, so the
      // bytes fetched back must match exactly. A mismatch means the SSI
      // served a stale or swapped partition (e.g. a replayed stage-ack hid
      // that the fresh partition never arrived); processing it would fold
      // wrong inputs into the result with nothing visibly lost. The staged
      // copy is still in hand, so a direct item comparison gives the same
      // detection power as the digest comparison it replaces, without
      // re-encoding and hashing both sides.
      if (fetched->items != partition.items) {
        run.lost = true;
        run.tampered = true;
        return Status::OK();
      }
      TCELLS_ASSIGN_OR_RETURN(run.items, process(server, *fetched, &prng));
      run.server_id = server->id();
      for (const auto& item : run.items) run.bytes_out += item.WireSize();
      run.seconds +=
          device_.BusySeconds(run.bytes_in + run.bytes_out, run.tuples);
      Status uploaded = client_->UploadRoundOutput(query_id_, i, run.items);
      if (IsTransportError(uploaded)) {
        run.lost = true;
        return Status::OK();
      }
      TCELLS_RETURN_IF_ERROR(uploaded);
      // Download the round output back inside the task — per-partition SSI
      // state is keyed by (query_id, token), so takes from concurrent tasks
      // never interleave on shared state.
      // The codec round trip is lossless; the bytes served must be exactly
      // the bytes this TDS uploaded. A mismatch means a byzantine SSI
      // replayed a stale output or swapped partitions — the partition is
      // dropped (counted as both tampered and lost) rather than folded into
      // the result.
      Result<std::vector<ssi::EncryptedItem>> downloaded =
          client_->TakeRoundOutput(query_id_, i);
      if (IsTransportError(downloaded.status())) {
        run.lost = true;
        return Status::OK();
      }
      TCELLS_RETURN_IF_ERROR(downloaded.status());
      if (*downloaded != run.items) {
        run.lost = true;
        run.tampered = true;
        return Status::OK();
      }
      run.items = *std::move(downloaded);
      return Status::OK();
    }
    return Status::ResourceExhausted(
        "partition could not be placed after max dropout retries");
  }));

  // Serial epilogue: fold outputs and accounting in partition order, so the
  // accountant's tallies, the span tree and the item concatenation are
  // identical whatever the completion order of the tasks above was. The
  // round's span is written from this round's share of the phase tally.
  const sim::PhaseTally before = metrics_.accountant.phase(phase);
  std::vector<ssi::EncryptedItem> outputs;
  size_t total_items = 0;
  for (const PartitionRun& run : runs) total_items += run.items.size();
  outputs.reserve(total_items);
  size_t round_lost = 0, round_tampered = 0;
  double slowest_partition_seconds = 0;
  for (PartitionRun& run : runs) {
    metrics_.accountant.RecordDropouts(phase, run.dropouts);
    metrics_.accountant.RecordPartition(phase, run.server_id, run.bytes_in,
                                        run.bytes_out, run.tuples);
    slowest_partition_seconds =
        std::max(slowest_partition_seconds, run.seconds);
    if (run.lost) {
      round_lost += 1;
      if (run.tampered) round_tampered += 1;
      continue;
    }
    // The items were taken back and integrity-checked inside the task;
    // folding them here in partition order keeps the concatenation
    // byte-identical for any thread count or completion order.
    for (auto& item : run.items) outputs.push_back(std::move(item));
  }
  metrics_.partitions_lost += round_lost;
  metrics_.partitions_tampered += round_tampered;

  // Critical path: partitions run in parallel across the pool; more
  // partitions than TDSs serialize into waves.
  double waves = std::ceil(static_cast<double>(n) /
                           static_cast<double>(std::max<size_t>(1, pool.size())));
  double round_seconds = slowest_partition_seconds * waves;
  const double wall_micros = WallMicrosSince(t0);
  metrics_.accountant.RecordIteration(phase);
  const bool aggregation = phase == sim::Phase::kAggregation;
  if (aggregation) {
    metrics_.times.aggregation_seconds += round_seconds;
    metrics_.aggregation_wall_micros += wall_micros;
  } else {
    metrics_.times.filtering_seconds += round_seconds;
    metrics_.filtering_wall_micros += wall_micros;
  }

  if (trace_ != nullptr) {
    const sim::PhaseTally& after = metrics_.accountant.phase(phase);
    obs::Span* span = trace_->StartSpan(
        nullptr,
        aggregation ? obs::kSpanAggregationRound : obs::kSpanFilteringRound);
    span->labels["phase"] = sim::PhaseToString(phase);
    span->sim_begin_seconds = sim_now_seconds_;
    span->sim_end_seconds = sim_now_seconds_ + round_seconds;
    span->wall_micros = wall_micros;
    span->counts["partitions"] = after.partitions - before.partitions;
    span->counts["bytes_in"] = after.bytes_downloaded - before.bytes_downloaded;
    span->counts["bytes_out"] = after.bytes_uploaded - before.bytes_uploaded;
    span->counts["tuples"] = after.tuples_processed - before.tuples_processed;
    span->counts["dropouts"] = after.dropouts - before.dropouts;
    span->counts["partitions_lost"] = round_lost;
    span->counts["partitions_tampered"] = round_tampered;
    span->counts["compute_pool"] = pool.size();
    span->values["sim_seconds"] = round_seconds;
    span->values["waves"] = waves;
  }
  sim_now_seconds_ += round_seconds;
  return outputs;
}

}  // namespace tcells::protocol
