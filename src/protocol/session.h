// QuerySession: one query over one fleet, routed through the SSI's
// queryboxes (§3.1). Each connecting TDS downloads the queries addressed to it
// (global + personal) and serves this session's query at most once; the
// protocol's aggregation, filtering and decryption phases then complete it.
//
// This is the only execution path: the tcells::Engine facade
// (tcells/engine.h) runs every Submit as a one-query session over its shard
// router, and its QueryScheduler runs such sessions side by side. Several
// queries in flight are several sessions sharing the SSI, never several
// queries inside one session.
#ifndef TCELLS_PROTOCOL_SESSION_H_
#define TCELLS_PROTOCOL_SESSION_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "net/ssi_api.h"
#include "obs/trace.h"
#include "protocol/protocols.h"

namespace tcells::protocol {

class QuerySession {
 public:
  /// `telemetry` carries optional sinks: when a Tracer is present the
  /// submitted query records a span tree (returned in its RunOutcome), and a
  /// MetricsRegistry receives the completed query's engine.* counters, added
  /// once from its RunMetrics (a failed or cancelled query adds nothing).
  ///
  /// `client` is the channel to the SSI the query goes through (borrowed,
  /// never null; normally an Engine's shared — possibly sharded — router).
  QuerySession(Fleet* fleet, const sim::DeviceModel& device,
               RunOptions options, obs::Telemetry telemetry,
               net::SsiApi* client);

  /// Registers the session's query, addressed to the whole crowd. `querier`
  /// and `protocol` must outlive the session. Fails on invalid RunOptions
  /// (RunOptions::Validate), when the protocol rejects the query shape, or
  /// with FailedPrecondition when a query is already pending (run concurrent
  /// queries through Engine::Submit).
  Status Submit(uint64_t query_id, const Querier* querier, Protocol* protocol,
                const std::string& sql);

  /// Same, for a query addressed to one TDS only (personal querybox).
  Status SubmitPersonal(uint64_t query_id, uint64_t tds_id,
                        const Querier* querier, Protocol* protocol,
                        const std::string& sql);

  bool has_pending() const { return query_.has_value(); }

  /// Runs collection over the queryboxes, then aggregation + filtering +
  /// decryption, and returns the outcome keyed by the query id (one entry).
  /// FailedPrecondition when nothing was submitted.
  ///
  /// The collection window comes from the query's SIZE ... DURATION clause:
  /// with `DURATION d` it stays open for d connection ticks, each TDS
  /// connecting per tick with RunOptions::connect_prob_per_tick; without
  /// one it is a single full pass (everyone connects once). It also closes
  /// early when the SIZE bound is reached or all eligible TDSs have served.
  /// The session is the window's only owner: it counts the accepted items and
  /// the serves from its own uploads and acknowledgements, and past the SIZE
  /// bound it acknowledges a serve instead of uploading it.
  Result<std::map<uint64_t, RunOutcome>> RunAll();

 private:
  struct PendingQuery {
    uint64_t id = 0;
    const Querier* querier = nullptr;
    Protocol* protocol = nullptr;
    sql::AnalyzedQuery analyzed;
    tds::CollectionConfig config;
    std::unique_ptr<RunContext> ctx;
    std::optional<uint64_t> personal_tds;
    /// Dynamic key mode: this query's public key posting and the querier
    /// clone holding the derived per-query session keys. The clone posts and
    /// decrypts; the borrowed `querier` stays untouched.
    std::optional<ssi::QueryKeyPosting> key_posting;
    std::optional<Querier> session_querier;
    /// The querier instance that posted and therefore decrypts the result.
    const Querier& reader() const {
      return session_querier ? *session_querier : *querier;
    }
    /// The post's SIZE ... DURATION bounds, captured at submit time.
    std::optional<uint64_t> size_max_tuples;
    std::optional<uint64_t> duration_ticks;
    /// This query's span tree (null when the session has no Tracer).
    std::shared_ptr<obs::Trace> trace;
  };

  Status SubmitInternal(uint64_t query_id, std::optional<uint64_t> tds_id,
                        const Querier* querier, Protocol* protocol,
                        const std::string& sql);
  /// The collection phase: connection ticks until the window closes.
  Status Collect(PendingQuery& q);
  /// One wave of a tick: `connectors` (fleet indices, in serve order) fetch
  /// their posts, serve, tag and upload. `forwarded` counts the items sent
  /// in the window so far (the SIZE rule) and `served` the serves the SSI
  /// confirmed; both carry over from wave to wave.
  Status ServeWave(PendingQuery& q, std::span<const size_t> connectors,
                   uint64_t* forwarded, uint64_t* served);
  /// Aggregation, filtering, result delivery and decryption.
  Result<RunOutcome> Complete(PendingQuery& q,
                              std::chrono::steady_clock::time_point wall_t0);

  Fleet* fleet_;
  sim::DeviceModel device_;
  RunOptions options_;
  obs::Telemetry telemetry_;
  net::SsiApi* client_;
  /// The one worker pool of the session, built at Submit once the options
  /// are validated: the collection fan-out and the query's
  /// aggregation/filtering rounds borrow it. unique_ptr keeps its address
  /// stable across session moves.
  std::unique_ptr<ParallelExecutor> executor_;
  std::optional<PendingQuery> query_;
};

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_SESSION_H_
