// QuerySession: several concurrent queries over one fleet, routed through
// the SSI's querybox hub (§3.1). Each connecting TDS downloads all active
// queries addressed to it (global + personal), serves each exactly once, and
// the per-query protocol phases then complete independently.
//
// This is the "many queries in flight" operating mode the paper's Load_Q
// metric is about, and the only execution path: the tcells::Engine facade
// (tcells/engine.h) runs every Submit as a one-query session over its shard
// router, and Engine::NewSession hands out multi-query sessions over the
// same router.
#ifndef TCELLS_PROTOCOL_SESSION_H_
#define TCELLS_PROTOCOL_SESSION_H_

#include <map>
#include <memory>
#include <string>

#include "net/ssi_api.h"
#include "obs/trace.h"
#include "protocol/protocols.h"

namespace tcells::protocol {

class QuerySession {
 public:
  /// `telemetry` carries optional sinks: when a Tracer is present every
  /// submitted query records a span tree (returned in its RunOutcome), and a
  /// MetricsRegistry receives each completed query's engine.* counters, added
  /// once from its RunMetrics (a failed or cancelled query adds nothing).
  ///
  /// `client` is the channel to the SSI all queries of this session go
  /// through (borrowed, never null; normally an Engine's shared — possibly
  /// sharded — router).
  QuerySession(Fleet* fleet, const sim::DeviceModel& device,
               RunOptions options, obs::Telemetry telemetry,
               net::SsiApi* client);

  /// Registers a query addressed to the whole crowd. `querier` and
  /// `protocol` must outlive the session. Fails on duplicate id, invalid
  /// RunOptions (RunOptions::Validate), or when the protocol rejects the
  /// query shape.
  Status Submit(uint64_t query_id, const Querier* querier, Protocol* protocol,
                const std::string& sql);

  /// Registers a query addressed to one TDS only (personal querybox).
  Status SubmitPersonal(uint64_t query_id, uint64_t tds_id,
                        const Querier* querier, Protocol* protocol,
                        const std::string& sql);

  size_t num_pending() const { return queries_.size(); }

  /// Runs interleaved collection over the querybox hub, then completes
  /// aggregation + filtering + decryption per query. Returns one outcome per
  /// submitted query id.
  ///
  /// `max_ticks == 0` (the default) derives each query's collection window
  /// from its own SIZE ... DURATION clause: a query with `DURATION d` stays
  /// open for d connection ticks, a query without one does a single full
  /// pass (everyone connects once) — unless some other query in the batch is
  /// DURATION-bounded, in which case the batch runs in ticked mode and the
  /// unbounded query stays open until every TDS has served it. An explicit
  /// `max_ticks > 0` forces one shared window of that many ticks for all
  /// queries (ticked connectivity when max_ticks > 1). A query also closes
  /// early when its SIZE bound is reached or all eligible TDSs have served
  /// it.
  Result<std::map<uint64_t, RunOutcome>> RunAll(uint64_t max_ticks = 0);

 private:
  struct PendingQuery {
    const Querier* querier = nullptr;
    Protocol* protocol = nullptr;
    std::string sql;
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
    /// The post's SIZE ... DURATION bound, captured at submit time.
    std::optional<uint64_t> duration_ticks;
    /// This query's span tree (null when the session has no Tracer).
    std::shared_ptr<obs::Trace> trace;
  };

  Status SubmitInternal(uint64_t query_id, std::optional<uint64_t> tds_id,
                        const Querier* querier, Protocol* protocol,
                        const std::string& sql);

  /// TDSs that can possibly serve the query (fleet for global, 1 personal).
  size_t EligibleServers(const PendingQuery& query) const;

  Fleet* fleet_;
  sim::DeviceModel device_;
  RunOptions options_;
  obs::Telemetry telemetry_;
  net::SsiApi* client_;
  /// The one worker pool of the session: the collection fan-out and every
  /// query's aggregation/filtering rounds borrow it. unique_ptr keeps its
  /// address stable across session moves.
  std::unique_ptr<ParallelExecutor> executor_;
  std::map<uint64_t, PendingQuery> queries_;
};

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_SESSION_H_
