// Distribution discovery (§4.4): before ED_Hist (or C_Noise, which needs the
// domain cardinality) can run, the distribution of the grouping attributes
// must be discovered and distributed to all TDSs. "The discovery process is
// similar to computing a Count function Group By A_G and can therefore be
// performed using one of the protocols introduced above" — so discovery is
// an ordinary S_Agg query: Engine::DiscoverInputs runs the query built here
// through Engine::Run, on the engine's shards, transport, scheduler and
// telemetry like any other query. It is done once and refreshed from time to
// time, not per query.
#ifndef TCELLS_PROTOCOL_DISCOVERY_H_
#define TCELLS_PROTOCOL_DISCOVERY_H_

#include <string>

#include "common/result.h"
#include "protocol/factory.h"

namespace tcells::protocol {

/// "SELECT A_G..., COUNT(*) FROM <same tables> GROUP BY A_G..." for the
/// grouping attributes of `target_sql`. Its WHERE clause is intentionally not
/// applied (the histogram reflects the domain, not one query's selection).
/// InvalidArgument when `target_sql` has no GROUP BY.
Result<std::string> DiscoverySql(const std::string& target_sql);

/// Reads the result of the DiscoverySql query: each row is a group key
/// followed by its count. Fills `distribution` only; MakeProtocol derives the
/// A_G domain from it. FailedPrecondition when the result has no rows — an
/// empty domain would make the Noise protocols silently drop every tuple.
Result<ProtocolInputs> InputsFromDiscovery(const sql::QueryResult& result);

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_DISCOVERY_H_
