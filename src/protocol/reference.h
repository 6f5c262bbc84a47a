// Plaintext reference oracle: evaluates a query over the union of all local
// databases with everything in the clear. Used by tests, examples and benches
// to check that a distributed protocol run returns exactly the rows a trusted
// centralized evaluator would.
#ifndef TCELLS_PROTOCOL_REFERENCE_H_
#define TCELLS_PROTOCOL_REFERENCE_H_

#include <string>

#include "common/result.h"
#include "protocol/fleet.h"
#include "sql/executor.h"

namespace tcells::protocol {

/// Runs the query over the union of the fleet's rows: each TDS's collection
/// tuples, from an analysis against its own catalog (one per distinct
/// interned catalog), folded as one local run would.
Result<sql::QueryResult> ExecuteReference(const Fleet& fleet,
                                          const std::string& sql);

/// The oracle check of a protocol's `result` for `sql`: ExecuteReference's
/// rows in the same order when the query has ORDER BY (its order is part of
/// the answer), the same multiset otherwise. False when the oracle fails.
bool MatchesReference(const Fleet& fleet, const std::string& sql,
                      const sql::QueryResult& result);

}  // namespace tcells::protocol

#endif  // TCELLS_PROTOCOL_REFERENCE_H_
