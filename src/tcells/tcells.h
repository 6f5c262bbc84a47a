// Umbrella header: the public API of the tcells library.
//
//   #include "tcells/tcells.h"
//
// pulls in what a typical embedder needs: the tcells::Engine facade (which
// transitively exposes the querying protocols, sessions, the sharded SSI
// stack, the query scheduler, dynamic key management and telemetry), fleet
// construction, the SQL front end and the analysis tooling. Engine internals
// — the SSI node, the discovery query builder, the plaintext
// reference executor — are deliberately NOT exported here; include their
// fine-grained headers directly for targeted/test use.
//
// Queries run through the Engine only: Engine::Run for one blocking query,
// Engine::Submit for a QueryHandle (poll Status(), block on Wait(), request
// Cancel()); several Submits run concurrently on the engine's scheduler.
#ifndef TCELLS_TCELLS_H_
#define TCELLS_TCELLS_H_

// Foundations.
#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

// Cryptography and key management.
#include "crypto/broadcast.h"
#include "crypto/encryption.h"
#include "crypto/keystore.h"

// Relational layer.
#include "sql/analyzer.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "storage/table.h"

// The facade: Engine + protocols + sessions + telemetry (obs/).
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/tds.h"

// Evaluation tooling.
#include "analysis/cost_model.h"
#include "analysis/exposure.h"
#include "analysis/tradeoff.h"
#include "sim/device_model.h"

// Ready-made fleets.
#include "workload/generic.h"
#include "workload/health.h"
#include "workload/smart_meter.h"

#endif  // TCELLS_TCELLS_H_
