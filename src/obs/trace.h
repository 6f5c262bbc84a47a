// Query tracing: a per-query span tree recording what every protocol phase
// actually did — the collection window, each aggregation/filtering round,
// dropout re-dispatches, result decryption — tagged with partition counts,
// ciphertext bytes in/out and noise ratios, on both the simulated clock and
// wall time.
//
// The span counts are not a tally of their own: each is written once from
// the query's CostAccountant (protocol::RunMetrics) — a round span at the end
// of its round from that round's share of the phase tally, the collection
// span when the collection window closes.
//
// Determinism contract: spans are created and mutated only from serial
// sections of the engine (the fold steps that already make the accountant
// deterministic), so a trace is bit-identical for any --threads value. Wall
// times are the one measured (nondeterministic) field; exporters therefore
// omit them unless TraceExportOptions.include_wall_time is set, keeping the
// default export byte-identical across thread counts and machines.
#ifndef TCELLS_OBS_TRACE_H_
#define TCELLS_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tcells::obs {

/// Canonical span names used by the engine (see docs/OBSERVABILITY.md).
inline constexpr char kSpanQuery[] = "query";
inline constexpr char kSpanCollection[] = "collection";
inline constexpr char kSpanAggregationRound[] = "aggregation_round";
inline constexpr char kSpanFilteringRound[] = "filtering_round";
inline constexpr char kSpanDecrypt[] = "decrypt";

/// One node of a query's span tree. Attributes live in three ordered maps so
/// exports are deterministic: integer tallies (`counts`), real-valued
/// measurements (`values`), and string tags (`labels`).
struct Span {
  uint64_t id = 0;         ///< 1-based, in creation (= serial fold) order
  uint64_t parent_id = 0;  ///< 0 for the root
  std::string name;

  /// Simulated clock (seconds since the query started), from the same
  /// critical-path model the RunMetrics times come from.
  double sim_begin_seconds = 0;
  double sim_end_seconds = 0;
  /// Measured wall time of the span (microseconds). Excluded from exports
  /// unless explicitly requested — see the determinism contract above.
  double wall_micros = 0;

  std::map<std::string, uint64_t> counts;
  std::map<std::string, double> values;
  std::map<std::string, std::string> labels;

  std::vector<std::unique_ptr<Span>> children;
};

struct TraceExportOptions {
  /// Include measured wall times. Off by default so that exports are
  /// byte-identical across thread counts and hosts.
  bool include_wall_time = false;
};

/// The span tree of one query execution. Not thread-safe by design: all
/// mutation happens in the engine's serial sections.
class Trace {
 public:
  explicit Trace(uint64_t query_id);

  uint64_t query_id() const { return query_id_; }
  Span* root() { return root_.get(); }
  const Span* root() const { return root_.get(); }

  /// Appends a child span under `parent` (nullptr = root).
  Span* StartSpan(Span* parent, std::string name);

  /// Pre-order traversal.
  void ForEach(const std::function<void(const Span&, int depth)>& fn) const;

  /// Sum of `counts[key]` over all spans named `span_name`. The obs tests
  /// check that these sums restate the CostAccountant tallies.
  uint64_t SumCount(const std::string& span_name,
                    const std::string& key) const;
  /// Number of spans named `span_name`.
  size_t CountSpans(const std::string& span_name) const;

  std::string ToJson(const TraceExportOptions& options = {}) const;

 private:
  uint64_t query_id_;
  uint64_t next_id_ = 1;
  std::unique_ptr<Span> root_;
};

/// Collects the traces of many queries (e.g. one QuerySession batch or a
/// whole Engine lifetime). Starting a trace is thread-safe; mutating the
/// returned Trace follows the Trace rules.
class Tracer {
 public:
  std::shared_ptr<Trace> StartTrace(uint64_t query_id);

  /// Latest trace recorded for `query_id`, or nullptr.
  std::shared_ptr<const Trace> TraceFor(uint64_t query_id) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Trace>> traces_;
};

/// Non-owning bundle of telemetry sinks handed down the execution stack.
/// Either pointer may be null (that instrument is simply off); the default
/// bundle disables telemetry entirely.
struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;
};

}  // namespace tcells::obs

#endif  // TCELLS_OBS_TRACE_H_
