// MetricsRegistry: process-wide counters and bucketed histograms for the
// query engine. The paper's evaluation (§6, Figs 9-11) is entirely about
// where time and bytes go — per-phase TDS load, SSI traffic, per-round
// latency — so every execution path records into this registry and benches
// export it machine-readably (JSON/CSV) instead of re-deriving tallies by
// hand.
//
// Thread-safety: counters are lock-free atomics; histograms take a small
// mutex per Record. Creation of a metric (first use of a name) takes the
// registry mutex. Instruments are created once and never removed, so the
// references handed out stay valid for the registry's lifetime.
#ifndef TCELLS_OBS_METRICS_H_
#define TCELLS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tcells::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Bucketed distribution of a real-valued measurement (latency in seconds,
/// payload sizes in bytes). Buckets are defined by their inclusive upper
/// bounds; an implicit +inf bucket catches the rest.
class Histogram {
 public:
  /// `bounds` must be strictly increasing. Records <= bounds[i] land in
  /// bucket i; larger ones in the overflow bucket.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  struct Snapshot {
    std::vector<double> bounds;    ///< upper bounds, one per finite bucket
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 entries (last = +inf)
    uint64_t count = 0;
    double sum = 0;
    double min = 0;  ///< meaningful only when count > 0
    double max = 0;
  };
  Snapshot snapshot() const;

  /// `n` bounds: start, start*factor, start*factor^2, ...
  static std::vector<double> ExponentialBounds(double start, double factor,
                                               size_t n);
  /// Default size buckets (bytes): 64 B .. 64 MB, x4 steps.
  static std::vector<double> DefaultSizeBounds();

 private:
  mutable std::mutex mu_;
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Named instrument registry. Lookup creates on first use; the returned
/// references stay valid forever (instruments are never destroyed while the
/// registry lives).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  /// `bounds` is consulted only on first creation of `name`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, Histogram::Snapshot> histograms;
  };
  Snapshot snapshot() const;

  /// {"counters": {name: value, ...}, "histograms": {name: {...}, ...}}.
  /// Deterministic: map order, fixed float formatting.
  std::string ToJson() const;

  /// One row per scalar: `kind,name,field,value`. Counters contribute one
  /// row; histograms contribute count/sum/min/max plus one row per bucket.
  std::string ToCsv() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Deterministic float formatting shared by the obs exporters: shortest
/// round-trip form ("%.17g" trimmed) so equal doubles always serialize to
/// equal strings.
std::string FormatDouble(double value);

}  // namespace tcells::obs

#endif  // TCELLS_OBS_METRICS_H_
