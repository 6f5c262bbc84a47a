// LeakLog: instrumentation for the paper's future-work threat extension —
// "(2) extend the threat model to (a small number of) compromised TDSs".
//
// A compromised TDS still runs the protocol (its code is tamper-resistant in
// the paper's model; here we deliberately break that assumption) but leaks
// everything it decrypts. Marking some TDSs compromised and inspecting the
// log after a run measures how much raw data an attacker who extracted k2
// from a few devices would see under each protocol.
#ifndef TCELLS_TDS_LEAK_LOG_H_
#define TCELLS_TDS_LEAK_LOG_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>

#include "storage/tuple.h"

namespace tcells::tds {

/// Shared by all compromised TDSs of one experiment. Thread-safe: several
/// compromised TDSs may process partitions concurrently under the parallel
/// fleet engine, and their appends must not be lost. The leaked sets are
/// order-insensitive by construction, so concurrent runs record exactly what
/// a serial run records.
class LeakLog {
 public:
  void RecordRawTuple(uint64_t tds_id, const storage::Tuple& tuple) {
    std::lock_guard<std::mutex> lock(mu_);
    raw_tuples_.insert(tuple);
    per_tds_raw_[tds_id] += 1;
  }
  void RecordGroupAggregate(uint64_t tds_id, const storage::Tuple& key) {
    std::lock_guard<std::mutex> lock(mu_);
    group_keys_.insert(key);
    per_tds_groups_[tds_id] += 1;
  }

  /// Distinct raw collection tuples an attacker learned in plaintext.
  size_t NumLeakedRawTuples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return raw_tuples_.size();
  }
  /// Distinct groups whose (partial or final) aggregate the attacker saw.
  size_t NumLeakedGroups() const {
    std::lock_guard<std::mutex> lock(mu_);
    return group_keys_.size();
  }

  /// Total appends seen per kind (counts duplicates the sets deduplicate);
  /// the concurrency regression test asserts no append is ever lost.
  uint64_t NumRawAppends() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [id, n] : per_tds_raw_) total += n;
    return total;
  }

  /// Snapshot of the leaked raw tuples. Returns a copy: the log may still be
  /// appended to from other threads while the caller inspects the result.
  std::set<storage::Tuple> raw_tuples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return raw_tuples_;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    raw_tuples_.clear();
    group_keys_.clear();
    per_tds_raw_.clear();
    per_tds_groups_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::set<storage::Tuple> raw_tuples_;
  std::set<storage::Tuple> group_keys_;
  std::map<uint64_t, uint64_t> per_tds_raw_;
  std::map<uint64_t, uint64_t> per_tds_groups_;
};

}  // namespace tcells::tds

#endif  // TCELLS_TDS_LEAK_LOG_H_
