// Fuzz harness for storage::Tuple and sql::GroupedAggregation span decoding.
//
// Input: one selector byte, then the encoded body.
//   0            -> Tuple::Decode (accepted tuples must re-encode identical)
//   1 + k        -> GroupedAggregation::Decode against canned spec set k
//                   (see fuzz_specs.h; make_corpus tags bodies the same way).
// Accepted aggregations additionally run Finalize and MemoryFootprint so the
// post-decode arithmetic paths see hostile states too.
#include <vector>

#include "fuzz_specs.h"
#include "fuzz_util.h"
#include "sql/aggregates.h"
#include "storage/tuple.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const std::vector<std::vector<tcells::sql::AggSpec>>& spec_sets =
      *new std::vector<std::vector<tcells::sql::AggSpec>>(
          tcells::fuzz::SpecSets());
  if (size == 0) return 0;
  const uint8_t selector = data[0] % (1 + spec_sets.size());
  const uint8_t* body = data + 1;
  const size_t body_size = size - 1;
  if (selector == 0) {
    tcells::Result<tcells::storage::Tuple> tuple =
        tcells::storage::Tuple::Decode(body, body_size);
    if (tuple.ok()) {
      FUZZ_ASSERT(tuple->Encode() ==
                  tcells::Bytes(body, body + body_size));
    }
    return 0;
  }
  const auto& specs = spec_sets[selector - 1];
  tcells::Result<tcells::sql::GroupedAggregation> agg =
      tcells::sql::GroupedAggregation::Decode(specs, body, body_size);
  if (!agg.ok()) return 0;
  (void)agg->MemoryFootprint();
  for (const auto& [key, states] : agg->groups()) {
    (void)key.ToString();
    for (const auto& state : states) {
      // Finalize may fail on adversarial states (e.g. overflow markers); it
      // must do so via Status, never by crashing.
      (void)state.Finalize();
    }
  }
  return 0;
}
