// Wave-independence pin for the collection tick. A tick serves its
// connectors in fixed-size waves (session.cc, 4096 connectors each), and
// nothing a query computes may depend on where the wave boundaries fall.
// Each run below is reduced to one SHA-256 over its result rows, its
// metrics export, its trace export and its encoded AdversaryView, and the
// digests are pinned: a wave that reorders an upload or an acknowledgement,
// or counts the SIZE bound differently, moves a digest. They were last
// re-pinned when the view's blob sizes became a size histogram: only the
// view section and the net.* byte counters that carry it moved. A view
// holds counts only, so each cell's view is the same at 1 and 4 shards.
// Before that, when every random draw became keyed (Rng::Keyed), a new
// merge tree moved S_Agg's AVG in its last bits and C_Noise's row order,
// so every rows section moved with the draws.
//
// The fleet is 3 full waves plus a ragged remainder. Transport batching is
// one call per frame, so the net.* frame counters are part of the pin too
// (with larger frames a wave boundary can split a frame, which moves only
// those counters). net.inflight_calls is left out: it samples cross-thread
// concurrency, the one instrument outside the determinism contract.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "protocol/discovery.h"
#include "protocol/factory.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells::protocol {
namespace {

using storage::Tuple;

constexpr size_t kWave = 4096;
constexpr size_t kNumTds = 3 * kWave + 517;
constexpr size_t kNumGroups = 4;
constexpr const char* kSql =
    "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T GROUP BY grp";

struct WaveRun {
  ProtocolKind protocol = ProtocolKind::kSAgg;
  KeyMode key_mode = KeyMode::kStatic;
  size_t shards = 1;
  size_t threads = 1;
  std::string sql = kSql;
  double connect_prob_per_tick = 0.2;
  /// Whether the window is one full pass, so the oracle applies.
  bool full_pass = true;
};

/// The metrics export without net.inflight_calls, one line per scalar.
std::string MetricsText(const obs::MetricsRegistry& registry) {
  const obs::MetricsRegistry::Snapshot snap = registry.snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    if (name == "net.inflight_calls") continue;
    out += name + " " + std::to_string(h.count) + " " +
           obs::FormatDouble(h.sum) + " " + obs::FormatDouble(h.min) + " " +
           obs::FormatDouble(h.max);
    for (uint64_t c : h.counts) out += " " + std::to_string(c);
    out += "\n";
  }
  return out;
}

/// Runs query 1 under `run` on a fresh fleet and engine, checks a full pass
/// against the oracle, and sets `digest` to the hex SHA-256 of everything
/// the query exported.
RunOutcome RunQuery(const WaveRun& run, std::string* digest) {
  workload::GenericOptions gopts;
  gopts.num_tds = kNumTds;
  gopts.num_groups = kNumGroups;
  gopts.group_skew = 0.8;
  gopts.rows_per_tds = 1;
  gopts.seed = 37;
  auto keys = crypto::KeyStore::CreateForTest(2037);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x37));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  Querier querier("wave", authority->Issue("wave"), keys);
  const sql::QueryResult oracle =
      ExecuteReference(*fleet, kSql).ValueOrDie();

  const ProtocolInputs inputs =
      InputsFromDiscovery(
          ExecuteReference(*fleet, DiscoverySql(kSql).ValueOrDie())
              .ValueOrDie())
          .ValueOrDie();
  auto protocol = MakeProtocol(run.protocol, inputs).ValueOrDie();

  Engine::Config cfg;
  cfg.options.compute_availability = 200.0 / kNumTds;
  cfg.options.expected_groups = kNumGroups;
  cfg.options.seed = 13;
  cfg.options.num_threads = run.threads;
  cfg.options.connect_prob_per_tick = run.connect_prob_per_tick;
  cfg.num_shards = run.shards;
  cfg.transport_batch_max_calls = 1;
  cfg.key_mode = run.key_mode;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  RunOutcome outcome =
      engine->Run(*protocol, querier, /*query_id=*/1, run.sql).ValueOrDie();
  if (run.full_pass) {
    EXPECT_TRUE(outcome.result.SameRows(oracle));
  }

  Bytes all;
  auto append = [&](const std::string& section, const Bytes& bytes) {
    all.insert(all.end(), section.begin(), section.end());
    const std::string size = " " + std::to_string(bytes.size()) + "\n";
    all.insert(all.end(), size.begin(), size.end());
    all.insert(all.end(), bytes.begin(), bytes.end());
  };
  Bytes rows;
  for (const Tuple& row : outcome.result.rows) {
    const Bytes encoded = row.Encode();
    rows.insert(rows.end(), encoded.begin(), encoded.end());
  }
  append("rows", rows);
  const std::string metrics = MetricsText(engine->metrics());
  append("metrics", Bytes(metrics.begin(), metrics.end()));
  const std::string trace = outcome.trace->ToJson();
  append("trace", Bytes(trace.begin(), trace.end()));
  Bytes view;
  outcome.adversary.EncodeTo(&view);
  append("view", view);
  const auto sha = crypto::Sha256::Hash(all);
  *digest = ToHex(sha.data(), sha.size());
  return outcome;
}

// S_Agg and C_Noise x static/dynamic keys x shards {1, 4}: one pinned
// digest per cell, and the same digest at 1 and 2 worker threads.
TEST(CollectionWaveTest, FullPassDigestsArePinned) {
  const std::map<std::string, std::string> want = {
      {"s_agg static s1",
       "c4212cada162956f65859f00c0d23645c71c21b5f7752e3c64a4a75cf1377931"},
      {"s_agg static s4",
       "4043e4f4260767f1454d0b35726df92e8771f372565dab3209b90037bf0ded6a"},
      {"s_agg dynamic s1",
       "f3295c9e36b4e923dcf216995943e58906f0d6f212dd791f4b163272048d483b"},
      {"s_agg dynamic s4",
       "f8166c9d50256803532b5a9227c89e1b96fd4e55645f002fa7b8441c1ea47de1"},
      {"c_noise static s1",
       "4a0c16ba51d7a29d3f57c49d4b52192db717986651a9f5a215836af7a0440e08"},
      {"c_noise static s4",
       "7a560326b101499cb54ec6da4fd0c09a5e765d590ec2d979313739eb83cbe878"},
      {"c_noise dynamic s1",
       "b114764e2b87905bd5f452eed62740ea298b88f1203ebc2c2a7969360d740d81"},
      {"c_noise dynamic s4",
       "ed7d7c370740b8a5df8322ace101101cb3fe9319585ccefae987314565815011"},
  };
  for (ProtocolKind protocol : {ProtocolKind::kSAgg, ProtocolKind::kCNoise}) {
    for (KeyMode key_mode : {KeyMode::kStatic, KeyMode::kDynamic}) {
      for (size_t shards : {1u, 4u}) {
        const std::string cell =
            std::string(protocol == ProtocolKind::kSAgg ? "s_agg" : "c_noise") +
            (key_mode == KeyMode::kStatic ? " static" : " dynamic") + " s" +
            std::to_string(shards);
        for (size_t threads : {1u, 2u}) {
          WaveRun run;
          run.protocol = protocol;
          run.key_mode = key_mode;
          run.shards = shards;
          run.threads = threads;
          std::string digest;
          RunQuery(run, &digest);
          EXPECT_EQ(digest, want.at(cell))
              << cell << ", " << threads << " thread(s)";
        }
      }
    }
  }
}

// A DURATION window with per-tick connectivity below 1: each tick's ~60%
// of the fleet spans two waves, and the SIZE bound is crossed inside the
// second tick, so the serves after it are acknowledged instead of uploaded.
TEST(CollectionWaveTest, SizeBoundReachedMidTickIsPinned) {
  WaveRun run;
  run.shards = 4;
  run.threads = 2;
  run.sql = "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T GROUP BY grp "
            "SIZE 10500 DURATION 4";
  run.connect_prob_per_tick = 0.6;
  run.full_pass = false;
  std::string digest;
  const RunOutcome outcome = RunQuery(run, &digest);
  EXPECT_EQ(outcome.metrics.collection_ticks, 2u);
  EXPECT_EQ(outcome.adversary.collection_items, 10500u);
  EXPECT_EQ(digest,
            "0a2c6fae5c322b5a21a4f5c841e72584ea68371d7c224288e70b0db5e4bcd7c2");
}

}  // namespace
}  // namespace tcells::protocol
