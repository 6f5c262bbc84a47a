// Wave-independence pin for the collection tick. A tick serves its
// connectors in fixed-size waves (session.cc, 4096 connectors each), and
// nothing a query computes may depend on where the wave boundaries fall.
// Each run below is reduced to one SHA-256 over its result rows, its
// metrics export, its trace export and its encoded AdversaryView, and the
// digests are pinned: they were taken on the code that served a whole tick
// at once, so a wave that reorders an Rng fork, an upload or an
// acknowledgement, or counts the SIZE bound differently, moves a digest.
// The dynamic-key digests were re-pinned once, when the key refresh became a
// conditional fetch: that moved only their metrics section (the byte counts
// net.bytes_* and net.frame_bytes' sum, and the new keys.blocks_current),
// while their rows, trace and view sections hash as before.
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
#include <vector>

#include "common/hex.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells::protocol {
namespace {

using storage::Tuple;
using storage::Value;

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

  std::unique_ptr<Protocol> protocol;
  if (run.protocol == ProtocolKind::kCNoise) {
    auto domain = std::make_shared<std::vector<Tuple>>();
    for (size_t g = 0; g < kNumGroups; ++g) {
      domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
    }
    protocol = std::make_unique<NoiseProtocol>(true, domain);
  } else {
    protocol = std::make_unique<SAggProtocol>();
  }

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
       "e3d47bd600155ef74ba2170c3121b58fa058c76bb3d49ac196baf3351064fc28"},
      {"s_agg static s4",
       "716578029d9776ebb366029f0c1fee4807298c7a243ec64ad931469d380ffe5f"},
      {"s_agg dynamic s1",
       "12d24cf7f2279fff31639b5a81f0811ec1ad25ea1fa800a40436e19fbab8e422"},
      {"s_agg dynamic s4",
       "c5272a72985ad4b36a45a636fa66eaf952f79acf85d8eb9f4f5353830c630d0b"},
      {"c_noise static s1",
       "317a58c835d0850bdbca505dac0cc15c2d0e20e5cfa2eba9ec531b246c926ce1"},
      {"c_noise static s4",
       "2f5e3d480eb3fb71dfe07e9ef110bb1966eeb6013956b473add971bba3f8df7c"},
      {"c_noise dynamic s1",
       "bb686ba3a5d5500a16a9aea647affe8e698eaafa149df64632cabcd1da40b76f"},
      {"c_noise dynamic s4",
       "b31c3726f8133a4f085f0afd867241a099aa1b605524a67615dad388d8bfbcb1"},
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
            "68e12b72b26732bbe7a86677d50bcb5d0da116c1ea43c33e4e12d12e866ed399");
}

}  // namespace
}  // namespace tcells::protocol
