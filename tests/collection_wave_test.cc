// Wave-independence pin for the collection tick. A tick serves its
// connectors in fixed-size waves (session.cc, 4096 connectors each), and
// nothing a query computes may depend on where the wave boundaries fall.
// Each run below is reduced to one SHA-256 over its result rows, its
// metrics export, its trace export and its encoded AdversaryView, and the
// digests are pinned: a wave that reorders an upload or an acknowledgement,
// or counts the SIZE bound differently, moves a digest. They were last
// re-pinned when every random draw became keyed (Rng::Keyed): a new merge
// tree moves S_Agg's AVG in its last bits and C_Noise's row order, so every
// rows section moved with the draws.
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
       "3f0d64fb0d36a844d6d36aab53a52f3a3b5cbbd750c96c8177ff31d162774eaf"},
      {"s_agg static s4",
       "4238e4168f34cb3d1e9a8683dbe61762a069451c9c8cbb9d8b664d57c4a16200"},
      {"s_agg dynamic s1",
       "45a95473b706872b3e4d1f21e9df2f393115b3bbe69600cc60d0b957d7172980"},
      {"s_agg dynamic s4",
       "30d036e9ae7ab2d63761ff908440ab4dea3639feb1c59013973d7afbf5b651f6"},
      {"c_noise static s1",
       "bfe3517f62d0ace880e3d3ad38b4f6852f4577682ce7833b22f7e24f8d8ae2d4"},
      {"c_noise static s4",
       "9a17a48872a827dbf4f206ce0cf31f54d925435346f846e5a0717088e0ec0543"},
      {"c_noise dynamic s1",
       "3cc4dbfb46e8150ccec8c18cad3a4805848e9622b34a2d1d1084c0e4e5bc1675"},
      {"c_noise dynamic s4",
       "a20533f667c9217a9b076f84e28678c494e7d4b4d19ca5ea1cf4411a11ecb43b"},
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
            "5f1b3ce775c2aae32c7a65e82a2fb0392ed2309f0e1b4309796dfd299f3ee5e5");
}

}  // namespace
}  // namespace tcells::protocol
