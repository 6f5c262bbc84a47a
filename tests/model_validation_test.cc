// Cross-validation between the functional simulation (real ciphertext
// through a real SSI) and the §6.1 analytical cost model: the model's
// claims must hold for *measured* quantities too, exactly where the model
// is exact (round and partition counts, calibration) and as orderings
// elsewhere. This is the
// reproduction's integrity check — if the implementation and the model
// drifted apart, these tests catch it.
//
// Also: the end-to-end key-rotation story combining LeakLog (a TDS is found
// compromised) with broadcast revocation (everyone else moves to new keys).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/cost_model.h"
#include "crypto/broadcast.h"
#include "protocol/protocols.h"
#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells {
namespace {

using protocol::RunOptions;
using protocol::RunOutcome;

struct MeasuredWorld {
  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<protocol::Querier> querier;
  std::unique_ptr<Engine> engine;
  protocol::Fleet* fleet = nullptr;  // owned by the engine
  sim::DeviceModel device;
  uint64_t next_id = 1;

  explicit MeasuredWorld(size_t n, size_t groups, uint64_t seed = 4242) {
    keys = crypto::KeyStore::CreateForTest(seed);
    authority = std::make_shared<tds::Authority>(Bytes(16, 0x71));
    workload::GenericOptions gopts;
    gopts.num_tds = n;
    gopts.num_groups = groups;
    gopts.seed = seed;
    auto built = workload::BuildGenericFleet(gopts, keys, authority,
                                             tds::AccessPolicy::AllowAll())
                     .ValueOrDie();
    querier = std::make_unique<protocol::Querier>(
        "val", authority->Issue("val"), keys);
    engine = Engine::Create(std::move(built)).ValueOrDie();
    fleet = &engine->fleet();
  }

  RunOutcome Run(protocol::Protocol& protocol, const std::string& sql,
                 RunOptions opts) {
    return engine->Run(protocol, *querier, next_id++, sql, opts).ValueOrDie();
  }

  std::shared_ptr<const std::vector<storage::Tuple>> Domain(size_t groups) {
    auto domain = std::make_shared<std::vector<storage::Tuple>>();
    for (size_t g = 0; g < groups; ++g) {
      domain->push_back(
          storage::Tuple({storage::Value::String(workload::GroupName(g))}));
    }
    return domain;
  }
};

const char* kSql = "SELECT grp, SUM(val), COUNT(*) FROM T GROUP BY grp";

/// Partitions of each aggregation round, in round order, from the trace.
std::vector<uint64_t> RoundPartitions(const RunOutcome& outcome) {
  std::vector<uint64_t> out;
  outcome.trace->ForEach([&](const obs::Span& span, int) {
    if (span.name == obs::kSpanAggregationRound) {
      out.push_back(span.counts.at("partitions"));
    }
  });
  return out;
}

TEST(ModelValidationTest, SAggRoundsFollowTheReductionRule) {
  // The engine's S_Agg tree: fan-in ceil(alpha) = 4, a first round of
  // alpha·G tuples per partition, then one partial per partition merged
  // 4 at a time until one is left. The measured rounds follow it exactly.
  RunOptions opts;
  opts.compute_availability = 0.3;
  opts.expected_groups = 6;
  const uint64_t fan_in = static_cast<uint64_t>(std::ceil(opts.alpha));
  for (size_t n : {100u, 400u}) {
    MeasuredWorld w(n, 6);
    protocol::SAggProtocol s_agg;
    auto outcome = w.Run(s_agg, kSql, opts);
    std::vector<uint64_t> predicted;
    uint64_t items = outcome.metrics.collection_participants;
    uint64_t chunk = fan_in * opts.expected_groups;
    do {
      items = (items + chunk - 1) / chunk;
      predicted.push_back(items);
      chunk = fan_in;
    } while (items > 1);
    EXPECT_EQ(outcome.metrics.collection_participants, n);
    EXPECT_EQ(RoundPartitions(outcome), predicted) << "n=" << n;
    EXPECT_EQ(outcome.metrics.aggregation_rounds, predicted.size())
        << "n=" << n;
  }
}

TEST(ModelValidationTest, TagProtocolsEndWithOnePartitionPerGroup) {
  // Model: the tag protocols' last step merges each group on one TDS, so
  // its partition count is the number of distinct groups.
  const size_t kN = 360, kG = 6;
  RunOptions opts;
  opts.compute_availability = 0.3;
  opts.expected_groups = kG;
  for (int which = 0; which < 3; ++which) {
    MeasuredWorld w(kN, kG);
    std::unique_ptr<protocol::Protocol> protocol;
    if (which < 2) {
      protocol = std::make_unique<protocol::NoiseProtocol>(which == 1,
                                                           w.Domain(kG));
    } else {
      auto discovered =
          w.engine->DiscoverInputs(*w.querier, w.next_id++, kSql)
              .ValueOrDie();
      protocol = protocol::EdHistProtocol::FromDistribution(
          discovered.distribution, 2);
    }
    auto outcome = w.Run(*protocol, kSql, opts);
    ASSERT_EQ(outcome.result.rows.size(), kG) << protocol->name();
    std::vector<uint64_t> rounds = RoundPartitions(outcome);
    ASSERT_FALSE(rounds.empty()) << protocol->name();
    EXPECT_EQ(rounds.back(), kG) << protocol->name();
  }
}

TEST(ModelValidationTest, ModelIsCalibratedByTheDeviceModel) {
  // T_t is the device's per-tuple cost, and the device's RAM bounds
  // S_Agg's partial aggregate: 5000 groups of 48 B overflow the board's
  // 64 KB but fit a smart meter's 512 KB.
  analysis::CostParams p;
  for (const auto& name : analysis::ComparedProtocols()) {
    EXPECT_EQ(analysis::CostFor(name, p)->collection_seconds_per_tds,
              sim::DeviceModel().PerTupleSeconds(16))
        << name;
  }
  p.groups = 5000;
  EXPECT_FALSE(analysis::SAggCost(p).ram_feasible);
  p.device = sim::DeviceParams::SmartMeter();
  EXPECT_TRUE(analysis::SAggCost(p).ram_feasible);
  EXPECT_EQ(analysis::SAggCost(p).collection_seconds_per_tds,
            sim::DeviceModel(p.device).PerTupleSeconds(16));
}

TEST(ModelValidationTest, MeasuredLoadOrderingMatchesModel) {
  // Model: Load(C_Noise, big G) >> Load(R2) > Load(ED_Hist) ~ Load(S_Agg).
  const size_t kN = 300, kG = 24;
  RunOptions opts;
  opts.compute_availability = 0.3;
  opts.expected_groups = kG;

  auto measure = [&](auto&& make_protocol) {
    MeasuredWorld w(kN, kG);
    auto protocol = make_protocol(w);
    auto outcome = w.Run(*protocol, kSql, opts);
    return outcome.metrics.LoadBytes();
  };

  uint64_t load_sagg = measure([](MeasuredWorld& w) {
    (void)w;
    return std::make_unique<protocol::SAggProtocol>();
  });
  uint64_t load_r2 = measure([&](MeasuredWorld& w) {
    return std::make_unique<protocol::NoiseProtocol>(false, w.Domain(kG));
  });
  uint64_t load_c = measure([&](MeasuredWorld& w) {
    return std::make_unique<protocol::NoiseProtocol>(true, w.Domain(kG));
  });

  EXPECT_GT(load_c, 5 * load_sagg);  // nf = G-1 = 23 fakes per tuple
  EXPECT_GT(load_c, 2 * load_r2);    // 23 vs 2 fakes
  EXPECT_GT(load_r2, load_sagg);     // any noise beats no noise
}

TEST(ModelValidationTest, MeasuredSAggTqGrowsWithGOthersShrink) {
  RunOptions opts;
  opts.compute_availability = 0.3;
  auto tq = [&](size_t groups, bool s_agg_proto) {
    MeasuredWorld w(360, groups);
    opts.expected_groups = groups;
    if (s_agg_proto) {
      protocol::SAggProtocol p;
      return w.Run(p, kSql, opts).metrics.Tq();
    }
    protocol::NoiseProtocol p(false, w.Domain(groups));
    return w.Run(p, kSql, opts).metrics.Tq();
  };
  // S_Agg: more groups -> bigger partials every round -> slower.
  EXPECT_GT(tq(36, true), tq(2, true));
  // R2_Noise: more groups -> smaller independent partitions -> not slower
  // by more than noise jitter.
  EXPECT_LT(tq(36, false), tq(2, false) * 1.5);
}

TEST(ModelValidationTest, MeasuredPtdsOrderingAtLargeG) {
  // Model (Fig 10a): at sizeable G, tag-based protocols mobilize more TDSs
  // than S_Agg's shrinking merge tree.
  const size_t kN = 300, kG = 30;
  RunOptions opts;
  opts.compute_availability = 1.0;
  opts.expected_groups = kG;

  // Every TDS collects in both runs, so compare aggregation partitions.
  MeasuredWorld w1(kN, kG);
  protocol::SAggProtocol s_agg;
  auto m_sagg = w1.Run(s_agg, kSql, opts).metrics;
  MeasuredWorld w2(kN, kG);
  protocol::NoiseProtocol noise(false, w2.Domain(kG));
  auto m_noise = w2.Run(noise, kSql, opts).metrics;
  EXPECT_GT(m_noise.accountant.phase(sim::Phase::kAggregation).partitions,
            m_sagg.accountant.phase(sim::Phase::kAggregation).partitions);
}

// ---------------------------------------------------------------------------
// Compromise -> revoke -> rotate: the full future-work story.

TEST(KeyRotationStoryTest, CompromiseRevokeRotate) {
  const size_t kN = 40;
  Rng rng(55);

  // Broadcast channel established at deployment time; each device holds its
  // path keys.
  auto channel =
      crypto::BroadcastChannel::Create(rng.NextBytes(16), kN).ValueOrDie();

  // Epoch 0 keys, distributed by broadcast (nobody revoked yet).
  Bytes k1_e0 = rng.NextBytes(16), k2_e0 = rng.NextBytes(16);
  Bytes bundle_e0;
  {
    ByteWriter w(&bundle_e0);
    w.PutBytes(k1_e0);
    w.PutBytes(k2_e0);
  }
  auto msg_e0 = channel.Encrypt(bundle_e0, {}, &rng).ValueOrDie();

  auto unwrap = [&](size_t device) -> Result<std::shared_ptr<const crypto::KeyStore>> {
    auto keys = channel.DeviceKeys(device).ValueOrDie();
    TCELLS_ASSIGN_OR_RETURN(Bytes plain,
                            crypto::BroadcastChannel::Decrypt(msg_e0, keys));
    ByteReader r(plain);
    TCELLS_ASSIGN_OR_RETURN(Bytes k1, r.GetBytes());
    TCELLS_ASSIGN_OR_RETURN(Bytes k2, r.GetBytes());
    return crypto::KeyStore::Create(k1, k2);
  };

  // Build the fleet with broadcast-delivered keys; devices 10..19 are
  // compromised (leak everything they decrypt); 13 is the one we revoke.
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x13));
  auto leak = std::make_shared<tds::LeakLog>();
  auto fleet = std::make_unique<protocol::Fleet>();
  workload::GenericOptions gopts;
  gopts.num_groups = 4;
  Rng data_rng(56);
  for (uint64_t i = 0; i < kN; ++i) {
    auto server = std::make_unique<tds::TrustedDataServer>(
        i, unwrap(i).ValueOrDie(), authority, tds::AccessPolicy::AllowAll());
    if (i >= 10 && i < 20) server->set_leak_log(leak);
    ASSERT_TRUE(
        workload::PopulateGenericDb(&server->db(), i, gopts, &data_rng).ok());
    fleet->Add(std::move(server));
  }

  // A query runs; the compromised device sees plaintext.
  protocol::Querier querier_e0(
      "op", authority->Issue("op"),
      crypto::KeyStore::Create(k1_e0, k2_e0).ValueOrDie());
  protocol::SAggProtocol s_agg;
  RunOptions opts;
  opts.compute_availability = 1.0;  // ensure device 13 participates
  // Partition assignment is randomized; a few queries guarantee that some
  // compromised device handles a partition.
  auto engine_e0 = Engine::Create(std::move(fleet)).ValueOrDie();
  for (uint64_t qid = 1; qid <= 3; ++qid) {
    auto outcome =
        engine_e0->Run(s_agg, querier_e0, qid, kSql, opts).ValueOrDie();
    EXPECT_FALSE(outcome.result.rows.empty());
  }
  EXPECT_GT(leak->NumLeakedRawTuples() + leak->NumLeakedGroups(), 0u);

  // The operator rotates: epoch-1 keys broadcast with device 13 revoked.
  Bytes k1_e1 = rng.NextBytes(16), k2_e1 = rng.NextBytes(16);
  Bytes bundle_e1;
  {
    ByteWriter w(&bundle_e1);
    w.PutBytes(k1_e1);
    w.PutBytes(k2_e1);
  }
  auto msg_e1 = channel.Encrypt(bundle_e1, {13}, &rng).ValueOrDie();
  for (size_t i = 0; i < kN; ++i) {
    auto keys = channel.DeviceKeys(i).ValueOrDie();
    auto plain = crypto::BroadcastChannel::Decrypt(msg_e1, keys);
    EXPECT_EQ(plain.ok(), i != 13);
  }

  // Post-rotation queries run over the unrevoked sub-fleet with new keys;
  // the compromised device's k2 is useless against them.
  auto new_keys = crypto::KeyStore::Create(k1_e1, k2_e1).ValueOrDie();
  auto healthy = std::make_unique<protocol::Fleet>();
  Rng data_rng2(56);  // same data stream
  for (uint64_t i = 0; i < kN; ++i) {
    auto server = std::make_unique<tds::TrustedDataServer>(
        i, new_keys, authority, tds::AccessPolicy::AllowAll());
    ASSERT_TRUE(workload::PopulateGenericDb(&server->db(), i, gopts,
                                            &data_rng2)
                    .ok());
    if (i != 13) healthy->Add(std::move(server));
  }
  protocol::Querier querier_e1("op", authority->Issue("op"), new_keys);
  auto engine_e1 = Engine::Create(std::move(healthy)).ValueOrDie();
  auto outcome2 = engine_e1->Run(s_agg, querier_e1, 2, kSql, opts).ValueOrDie();
  auto oracle =
      protocol::ExecuteReference(engine_e1->fleet(), kSql).ValueOrDie();
  EXPECT_TRUE(outcome2.result.SameRows(oracle));

  // An epoch-0 key store cannot read epoch-1 traffic.
  auto old_keys = crypto::KeyStore::Create(k1_e0, k2_e0).ValueOrDie();
  Bytes probe = new_keys->k2_ndet().Encrypt(rng.NextBytes(16), &rng);
  EXPECT_FALSE(old_keys->k2_ndet().Decrypt(probe).ok());
}

}  // namespace
}  // namespace tcells
