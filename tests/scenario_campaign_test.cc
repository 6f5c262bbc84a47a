// Tier-5 adversarial campaign smoke tests (`ctest -L sim`): runs the small
// deterministic manifest and asserts (a) zero invariant violations, (b) the
// campaign's own determinism — byte-identical canonical dumps across worker
// thread counts and across the loopback and TCP backends — and (c) the
// pinned per-scenario outcomes the full manifest relies on. The full
// manifest runs via examples/run_campaign (`make campaign` or
// scripts/run_campaign.sh).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "net/channel.h"

namespace tcells::sim {
namespace {

using net::TransportKind;

CampaignResult MustRun(const std::vector<ScenarioSpec>& manifest,
                       TransportKind backend) {
  Result<CampaignResult> result = RunCampaign(manifest, backend);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : CampaignResult{};
}

const ScenarioOutcome* FindOutcome(const CampaignResult& campaign,
                                   const std::string& name) {
  for (const ScenarioOutcome& outcome : campaign.outcomes) {
    if (outcome.name == name) return &outcome;
  }
  return nullptr;
}

TEST(ScenarioCampaign, SmokeManifestHasNoViolations) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  for (const ScenarioOutcome& outcome : campaign.outcomes) {
    EXPECT_TRUE(outcome.violations.empty())
        << outcome.name << ": " << outcome.violations.front();
  }
  EXPECT_EQ(campaign.total_violations, 0u);
  EXPECT_EQ(campaign.outcomes.size(), SmokeManifest().size());
}

// A clean scenario (honest transport, honest SSI) must match the oracle and
// report itself clean.
TEST(ScenarioCampaign, CleanScenarioMatchesOracle) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  const ScenarioOutcome* clean = FindOutcome(campaign, "clean-S_Agg-zipf");
  ASSERT_NE(clean, nullptr);
  EXPECT_TRUE(clean->completed);
  EXPECT_TRUE(clean->clean);
  EXPECT_TRUE(clean->oracle_match);
  EXPECT_EQ(clean->partitions_lost, 0u);
  EXPECT_EQ(clean->partitions_tampered, 0u);
  EXPECT_EQ(clean->collection_participants, clean->eligible_tds);
  EXPECT_EQ(clean->faults_injected, 0u);
}

// A TDS killed after its upload but before the round output was taken is
// counted exactly once in partitions_lost — never twice, never zero.
TEST(ScenarioCampaign, ChurnAfterUploadCountedOnce) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  const ScenarioOutcome* churn = FindOutcome(campaign, "churn-after-upload");
  ASSERT_NE(churn, nullptr);
  EXPECT_TRUE(churn->completed);
  EXPECT_EQ(churn->partitions_lost, 1u);
  EXPECT_EQ(churn->partitions_tampered, 0u);
}

// Exhausting one token's retry budget loses exactly that partition.
TEST(ScenarioCampaign, TokenKillLosesExactlyOnePartition) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  const ScenarioOutcome* kill = FindOutcome(campaign, "token-kill-S_Agg");
  ASSERT_NE(kill, nullptr);
  EXPECT_TRUE(kill->completed);
  EXPECT_EQ(kill->partitions_lost, 1u);
  EXPECT_GE(kill->retries, 1u);
}

// A dropped take reply is retried and the re-download succeeds: nothing may
// be counted lost and nothing double-counted.
TEST(ScenarioCampaign, DroppedTakeReplyRecoversWithoutLoss) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  const ScenarioOutcome* dropped = FindOutcome(campaign, "take-reply-dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_TRUE(dropped->completed);
  EXPECT_EQ(dropped->partitions_lost, 0u);
  EXPECT_GE(dropped->retries, 1u);
  EXPECT_GE(dropped->faults_injected, 1u);
}

// Byzantine SSI replaying a round output: the client's digest check must
// flag the partition as tampered (and lost) — no silent wrong answer.
TEST(ScenarioCampaign, ByzantineReplayIsDetected) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  const ScenarioOutcome* replay = FindOutcome(campaign, "byz-replay-output");
  ASSERT_NE(replay, nullptr);
  EXPECT_GE(replay->tampers, 1u);
  EXPECT_GE(replay->partitions_tampered, 1u);
  EXPECT_EQ(replay->partitions_tampered, replay->partitions_lost);
  EXPECT_FALSE(replay->clean);
}

// Byzantine SSI forging application errors or "rejected" accept bits: the
// run aborts cleanly instead of fabricating a result or quietly returning an
// empty one.
TEST(ScenarioCampaign, ForgedErrorsAbortCleanly) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  for (const char* name : {"byz-forge-error", "byz-forge-accept"}) {
    SCOPED_TRACE(name);
    const ScenarioOutcome* forged = FindOutcome(campaign, name);
    ASSERT_NE(forged, nullptr);
    EXPECT_FALSE(forged->completed);
    EXPECT_FALSE(forged->abort_status.empty());
    EXPECT_TRUE(forged->result_table.empty());
  }
}

// Tampering that does not change the multiset of collected items (reversing
// a partition) is tolerated: the result still matches the oracle.
TEST(ScenarioCampaign, OrderOnlyTamperingIsTolerated) {
  CampaignResult campaign = MustRun(SmokeManifest(), TransportKind::kLoopback);
  const ScenarioOutcome* reversed =
      FindOutcome(campaign, "byz-reverse-collected");
  ASSERT_NE(reversed, nullptr);
  EXPECT_TRUE(reversed->completed);
  EXPECT_GE(reversed->tampers, 1u);
  EXPECT_TRUE(reversed->oracle_match);
}

// A stale reply frame replayed by the network carries the earlier take's
// correlation IDs: the client drops it and retries, so the replay never
// reaches the digest check (a replay the SSI itself serves is
// byz-replay-output's case).
TEST(ScenarioCampaign, TransportStaleReplayIsRetriedNotTampered) {
  for (const ScenarioSpec& spec : DefaultManifest()) {
    if (spec.name != "take-stale-replay") continue;
    Result<ScenarioOutcome> outcome =
        RunScenario(spec, TransportKind::kLoopback);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(outcome->violations.empty());
    EXPECT_TRUE(outcome->completed);
    EXPECT_TRUE(outcome->clean);
    EXPECT_TRUE(outcome->oracle_match);
    EXPECT_EQ(outcome->faults_injected, 1u);
    EXPECT_EQ(outcome->retries, 1u);
    return;
  }
  FAIL() << "take-stale-replay is missing from the default manifest";
}

// The determinism contract: the same manifest produces byte-identical
// canonical dumps for 1, 2 and 8 worker threads. Fault decisions are keyed
// on message content, never on arrival order or thread ids.
TEST(ScenarioCampaign, CanonicalDumpIdenticalAcrossThreadCounts) {
  std::string dumps[3];
  const size_t kThreads[3] = {1, 2, 8};
  for (size_t i = 0; i < 3; ++i) {
    std::vector<ScenarioSpec> manifest = SmokeManifest();
    for (ScenarioSpec& spec : manifest) spec.num_threads = kThreads[i];
    dumps[i] = MustRun(manifest, TransportKind::kLoopback).Canonical();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[1], dumps[2]);
  EXPECT_FALSE(dumps[0].empty());
}

// The same manifest over real sockets produces the byte-identical dump:
// faults and tampering depend on the wire bytes, not on the backend.
TEST(ScenarioCampaign, CanonicalDumpIdenticalAcrossBackends) {
  std::string loopback =
      MustRun(SmokeManifest(), TransportKind::kLoopback).Canonical();
  std::string tcp = MustRun(SmokeManifest(), TransportKind::kTcp).Canonical();
  EXPECT_EQ(loopback, tcp);
  EXPECT_FALSE(loopback.empty());
}

std::vector<ScenarioSpec> AtShards(std::vector<ScenarioSpec> manifest,
                                   size_t num_shards) {
  for (ScenarioSpec& spec : manifest) spec.num_shards = num_shards;
  return manifest;
}

// The full manifest holds its invariants on a sharded SSI too, where the
// collection spreads over the shards and each query's rounds ride its home
// shard. Outcomes may differ from one shard, but no violation may appear.
TEST(ScenarioCampaign, DefaultManifestHasNoViolationsAcrossShards) {
  for (size_t num_shards : {2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(num_shards));
    CampaignResult campaign = MustRun(AtShards(DefaultManifest(), num_shards),
                                      TransportKind::kLoopback);
    for (const ScenarioOutcome& outcome : campaign.outcomes) {
      EXPECT_TRUE(outcome.violations.empty())
          << outcome.name << ": " << outcome.violations.front();
    }
    EXPECT_EQ(campaign.total_violations, 0u);
    EXPECT_EQ(campaign.outcomes.size(), DefaultManifest().size());
  }
}

// The determinism contract at two shards: byte-identical dumps across
// thread counts and across backends.
TEST(ScenarioCampaign, ShardedCanonicalDumpIdenticalAcrossThreadsAndBackends) {
  std::string dumps[3];
  const size_t kThreads[3] = {1, 2, 8};
  for (size_t i = 0; i < 3; ++i) {
    std::vector<ScenarioSpec> manifest = AtShards(SmokeManifest(), 2);
    for (ScenarioSpec& spec : manifest) spec.num_threads = kThreads[i];
    dumps[i] = MustRun(manifest, TransportKind::kLoopback).Canonical();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[1], dumps[2]);
  EXPECT_FALSE(dumps[0].empty());
  EXPECT_EQ(
      MustRun(AtShards(SmokeManifest(), 2), TransportKind::kTcp).Canonical(),
      dumps[0]);
}

}  // namespace
}  // namespace tcells::sim
