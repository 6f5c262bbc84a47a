#include "campaign/campaign.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/clock.h"
#include "protocol/factory.h"
#include "protocol/reference.h"
#include "sql/executor.h"
#include "tds/access_control.h"
#include "tcells/engine.h"
#include "workload/generic.h"

namespace tcells::sim {

namespace {

using storage::Tuple;
using storage::Value;

std::string QueryFor(const ScenarioSpec& spec) {
  std::string sql =
      spec.protocol == protocol::ProtocolKind::kBasicSfw
          ? "SELECT grp, val, cat FROM T WHERE cat < 6"
          : "SELECT grp, COUNT(*), SUM(cat), AVG(val), MIN(val), "
            "MAX(val) FROM T GROUP BY grp";
  if (spec.duration_ticks > 0) {
    // Ticked connectivity: the collection window stays open for the given
    // number of ticks, so mid-collection key events have ticks to land on.
    sql += " SIZE DURATION " + std::to_string(spec.duration_ticks);
  }
  return sql;
}

}  // namespace

std::string ScenarioOutcome::Canonical() const {
  std::ostringstream out;
  out << "scenario " << name << "\n"
      << "completed " << (completed ? 1 : 0);
  if (!completed) out << " status " << abort_status;
  out << "\n"
      << "oracle_match " << (oracle_match ? 1 : 0) << " clean "
      << (clean ? 1 : 0) << "\n"
      << "lost " << partitions_lost << " tampered " << partitions_tampered
      << " rejected " << contributions_rejected << " participants "
      << collection_participants << "/" << eligible_tds << "\n"
      << "retries " << retries << " deadline_hits " << deadline_hits
      << " faults " << faults_injected << " tampers " << tampers << "\n";
  if (!result_table.empty()) out << "result\n" << result_table;
  if (!fault_log.empty()) out << "fault_log\n" << fault_log;
  for (const std::string& v : violations) out << "VIOLATION " << v << "\n";
  out << "\n";
  return out.str();
}

std::string CampaignResult::Canonical() const {
  std::string all;
  for (const ScenarioOutcome& o : outcomes) all += o.Canonical();
  return all;
}

Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    net::TransportKind backend) {
  // ---- World construction (identical for oracle and adversarial run) ----
  workload::GenericOptions gopts;
  gopts.num_tds = spec.num_tds;
  gopts.num_groups = spec.num_groups;
  gopts.group_skew = spec.group_skew;
  gopts.rows_per_tds = spec.rows_per_tds;
  gopts.seed = 1000 + spec.seed;

  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x33));
  TCELLS_ASSIGN_OR_RETURN(
      std::unique_ptr<protocol::Fleet> fleet,
      workload::BuildGenericFleet(gopts, keys, authority,
                                  tds::AccessPolicy::AllowAll()));
  protocol::Querier querier("campaign", authority->Issue("campaign"), keys);
  const std::string sql = QueryFor(spec);

  // The plaintext oracle over the same fleet data.
  TCELLS_ASSIGN_OR_RETURN(sql::QueryResult expected,
                          protocol::ExecuteReference(*fleet, sql));

  // Prior knowledge for the Noise / ED_Hist protocols, derived exactly like
  // the differential tests derive it.
  protocol::ProtocolInputs inputs;
  auto domain = std::make_shared<std::vector<Tuple>>();
  for (size_t g = 0; g < spec.num_groups; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  inputs.group_domain = domain;
  {
    const auto& catalog = fleet->at(0)->db().catalog();
    TCELLS_ASSIGN_OR_RETURN(
        sql::AnalyzedQuery count_q,
        sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp", catalog));
    for (size_t i = 0; i < fleet->size(); ++i) {
      TCELLS_ASSIGN_OR_RETURN(auto rows,
                              sql::CollectionTuples(fleet->at(i)->db(),
                                                    count_q));
      for (const auto& r : rows) inputs.distribution[Tuple({r.at(0)})] += 1;
    }
  }
  inputs.histogram_buckets = 2;
  TCELLS_ASSIGN_OR_RETURN(std::unique_ptr<protocol::Protocol> proto,
                          protocol::MakeProtocol(spec.protocol, inputs));

  // ---- The adversarial engine run ----
  // A virtual clock makes injected delays and retry backoff cost no real
  // time, and keeps the fault schedule independent of machine speed.
  VirtualClock vclock;
  Engine::Config config;
  config.tracing = false;
  config.transport = backend;
  config.num_shards = spec.num_shards;
  config.fault_plan = spec.faults;
  config.tamper_plan = spec.tampering;
  config.options.seed = spec.seed;
  config.options.num_threads = spec.num_threads;
  config.options.dropout_rate = spec.dropout_rate;
  config.options.max_dropout_retries = spec.max_dropout_retries;
  config.options.compute_availability = 0.25;
  config.options.expected_groups = spec.num_groups;
  config.options.clock = &vclock;
  config.key_mode = spec.dynamic_keys ? KeyMode::kDynamic : KeyMode::kStatic;

  // Mid-run key events fire from the collection tick hook. The engine does
  // not exist until Create returns, so the hook reads it through a cell
  // filled in below; `stale_block` is the pre-revocation epoch-0 block the
  // byzantine key server replays.
  auto engine_cell = std::make_shared<Engine*>(nullptr);
  auto stale_block = std::make_shared<Bytes>();
  if (spec.dynamic_keys) {
    config.options.tick_hook = [&spec, engine_cell,
                                stale_block](uint64_t tick) {
      Engine* engine = *engine_cell;
      if (engine == nullptr) return;
      if (spec.revoke_at_tick && tick == *spec.revoke_at_tick) {
        (void)engine->RevokeTds(spec.revoke_at);
      }
      if (spec.rollover_at_tick && tick == *spec.rollover_at_tick) {
        (void)engine->RolloverEpoch();
      }
      if (spec.stale_block_at_tick && tick == *spec.stale_block_at_tick) {
        (void)engine->PostRawEpochBlock(*stale_block);
      }
      if (spec.forged_block_at_tick && tick == *spec.forged_block_at_tick) {
        (void)engine->PostRawEpochBlock(Bytes(64, 0x5a));
      }
    };
  }

  const uint64_t eligible = fleet->size();
  TCELLS_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                          Engine::Create(std::move(fleet), std::move(config)));
  *engine_cell = engine.get();
  if (spec.dynamic_keys) {
    *stale_block = engine->key_authority()->CurrentBlock();
    if (!spec.revoke_before.empty()) {
      TCELLS_RETURN_IF_ERROR(engine->RevokeTds(spec.revoke_before));
    }
  }
  Result<protocol::RunOutcome> run = engine->Run(*proto, querier, 1, sql);

  ScenarioOutcome out;
  out.name = spec.name;
  out.eligible_tds = eligible;
  out.retries = engine->metrics().counter("net.retries").value();
  out.deadline_hits = engine->metrics().counter("net.deadline_hits").value();
  for (size_t shard = 0; shard < engine->num_shards(); ++shard) {
    if (net::FaultyTransport* injector = engine->shard_fault_injector(shard)) {
      out.faults_injected += injector->injected_count();
      out.fault_log += injector->CanonicalLog();
    }
    if (net::ByzantineProxy* proxy = engine->shard_byzantine_proxy(shard)) {
      out.tampers += proxy->stats().total();
    }
  }

  if (run.ok()) {
    out.completed = true;
    out.result_table = run->result.ToString();
    out.oracle_match = run->result.SameRows(expected);
    out.partitions_lost = run->metrics.partitions_lost;
    out.partitions_tampered = run->metrics.partitions_tampered;
    out.collection_participants = run->metrics.collection_participants;
    out.contributions_rejected = run->metrics.contributions_rejected;
  } else {
    out.abort_status = run.status().ToString();
  }

  // ---- Invariants ----
  auto violate = [&](const std::string& msg) {
    out.violations.push_back(msg);
  };
  if (spec.expect_complete && *spec.expect_complete != out.completed) {
    violate(out.completed ? "expected the query to abort, it completed"
                          : "expected completion, got: " + out.abort_status);
  }
  if (out.completed) {
    out.clean = out.partitions_lost == 0 && out.partitions_tampered == 0 &&
                out.contributions_rejected == 0 &&
                out.collection_participants == out.eligible_tds;
    // The core soundness property: a run with nothing visibly wrong must
    // equal the oracle; equivalently, every divergence must be visible in
    // the loss/tamper/participation accounting.
    if (out.clean && !out.oracle_match) {
      violate("silent wrong answer: clean run diverges from the oracle");
    }
    if (spec.expect_partitions_lost &&
        *spec.expect_partitions_lost != out.partitions_lost) {
      violate("expected partitions_lost=" +
              std::to_string(*spec.expect_partitions_lost) + ", got " +
              std::to_string(out.partitions_lost));
    }
    if (spec.expect_partitions_tampered &&
        *spec.expect_partitions_tampered != out.partitions_tampered) {
      violate("expected partitions_tampered=" +
              std::to_string(*spec.expect_partitions_tampered) + ", got " +
              std::to_string(out.partitions_tampered));
    }
    if (spec.expect_contributions_rejected &&
        *spec.expect_contributions_rejected != out.contributions_rejected) {
      violate("expected contributions_rejected=" +
              std::to_string(*spec.expect_contributions_rejected) + ", got " +
              std::to_string(out.contributions_rejected));
    }
  }
  return out;
}

Result<CampaignResult> RunCampaign(const std::vector<ScenarioSpec>& manifest,
                                   net::TransportKind backend) {
  CampaignResult result;
  result.outcomes.reserve(manifest.size());
  for (const ScenarioSpec& spec : manifest) {
    TCELLS_ASSIGN_OR_RETURN(ScenarioOutcome outcome,
                            RunScenario(spec, backend));
    result.total_violations += outcome.violations.size();
    result.outcomes.push_back(std::move(outcome));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Manifests

namespace {

using protocol::ProtocolKind;

constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kBasicSfw, ProtocolKind::kSAgg, ProtocolKind::kRnfNoise,
    ProtocolKind::kCNoise, ProtocolKind::kEdHist};

/// Probabilistic transport chaos a retrying client must absorb: requests and
/// replies drop now and then on every message type.
std::shared_ptr<const net::FaultPlan> ChaosPlan(uint64_t seed) {
  auto plan = std::make_shared<net::FaultPlan>();
  plan->seed = seed;
  plan->probs.drop_request = 0.05;
  plan->probs.drop_reply = 0.03;
  plan->probs.duplicate = 0.05;
  plan->probs.reorder = 0.03;
  plan->probs.stale_replay = 0.02;
  return plan;
}

/// Kills every transport attempt of round-1 token `token`'s fetch: with a
/// retry budget of `attempts`, exactly that one partition is lost.
std::shared_ptr<const net::FaultPlan> TokenKillPlan(uint64_t token,
                                                    uint64_t attempts) {
  auto plan = std::make_shared<net::FaultPlan>();
  net::ScriptedFault f;
  f.type = net::MsgType::kFetchPartition;
  f.kind = net::FaultKind::kDropRequest;
  f.scope = net::ScriptedFault::Scope::kPerKey;
  f.nth = 1;
  f.repeat = attempts;
  f.key_b = token;
  plan->script.push_back(f);
  return plan;
}

std::shared_ptr<const net::FaultPlan> ScriptPlan(net::ScriptedFault f) {
  auto plan = std::make_shared<net::FaultPlan>();
  plan->script.push_back(std::move(f));
  return plan;
}

std::shared_ptr<const net::TamperPlan> Tamper(
    void (*set)(net::TamperPlan*)) {
  auto plan = std::make_shared<net::TamperPlan>();
  set(plan.get());
  return plan;
}

ScenarioSpec Base(std::string name, ProtocolKind kind) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.protocol = kind;
  return spec;
}

}  // namespace

std::vector<ScenarioSpec> DefaultManifest() {
  std::vector<ScenarioSpec> manifest;

  // Fault-free baselines, uniform and Zipf-skewed: must match the oracle
  // with zero loss.
  for (ProtocolKind kind : kAllProtocols) {
    for (double skew : {0.0, 1.2}) {
      ScenarioSpec spec = Base(std::string("clean-") +
                                   protocol::ProtocolKindToString(kind) +
                                   (skew > 0 ? "-zipf" : "-uniform"),
                               kind);
      spec.group_skew = skew;
      spec.num_threads = 2;
      spec.expect_complete = true;
      spec.expect_partitions_lost = 0;
      spec.expect_partitions_tampered = 0;
      manifest.push_back(std::move(spec));
    }
  }

  // Probabilistic transport chaos on a skewed workload, every protocol: the
  // retry layer and server-side idempotency must absorb it (whatever
  // happens, the invariants hold and the outcome is deterministic).
  for (ProtocolKind kind : kAllProtocols) {
    ScenarioSpec spec = Base(
        std::string("chaos-") + protocol::ProtocolKindToString(kind), kind);
    spec.group_skew = 1.2;
    spec.num_threads = 2;
    spec.faults = ChaosPlan(7);
    manifest.push_back(std::move(spec));
  }

  // Scripted mid-query churn, every protocol: round-1 token 0 becomes
  // unreachable for the whole retry budget — exactly one partition lost,
  // counted exactly once.
  for (ProtocolKind kind : kAllProtocols) {
    ScenarioSpec spec = Base(
        std::string("token-kill-") + protocol::ProtocolKindToString(kind),
        kind);
    spec.num_threads = 2;
    spec.faults = TokenKillPlan(0, spec.max_dropout_retries + 1);
    spec.expect_complete = true;
    spec.expect_partitions_lost = 1;
    spec.expect_partitions_tampered = 0;
    manifest.push_back(std::move(spec));
  }

  // "Drop a TakeRoundOutput reply": the take is re-readable, so the retry
  // must re-download the same bytes and nothing is lost. Keyed per-(query,
  // token) — round-output takes run inside the parallel round tasks, so
  // per-type call counting would depend on thread scheduling (see the
  // ScriptedFault::Scope contract in net/faulty.h).
  {
    ScenarioSpec spec = Base("take-reply-dropped", ProtocolKind::kSAgg);
    net::ScriptedFault f;
    f.type = net::MsgType::kTakeRoundOutput;
    f.kind = net::FaultKind::kDropReply;
    f.scope = net::ScriptedFault::Scope::kPerKey;
    f.key_b = 0;
    f.nth = 1;
    spec.faults = ScriptPlan(f);
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    manifest.push_back(std::move(spec));
  }

  // Duplicate delivery of collection uploads: server-side dedup must keep
  // contributions and acknowledgements single-counted.
  {
    ScenarioSpec spec = Base("upload-duplicated", ProtocolKind::kSAgg);
    spec.group_skew = 1.2;
    spec.num_threads = 2;
    auto plan = std::make_shared<net::FaultPlan>();
    plan->seed = 5;
    plan->per_type[net::MsgType::kUploadCollection].duplicate = 0.5;
    spec.faults = plan;
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    manifest.push_back(std::move(spec));
  }

  // Dropped collection-upload replies force retries of a non-idempotent-
  // looking exchange; the accept-bit replay keeps participation correct.
  {
    ScenarioSpec spec = Base("upload-reply-dropped", ProtocolKind::kEdHist);
    spec.num_threads = 2;
    auto plan = std::make_shared<net::FaultPlan>();
    plan->seed = 9;
    plan->per_type[net::MsgType::kUploadCollection].drop_reply = 0.3;
    spec.faults = plan;
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    manifest.push_back(std::move(spec));
  }

  // A truncated result download is unframeable garbage: the client must
  // abort cleanly (Corruption), never serve a partial result.
  {
    ScenarioSpec spec = Base("result-truncated", ProtocolKind::kBasicSfw);
    net::ScriptedFault f;
    f.type = net::MsgType::kFetchResult;
    f.kind = net::FaultKind::kTruncate;
    spec.faults = ScriptPlan(f);
    spec.expect_complete = false;
    manifest.push_back(std::move(spec));
  }

  // One bit of a round-output reply flipped: either the envelope no longer
  // decodes (clean abort) or the digest check flags the partition — the
  // invariants accept both, silence neither.
  {
    ScenarioSpec spec = Base("take-bit-flipped", ProtocolKind::kSAgg);
    net::ScriptedFault f;
    f.type = net::MsgType::kTakeRoundOutput;
    f.kind = net::FaultKind::kBitFlip;
    f.scope = net::ScriptedFault::Scope::kPerKey;
    f.key_b = 0;
    f.nth = 1;
    spec.faults = ScriptPlan(f);
    manifest.push_back(std::move(spec));
  }

  // A stale round-output reply frame replayed from the network's memory on
  // the second take of token 0. Its correlation IDs belong to the first
  // take, so the client drops it and retries: one retry, nothing tampered or
  // lost, oracle-matching. (A replay the SSI itself serves, with fresh IDs,
  // is byz-replay-output.)
  {
    ScenarioSpec spec = Base("take-stale-replay", ProtocolKind::kSAgg);
    net::ScriptedFault f;
    f.type = net::MsgType::kTakeRoundOutput;
    f.kind = net::FaultKind::kStaleReplay;
    f.scope = net::ScriptedFault::Scope::kPerKey;
    f.key_b = 0;
    f.nth = 2;
    spec.faults = ScriptPlan(f);
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    manifest.push_back(std::move(spec));
  }

  // Mid-query disconnect with recovery: the channel dies once, the client
  // re-dials, nothing is lost.
  {
    ScenarioSpec spec = Base("disconnect-recover", ProtocolKind::kCNoise);
    net::ScriptedFault f;
    f.type = net::MsgType::kFetchPartition;
    f.kind = net::FaultKind::kDisconnect;
    f.scope = net::ScriptedFault::Scope::kPerKey;
    f.key_b = 1;
    f.nth = 1;
    spec.faults = ScriptPlan(f);
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    manifest.push_back(std::move(spec));
  }

  // TDS churn after upload: the round output exists server-side but its
  // take keeps disconnecting past the budget — one loss, counted once.
  {
    ScenarioSpec spec = Base("churn-after-upload", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    net::ScriptedFault f;
    f.type = net::MsgType::kTakeRoundOutput;
    f.kind = net::FaultKind::kDisconnect;
    f.scope = net::ScriptedFault::Scope::kPerKey;
    f.key_b = 0;
    f.nth = 1;
    f.repeat = spec.max_dropout_retries + 1;
    spec.faults = ScriptPlan(f);
    spec.expect_complete = true;
    spec.expect_partitions_lost = 1;
    spec.expect_partitions_tampered = 0;
    manifest.push_back(std::move(spec));
  }

  // ---- Byzantine SSI tampering classes ----

  // Reordered collected items: the engine treats the collected set as
  // unordered, so this must be tolerated with a clean oracle match.
  {
    ScenarioSpec spec = Base("byz-reverse-collected", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.tampering =
        Tamper([](net::TamperPlan* p) { p->reverse_collected = true; });
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    manifest.push_back(std::move(spec));
  }

  // Stale round outputs replayed by the SSI itself (not the network): the
  // digest check must flag every replayed partition.
  {
    ScenarioSpec spec = Base("byz-replay-output", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.tampering =
        Tamper([](net::TamperPlan* p) { p->replay_round_output = true; });
    manifest.push_back(std::move(spec));
  }

  // The SSI echoes each partition's input back as its "output".
  {
    ScenarioSpec spec = Base("byz-echo-input", ProtocolKind::kEdHist);
    spec.num_threads = 2;
    spec.tampering =
        Tamper([](net::TamperPlan* p) { p->echo_input_as_output = true; });
    manifest.push_back(std::move(spec));
  }

  // Round outputs swapped pairwise between tokens.
  {
    ScenarioSpec spec = Base("byz-swap-outputs", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.tampering =
        Tamper([](net::TamperPlan* p) { p->swap_round_outputs = true; });
    manifest.push_back(std::move(spec));
  }

  // Every contribution is told "rejected" while the SSI keeps the data. An
  // honest SSI accepts every upload the querier sends while collection is
  // open, so the first forged reject is Corruption: a clean abort. This pin
  // is stricter than the earlier one (expect_complete = true), under which
  // the run completed with an empty result and 0 of 32 participants.
  {
    ScenarioSpec spec = Base("byz-forge-accept", ProtocolKind::kBasicSfw);
    spec.tampering =
        Tamper([](net::TamperPlan* p) { p->forge_accept_byte = true; });
    spec.expect_complete = false;
    manifest.push_back(std::move(spec));
  }

  // Forged NotFound on the collected-data take: a clean abort, not a wrong
  // answer.
  {
    ScenarioSpec spec = Base("byz-forge-error", ProtocolKind::kSAgg);
    spec.tampering = Tamper([](net::TamperPlan* p) {
      p->forge_error_on = net::MsgType::kTakeCollected;
    });
    spec.expect_complete = false;
    manifest.push_back(std::move(spec));
  }

  // Transport faults and a byzantine SSI at once: replayed outputs under
  // chaotic delivery still end up flagged or absorbed, deterministically.
  {
    ScenarioSpec spec = Base("byz-replay-under-chaos", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.group_skew = 1.2;
    spec.faults = ChaosPlan(13);
    spec.tampering =
        Tamper([](net::TamperPlan* p) { p->replay_round_output = true; });
    manifest.push_back(std::move(spec));
  }

  // ---- Dynamic key management (docs/KEYS.md) ----

  // Dynamic-mode baseline: per-query keys + admission checks on an honest
  // world must stay clean and oracle-matching.
  {
    ScenarioSpec spec = Base("keys-clean-dynamic", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    spec.expect_contributions_rejected = 0;
    manifest.push_back(std::move(spec));
  }

  // Pre-revoked TDSs: revoked before the query is posted, they cannot even
  // derive the posting's session keys (it is minted under the post-
  // revocation epoch). They are acknowledged without contributing — zero
  // rejections, reduced participation, no wrong answer.
  {
    ScenarioSpec spec = Base("keys-pre-revoked", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.revoke_before = {1, 2, 3};
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    spec.expect_contributions_rejected = 0;
    manifest.push_back(std::move(spec));
  }

  // Revoked-TDS contribution injection: three TDSs are revoked right after
  // the query is posted (tick 0), so they still derive the posting's keys
  // from their primed pre-revocation windows and answer. Every one of their
  // uploads must be rejected by the admission check — exactly 3 rejections,
  // never folded into the result.
  {
    ScenarioSpec spec =
        Base("keys-revoked-injection", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.revoke_at = {1, 2, 3};
    spec.revoke_at_tick = 0;
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    spec.expect_contributions_rejected = 3;
    manifest.push_back(std::move(spec));
  }

  // Mid-query mass revocation under churn: two TDSs are revoked at tick 1
  // of a DURATION-bounded collection. Whether each of them connected before
  // or after the broadcast decides accepted vs rejected — deterministically
  // per seed, and never silently.
  {
    ScenarioSpec spec = Base("keys-revoke-mid-query", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.duration_ticks = 6;
    spec.revoke_at = {2, 5};
    spec.revoke_at_tick = 1;
    spec.expect_complete = true;
    manifest.push_back(std::move(spec));
  }

  // Epoch rollover while the query is in flight: the posting's epoch stays
  // inside the retained window, every honest TDS re-authenticates under the
  // new epoch, and the multi-round S_Agg completes oracle-matching.
  {
    ScenarioSpec spec = Base("keys-rollover-in-flight", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.rollover_at_tick = 0;
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    spec.expect_contributions_rejected = 0;
    manifest.push_back(std::move(spec));
  }

  // Byzantine key server, stale-epoch replay: after a mid-query revocation
  // the SSI republishes the pre-revocation epoch-0 block. TDSs refuse the
  // downgrade; anyone pinned to the stale epoch surfaces as a rejected
  // contribution, never as a wrong answer.
  {
    ScenarioSpec spec = Base("keys-stale-replay", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.duration_ticks = 6;
    spec.revoke_at = {3};
    spec.revoke_at_tick = 1;
    spec.stale_block_at_tick = 2;
    spec.expect_complete = true;
    manifest.push_back(std::move(spec));
  }

  // Byzantine key server, forged rollover broadcast: garbage bytes replace
  // the epoch block. Every TDS rejects the forgery, keeps its last good
  // window, and the run stays clean and oracle-matching.
  {
    ScenarioSpec spec = Base("keys-forged-rollover", ProtocolKind::kSAgg);
    spec.num_threads = 2;
    spec.dynamic_keys = true;
    spec.forged_block_at_tick = 0;
    spec.expect_complete = true;
    spec.expect_partitions_lost = 0;
    spec.expect_partitions_tampered = 0;
    spec.expect_contributions_rejected = 0;
    manifest.push_back(std::move(spec));
  }

  return manifest;
}

std::vector<ScenarioSpec> SmokeManifest() {
  const char* picks[] = {"clean-S_Agg-zipf",     "chaos-ED_Hist",
                         "token-kill-S_Agg",     "take-reply-dropped",
                         "churn-after-upload",   "byz-replay-output",
                         "byz-forge-error",      "byz-forge-accept",
                         "byz-reverse-collected",
                         "keys-revoked-injection", "keys-forged-rollover"};
  std::vector<ScenarioSpec> smoke;
  for (ScenarioSpec& spec : DefaultManifest()) {
    for (const char* name : picks) {
      if (spec.name == name) smoke.push_back(std::move(spec));
    }
  }
  return smoke;
}

}  // namespace tcells::sim
