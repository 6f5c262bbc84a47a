// tcells_bench: the repository benchmark. One process runs one workload.
//
//   tcells_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--smoke] [--spans PATH]
//
// Every workload is a closed loop: each client waits for its verified result
// before posting its next query, and one bench thread drives all clients,
// polling their handles. The seed generates the inputs (fleet contents, query
// order, rollover schedule); the engine sees only those inputs. Every result
// is checked against the plaintext oracle (protocol::ExecuteReference).
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// gives the per-layer split, measured from outside the library only: it
// times calls into Engine, QuerySession and every net::SsiApi method (through
// the TimedSsi decorator), and reads the engine's public outputs — RunMetrics,
// trace spans and MetricsRegistry counters. See README.md for the workloads,
// the metric definitions and the layer each metric belongs to.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Progress and a human-readable summary go to stderr.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "protocol/reference.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "timed_ssi.h"
#include "workload/generic.h"

namespace tcells::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Scheduler slots stay within what a two-core host runs beside the bench
/// thread.
constexpr size_t kMaxSlots = 2;
/// Compute pool held at ~200 TDSs per query (as in bench_fleet_scale), so
/// fleet size moves collection cost, not the depth of the aggregation tree.
constexpr double kComputePoolTarget = 200;
constexpr size_t kWarmupQueries = 2;
/// Untraced runs set up this many times and report the median as setup_s,
/// since one set-up of a few milliseconds is easily disturbed.
constexpr size_t kSetupReps = 5;
/// Fewest measured queries behind any reported median.
constexpr size_t kMinQueries = 3;
/// A run stops issuing queries after this many times --seconds, so a badly
/// slowed run still ends.
constexpr double kGiveUpFactor = 4;
constexpr auto kPollInterval = std::chrono::microseconds(500);

struct Workload {
  const char* name;
  /// C_Noise over the full group domain; S_Agg otherwise.
  bool c_noise;
  size_t num_tds;
  size_t rows_per_tds;
  size_t groups;
  net::TransportKind transport;
  size_t shards;
  size_t clients;
  KeyMode key_mode;
  /// Engine::RolloverEpoch beside every Nth query (0 = never).
  size_t rollover_every;
  /// 1: one GROUP BY text; n > 1: n texts filtering `cat <> k`, k < n.
  size_t sql_variants;
  /// A run measures round(--seconds x nominal_qps) queries: a fixed amount of
  /// work, since the TDSs' per-query caches grow with every query and a
  /// time-boxed count would make later queries' cost depend on host speed.
  /// The rates are the throughput measured on a 2-core host when the
  /// benchmark was introduced.
  double nominal_qps;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"sagg_fleet50k", false, 50000, 1, 8, net::TransportKind::kLoopback, 4, 1,
     KeyMode::kStatic, 0, 1, 1.0},
    {"cnoise_g32", true, 2000, 4, 32, net::TransportKind::kLoopback, 4, 1,
     KeyMode::kStatic, 0, 1, 0.9},
    {"sagg_conc4_10k", false, 10000, 1, 8, net::TransportKind::kLoopback, 4, 4,
     KeyMode::kStatic, 0, 8, 9.0},
    {"sagg_tcp_dynkeys_10k", false, 10000, 1, 8, net::TransportKind::kTcp, 2,
     1, KeyMode::kDynamic, 10, 1, 1.2},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 16;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
};

/// Everything the seed decides.
struct Inputs {
  workload::GenericOptions fleet;
  uint64_t key_seed = 0;
  Bytes authority_key;
  uint64_t engine_seed = 0;
  std::vector<std::string> sqls;
  /// SQL index of the query with sequence number s is sql_order[s % size].
  std::vector<size_t> sql_order;
  size_t rollover_offset = 0;
};

Inputs MakeInputs(const Workload& w, uint64_t seed, bool smoke) {
  Rng rng(seed ^ 0x7463656c6c73ULL);
  Inputs in;
  in.fleet.num_tds = smoke ? w.num_tds / 10 : w.num_tds;
  in.fleet.num_groups = w.groups;
  in.fleet.group_skew = 0.8;
  in.fleet.rows_per_tds = w.rows_per_tds;
  in.fleet.seed = rng.Next();
  in.key_seed = rng.Next();
  in.authority_key = rng.NextBytes(16);
  in.engine_seed = rng.Next();
  const std::string select = "SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T";
  if (w.sql_variants <= 1) {
    in.sqls.push_back(select + " GROUP BY grp");
  } else {
    for (size_t k = 0; k < w.sql_variants; ++k) {
      in.sqls.push_back(select + " WHERE cat <> " + std::to_string(k) +
                        " GROUP BY grp");
    }
  }
  for (size_t i = 0; i < 8 * in.sqls.size(); ++i) {
    in.sql_order.push_back(i % in.sqls.size());
  }
  rng.Shuffle(&in.sql_order);
  in.rollover_offset = w.rollover_every ? rng.NextBelow(w.rollover_every) : 0;
  return in;
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One set-up: the fleet, the engine over it, and the oracle answers.
struct Bed {
  std::shared_ptr<const crypto::KeyStore> keys;
  std::shared_ptr<tds::Authority> authority;
  std::unique_ptr<protocol::Protocol> protocol;
  std::unique_ptr<protocol::Querier> querier;
  /// Declared after what its scheduler threads borrow, so it stops first.
  std::unique_ptr<Engine> engine;
  std::vector<sql::QueryResult> oracles;  ///< one per Inputs::sqls entry
  double fleet_build_s = 0;
  double engine_create_s = 0;
  double setup_s() const { return fleet_build_s + engine_create_s; }
};

Result<Bed> SetUp(const Workload& w, const Inputs& in, bool tracing) {
  Bed bed;
  const auto t0 = Clock::now();
  bed.keys = crypto::KeyStore::CreateForTest(in.key_seed);
  bed.authority = std::make_shared<tds::Authority>(in.authority_key);
  TCELLS_ASSIGN_OR_RETURN(
      std::unique_ptr<protocol::Fleet> fleet,
      workload::BuildGenericFleet(in.fleet, bed.keys, bed.authority,
                                  tds::AccessPolicy::AllowAll()));
  bed.fleet_build_s = SecondsSince(t0);

  Engine::Config cfg;
  cfg.options.compute_availability =
      std::min(1.0, kComputePoolTarget / static_cast<double>(fleet->size()));
  cfg.options.expected_groups = w.groups;
  cfg.options.num_threads = 1;
  cfg.options.seed = in.engine_seed;
  cfg.tracing = tracing;
  cfg.transport = w.transport;
  cfg.num_shards = w.shards;
  cfg.max_inflight_queries = std::min(w.clients, kMaxSlots);
  cfg.key_mode = w.key_mode;
  const auto t1 = Clock::now();
  TCELLS_ASSIGN_OR_RETURN(bed.engine, Engine::Create(std::move(fleet), cfg));
  bed.engine_create_s = SecondsSince(t1);

  bed.querier = std::make_unique<protocol::Querier>(
      "bench", bed.authority->Issue("bench"), bed.keys);
  if (w.c_noise) {
    auto domain = std::make_shared<std::vector<storage::Tuple>>();
    for (size_t g = 0; g < w.groups; ++g) {
      domain->push_back(
          storage::Tuple({storage::Value::String(workload::GroupName(g))}));
    }
    bed.protocol = std::make_unique<protocol::NoiseProtocol>(true, domain);
  } else {
    bed.protocol = std::make_unique<protocol::SAggProtocol>();
  }
  return bed;
}

/// The plaintext answers a set-up's queries are checked against.
Status AddOracles(const Inputs& in, Bed* bed) {
  for (const std::string& sql : in.sqls) {
    TCELLS_ASSIGN_OR_RETURN(
        sql::QueryResult oracle,
        protocol::ExecuteReference(bed->engine->fleet(), sql));
    bed->oracles.push_back(std::move(oracle));
  }
  return Status::OK();
}

/// Checks an outcome against the oracle.
bool Verify(const Result<protocol::RunOutcome>& outcome,
            const sql::QueryResult& oracle, uint64_t query_id) {
  if (!outcome.ok()) {
    std::fprintf(stderr, "query %llu failed: %s\n",
                 static_cast<unsigned long long>(query_id),
                 outcome.status().ToString().c_str());
    return false;
  }
  const protocol::RunMetrics& m = outcome->metrics;
  const bool same = outcome->result.SameRows(oracle);
  // A rejected contribution or a lost partition silently drops data; on an
  // honest, fault-free stack either is a failure even if the rows agree.
  if (same && m.contributions_rejected == 0 && m.partitions_lost == 0) {
    return true;
  }
  std::fprintf(stderr, "query %llu: oracle match %d, rejected %zu, lost %zu\n",
               static_cast<unsigned long long>(query_id), same ? 1 : 0,
               m.contributions_rejected, m.partitions_lost);
  return false;
}

/// What one verified query tells the benchmark.
struct QueryStats {
  double latency_ms = 0;
  /// Wall of the engine's trace root (RunAll); < 0 when untraced.
  double root_wall_ms = -1;
  double collection_ms = 0;
  double aggregation_ms = 0;
  double filtering_ms = 0;
  double decrypt_ms = 0;
  uint64_t ticks = 0;
  uint64_t rounds = 0;
  uint64_t rejected = 0;
  uint64_t p_tds = 0;
  uint64_t load_bytes = 0;
  uint64_t round_tuples = 0;
  uint64_t collected_items = 0;
};

QueryStats StatsOf(const protocol::RunOutcome& outcome, double latency_ms) {
  QueryStats st;
  st.latency_ms = latency_ms;
  const protocol::RunMetrics& m = outcome.metrics;
  st.collection_ms = m.collection_wall_micros / 1e3;
  st.aggregation_ms = m.aggregation_wall_micros / 1e3;
  st.filtering_ms = m.filtering_wall_micros / 1e3;
  st.ticks = m.collection_ticks;
  st.rounds = m.aggregation_rounds;
  st.rejected = m.contributions_rejected;
  st.p_tds = m.Ptds();
  st.load_bytes = m.LoadBytes();
  st.round_tuples = m.QueryPathTuples();
  st.collected_items =
      m.accountant.phase(sim::Phase::kCollection).tuples_processed;
  if (outcome.trace != nullptr) {
    st.root_wall_ms = outcome.trace->root()->wall_micros / 1e3;
    outcome.trace->ForEach([&](const obs::Span& span, int) {
      if (span.name == obs::kSpanDecrypt) {
        st.decrypt_ms += span.wall_micros / 1e3;
      }
    });
  }
  return st;
}

/// Per-query split of one traced query run through QuerySession + TimedSsi.
struct Split {
  double submit_ms = 0;
  double unattributed_ms = 0;
  double collection_local_ms = 0;
  double round_compute_ms = 0;
  double call_ms[kNumSsiCalls] = {};
  uint64_t call_count[kNumSsiCalls] = {};
  uint64_t call_bytes[kNumSsiCalls] = {};
  uint64_t net_calls = 0;
  uint64_t net_frames = 0;
  uint64_t net_bytes = 0;
  uint64_t net_retries = 0;
  uint64_t net_deadline_hits = 0;
  uint64_t net_stale_replies = 0;
  /// The paper's modelled T_local (average busy time per TDS).
  double tlocal_ms = 0;
  QueryStats stats;

  double Ms(SsiCall c) const { return call_ms[static_cast<size_t>(c)]; }
  uint64_t Count(SsiCall c) const {
    return call_count[static_cast<size_t>(c)];
  }
  uint64_t Bytes(SsiCall c) const {
    return call_bytes[static_cast<size_t>(c)];
  }
};

/// Result of one measured closed loop.
struct Loop {
  std::vector<QueryStats> queries;  ///< successful queries, completion order
  std::vector<Split> splits;        ///< split loops only
  double wall_s = 0;
  uint64_t net_bytes = 0;
  size_t posted = 0;

  std::vector<double> Latencies() const {
    std::vector<double> v;
    for (const QueryStats& q : queries) v.push_back(q.latency_ms);
    return v;
  }
};

class LoadGen {
 public:
  LoadGen(const Workload& w, const Inputs& in, SpanLog* log)
      : w_(w), in_(in), log_(log) {}

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

  /// Closed loop over Engine::Submit with `clients` clients issuing `count`
  /// queries in all (fewer only if `give_up_s` passes first); in-flight
  /// queries always complete.
  Loop EngineLoop(Bed& bed, size_t clients, size_t count, double give_up_s);
  /// Serial loop of `count` queries through a bench-owned QuerySession over
  /// TimedSsi, recording a per-query split of the wall time.
  Loop SplitLoop(Bed& bed, size_t count, double give_up_s);

 private:
  struct Client {
    QueryHandle handle;
    Clock::time_point t0;
    uint64_t query_id = 0;
    size_t sql = 0;
    bool busy = false;
  };

  uint64_t NextQuery(size_t* sql) {
    const uint64_t seq = next_seq_++;
    *sql = in_.sql_order[seq % in_.sql_order.size()];
    ++attempted_;
    return seq + 1;  // query ids are 1-based
  }
  bool RolloverDue(uint64_t query_id) const {
    return w_.rollover_every != 0 && query_id > 1 &&
           (query_id - 1 + in_.rollover_offset) % w_.rollover_every == 0;
  }
  /// Rolls the key epoch; a failure fails the run.
  void Rollover(Bed& bed, uint64_t query_id) {
    const uint64_t span = log_->Open(query_id, 0, "keys.rollover");
    Status s = bed.engine->RolloverEpoch();
    log_->Close(span);
    if (!s.ok()) {
      std::fprintf(stderr, "rollover failed: %s\n", s.ToString().c_str());
      ++failed_;
    }
  }
  uint64_t Counter(Bed& bed, const char* name) {
    return bed.engine->metrics().counter(name).value();
  }
  uint64_t NetBytes(Bed& bed) {
    return Counter(bed, "net.bytes_sent") + Counter(bed, "net.bytes_received");
  }

  const Workload& w_;
  const Inputs& in_;
  SpanLog* log_;
  uint64_t next_seq_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

Loop LoadGen::EngineLoop(Bed& bed, size_t clients, size_t count,
                        double give_up_s) {
  Loop loop;
  std::vector<Client> cs(clients);
  const uint64_t bytes0 = NetBytes(bed);
  const auto start = Clock::now();
  auto may_post = [&] {
    return loop.posted < count && SecondsSince(start) < give_up_s;
  };
  auto post = [&](Client& c) {
    c.query_id = NextQuery(&c.sql);
    ++loop.posted;
    c.t0 = Clock::now();
    Result<QueryHandle> handle = bed.engine->Submit(
        *bed.protocol, *bed.querier, c.query_id, in_.sqls[c.sql]);
    if (!handle.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   handle.status().ToString().c_str());
      ++failed_;
      return;
    }
    c.handle = *handle;
    c.busy = true;
    // Key-schedule writes run beside the query just submitted.
    if (RolloverDue(c.query_id)) Rollover(bed, c.query_id);
  };
  auto complete = [&](Client& c) {
    Result<protocol::RunOutcome> outcome = c.handle.Wait();
    const bool ok = Verify(outcome, bed.oracles[c.sql], c.query_id);
    const double latency_ms = MsBetween(c.t0, Clock::now());
    const auto dur_ns = static_cast<int64_t>(latency_ms * 1e6);
    log_->Add(c.query_id, 0, "query", log_->Now() - dur_ns, dur_ns);
    c.busy = false;
    c.handle = QueryHandle();
    if (ok) {
      loop.queries.push_back(StatsOf(*outcome, latency_ms));
    } else {
      ++failed_;
    }
  };
  for (;;) {
    for (Client& c : cs) {
      if (!c.busy && may_post()) post(c);
    }
    size_t in_flight = 0;
    bool progressed = false;
    for (Client& c : cs) {
      if (!c.busy) continue;
      if (c.handle.Finished()) {
        complete(c);
        progressed = true;
      } else {
        ++in_flight;
      }
    }
    if (in_flight == 0 && !progressed && !may_post()) break;
    if (!progressed) std::this_thread::sleep_for(kPollInterval);
  }
  loop.wall_s = SecondsSince(start);
  loop.net_bytes = NetBytes(bed) - bytes0;
  return loop;
}

Loop LoadGen::SplitLoop(Bed& bed, size_t count, double give_up_s) {
  Loop loop;
  Engine& engine = *bed.engine;
  TimedSsi timed(engine.ssi_client(), log_);
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  telemetry.metrics = &engine.metrics();
  telemetry.tracer = &tracer;
  const auto start = Clock::now();
  while (loop.posted < count && SecondsSince(start) < give_up_s) {
    size_t sql = 0;
    const uint64_t qid = NextQuery(&sql);
    ++loop.posted;
    // Serial here, so the rollover lands between queries (outside latency).
    if (RolloverDue(qid)) Rollover(bed, qid);

    const uint64_t calls0 = Counter(bed, "net.calls_sent");
    const uint64_t frames0 = Counter(bed, "net.frames_sent");
    const uint64_t bytes0 = NetBytes(bed);
    const uint64_t retries0 = Counter(bed, "net.retries");
    const uint64_t deadline_hits0 = Counter(bed, "net.deadline_hits");
    const uint64_t stale0 = Counter(bed, "net.stale_replies_dropped");

    const uint64_t root = log_->Open(qid, 0, "query");
    Result<protocol::RunOutcome> outcome = Status::Internal("not run");
    int64_t submit_ns = 0;
    uint64_t run = 0;
    {
      // Built and torn down inside the query, as the scheduler worker does.
      protocol::QuerySession session(&engine.fleet(), engine.device(),
                                     engine.options(), telemetry, &timed);
      const uint64_t submit = log_->Open(qid, root, "session.submit");
      log_->SetContext(qid, submit);
      Status submitted = session.Submit(qid, bed.querier.get(),
                                        bed.protocol.get(), in_.sqls[sql]);
      submit_ns = log_->Close(submit);
      if (!submitted.ok()) {
        outcome = submitted;
      } else {
        run = log_->Open(qid, root, "session.run_all");
        log_->SetContext(qid, run);
        Result<std::map<uint64_t, protocol::RunOutcome>> outcomes =
            session.RunAll();
        log_->Close(run);
        if (!outcomes.ok()) {
          outcome = outcomes.status();
          (void)engine.ssi_client()->Retire(qid);
        } else if (auto it = outcomes->find(qid); it != outcomes->end()) {
          outcome = std::move(it->second);
        } else {
          outcome = Status::Internal("query produced no outcome");
        }
      }
      log_->SetContext(0, 0);
    }
    const uint64_t verify = log_->Open(qid, root, "bench.verify");
    const bool ok = Verify(outcome, bed.oracles[sql], qid);
    log_->Close(verify);
    const double latency_ms = static_cast<double>(log_->Close(root)) / 1e6;
    if (!ok) {
      ++failed_;
      continue;
    }
    Split split;
    split.stats = StatsOf(*outcome, latency_ms);
    split.submit_ms = static_cast<double>(submit_ns) / 1e6;
    split.net_calls = Counter(bed, "net.calls_sent") - calls0;
    split.net_frames = Counter(bed, "net.frames_sent") - frames0;
    split.net_bytes = NetBytes(bed) - bytes0;
    split.net_retries = Counter(bed, "net.retries") - retries0;
    split.net_deadline_hits = Counter(bed, "net.deadline_hits") - deadline_hits0;
    split.net_stale_replies =
        Counter(bed, "net.stale_replies_dropped") - stale0;
    split.tlocal_ms = outcome->metrics.Tlocal(engine.device()) * 1e3;
    // Merge the engine's own spans; they carry a wall duration only.
    log_->Add(qid, run, obs::kSpanCollection, -1,
              static_cast<int64_t>(split.stats.collection_ms * 1e6));
    outcome->trace->ForEach([&](const obs::Span& span, int) {
      for (const char* name : {obs::kSpanAggregationRound,
                               obs::kSpanFilteringRound, obs::kSpanDecrypt}) {
        if (span.name == name) {
          log_->Add(qid, run, name, -1,
                    static_cast<int64_t>(span.wall_micros * 1e3));
        }
      }
    });
    const std::vector<SpanRecord> spans = log_->SpansOf(qid);
    // Every tick that serves a query starts its timer before probing the
    // window (SizeReached, NumAcknowledged) and ends with an upload batch.
    // Only the probes of the tick that finds every window closed, which come
    // after the last upload, fall outside the collection timer.
    int64_t last_upload_end = -1;
    for (const SpanRecord& span : spans) {
      if (span.call == static_cast<int>(SsiCall::kUploadCollection) ||
          span.call == static_cast<int>(SsiCall::kUploadCollectionBatch)) {
        last_upload_end = std::max(last_upload_end, span.start_ns + span.dur_ns);
      }
    }
    double probes_in_ticks_ms = 0;
    for (const SpanRecord& span : spans) {
      if (span.call < 0) continue;
      const double ms = static_cast<double>(span.dur_ns) / 1e6;
      split.call_ms[span.call] += ms;
      split.call_count[span.call] += 1;
      split.call_bytes[span.call] += span.bytes;
      if ((span.call == static_cast<int>(SsiCall::kSizeReached) ||
           span.call == static_cast<int>(SsiCall::kNumAcknowledged)) &&
          span.start_ns < last_upload_end) {
        probes_in_ticks_ms += ms;
      }
    }
    const QueryStats& st = split.stats;
    // SSI calls inside the collection ticks / the rounds; the TDS-side work
    // is the phase wall minus them.
    const double in_ticks =
        probes_in_ticks_ms + split.Ms(SsiCall::kFetchPosts) +
        split.Ms(SsiCall::kFetchPostsBatch) + split.Ms(SsiCall::kAcknowledge) +
        split.Ms(SsiCall::kUploadCollection) +
        split.Ms(SsiCall::kUploadCollectionBatch);
    const double in_rounds = split.Ms(SsiCall::kStagePartition) +
                             split.Ms(SsiCall::kFetchPartition) +
                             split.Ms(SsiCall::kUploadRoundOutput) +
                             split.Ms(SsiCall::kTakeRoundOutput);
    split.collection_local_ms = st.collection_ms - in_ticks;
    split.round_compute_ms = st.aggregation_ms + st.filtering_ms - in_rounds;
    // Calls RunAll makes outside its tick and round timers.
    const double outside =
        split.Ms(SsiCall::kSizeReached) + split.Ms(SsiCall::kNumAcknowledged) -
        probes_in_ticks_ms + split.Ms(SsiCall::kTakeCollected) +
        split.Ms(SsiCall::kObserveAggregation) +
        split.Ms(SsiCall::kObserveFiltering) +
        split.Ms(SsiCall::kDeliverResult) + split.Ms(SsiCall::kFetchResult) +
        split.Ms(SsiCall::kGetAdversaryView) + split.Ms(SsiCall::kRetire);
    split.unattributed_ms = latency_ms - split.submit_ms -
                            st.collection_ms - st.aggregation_ms -
                            st.filtering_ms - st.decrypt_ms - outside;
    loop.queries.push_back(split.stats);
    loop.splits.push_back(split);
  }
  loop.wall_s = SecondsSince(start);
  return loop;
}

/// Ordered name -> (value, unit) list printed as the result's "metrics".
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
      finite_ = false;
      value = 0;
    }
    rows_.push_back({name, value, unit});
  }
  bool finite() const { return finite_; }

  std::string Json() const {
    std::string out = "{";
    char buf[96];
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
      out += (i ? ", \"" : "\"") + rows_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

  void Print(FILE* f) const {
    for (const Row& r : rows_) {
      std::fprintf(f, "  %-32s %14.4f %s\n", r.name.c_str(), r.value, r.unit);
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
  bool finite_ = true;
};

template <typename F>
double MedianOf(const std::vector<Split>& splits, F&& f) {
  std::vector<double> v;
  for (const Split& s : splits) v.push_back(static_cast<double>(f(s)));
  return Median(std::move(v));
}

/// Queries measured for `share` of the run: 2 in smoke mode, otherwise
/// round(--seconds x share x nominal_qps) and at least kMinQueries.
size_t MeasuredQueries(const Args& args, double share) {
  if (args.smoke) return 2;
  const double n = args.seconds * share * args.workload->nominal_qps;
  return std::max(kMinQueries, static_cast<size_t>(std::lround(n)));
}

/// Sets up in a heap with no freed memory to reuse, as in a fresh process:
/// without the trim, a repetition's page faults (a large share of a small
/// set-up) would depend on what earlier repetitions left behind.
Result<Bed> ColdSetUp(const Workload& w, const Inputs& in, bool tracing) {
  malloc_trim(0);
  Result<Bed> bed = SetUp(w, in, tracing);
  if (!bed.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 bed.status().ToString().c_str());
  }
  return bed;
}

constexpr double kNoGiveUp = 1e9;

/// End-to-end metrics, tracing off: the set-up repetitions behind setup_s
/// (the last one is kept), the warm-up, then the measured queries from the
/// workload's own clients.
bool RunUntraced(const Args& args, const Inputs& in, LoadGen& load,
                 Report* report) {
  const Workload& w = *args.workload;
  std::vector<double> setups;
  Result<Bed> bed = Status::Internal("no set-up");
  while (setups.size() < kSetupReps) {
    bed = Status::Internal("released");  // frees the previous set-up first
    bed = ColdSetUp(w, in, /*tracing=*/false);
    if (!bed.ok()) return false;
    setups.push_back(bed->setup_s());
    std::fprintf(stderr, "set-up %zu: %.2f ms\n", setups.size(),
                 setups.back() * 1e3);
  }
  if (!AddOracles(in, &*bed).ok()) return false;
  load.EngineLoop(*bed, 1, kWarmupQueries, kNoGiveUp);
  const Loop loop = load.EngineLoop(
      *bed, w.clients, MeasuredQueries(args, 1.0), kGiveUpFactor * args.seconds);
  const double peak_rss_mb = PeakRssMb();
  if (loop.queries.empty()) return false;
  const double n = static_cast<double>(loop.queries.size());
  report->Add("latency_p50_ms", Median(loop.Latencies()), "ms");
  report->Add("throughput_qps", n / loop.wall_s, "1/s");
  report->Add("setup_s", Median(setups), "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  report->Add("ssi_wire_mb", static_cast<double>(loop.net_bytes) / n / 1e6,
              "MB");
  std::fprintf(stderr, "%zu measured queries in %.2f s, %zu set-ups\n",
               loop.queries.size(), loop.wall_s, setups.size());
  return true;
}

/// Per-layer metrics. Three phases, each measuring a third of the run's
/// queries:
///   U  tracing off, Engine::Submit, the workload's clients (the baseline
///      for the tracing overhead);
///   E  tracing on, Engine::Submit, the workload's clients (queue wait);
///   S  one client through QuerySession + TimedSsi (the per-query split).
bool RunTraced(const Args& args, const Inputs& in, LoadGen& load,
               Report* report) {
  const Workload& w = *args.workload;
  const size_t count = MeasuredQueries(args, 1.0 / 3);
  const double give_up = kGiveUpFactor * args.seconds / 3;
  std::vector<double> fleet_s, create_s;

  double untraced_p50 = 0;
  size_t untraced_count = 0;
  {
    Result<Bed> bed = ColdSetUp(w, in, /*tracing=*/false);
    if (!bed.ok() || !AddOracles(in, &*bed).ok()) return false;
    fleet_s.push_back(bed->fleet_build_s);
    create_s.push_back(bed->engine_create_s);
    load.EngineLoop(*bed, 1, kWarmupQueries, kNoGiveUp);
    Loop u = load.EngineLoop(*bed, w.clients, count, give_up);
    if (u.queries.empty()) return false;
    untraced_p50 = Median(u.Latencies());
    untraced_count = u.queries.size();
  }
  Result<Bed> bed = ColdSetUp(w, in, /*tracing=*/true);
  if (!bed.ok() || !AddOracles(in, &*bed).ok()) return false;
  fleet_s.push_back(bed->fleet_build_s);
  create_s.push_back(bed->engine_create_s);
  load.EngineLoop(*bed, 1, kWarmupQueries, kNoGiveUp);
  Loop e = load.EngineLoop(*bed, w.clients, count, give_up);
  Loop s = load.SplitLoop(*bed, count, give_up);
  if (e.queries.empty() || s.splits.empty()) return false;

  std::vector<double> waits;
  for (const QueryStats& q : e.queries) {
    waits.push_back(q.latency_ms - q.root_wall_ms);
  }
  report->Add("tcells.queue_wait_ms", Median(waits), "ms");
  report->Add("tcells.engine_create_s", Median(create_s), "s");
  report->Add("workload.fleet_build_s", Median(fleet_s), "s");

  // Everything below is a per-query median over phase S.
  const std::vector<Split>& sp = s.splits;
  auto per_query = [&](const char* name, const char* unit, auto f) {
    report->Add(name, MedianOf(sp, f), unit);
  };
  using Calls = std::initializer_list<SsiCall>;
  auto calls_ms = [&](const char* name, Calls cs) {
    per_query(name, "ms", [cs](const Split& x) {
      double t = 0;
      for (SsiCall c : cs) t += x.Ms(c);
      return t;
    });
  };
  auto calls_count = [&](const char* name, Calls cs) {
    per_query(name, "count", [cs](const Split& x) {
      uint64_t n = 0;
      for (SsiCall c : cs) n += x.Count(c);
      return n;
    });
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };

  per_query("protocol.submit_ms", "ms",
            [](const Split& x) { return x.submit_ms; });
  per_query("protocol.collection_ms", "ms",
            [](const Split& x) { return x.stats.collection_ms; });
  per_query("protocol.collection_ticks", "count",
            [](const Split& x) { return x.stats.ticks; });
  per_query("protocol.aggregation_ms", "ms",
            [](const Split& x) { return x.stats.aggregation_ms; });
  per_query("protocol.filtering_ms", "ms",
            [](const Split& x) { return x.stats.filtering_ms; });
  per_query("protocol.rounds", "count",
            [](const Split& x) { return x.stats.rounds; });
  per_query("protocol.decrypt_ms", "ms",
            [](const Split& x) { return x.stats.decrypt_ms; });
  per_query("protocol.contributions_rejected", "count",
            [](const Split& x) { return x.stats.rejected; });
  per_query("protocol.unattributed_ms", "ms",
            [](const Split& x) { return x.unattributed_ms; });
  per_query("protocol.unattributed_frac", "ratio", [&](const Split& x) {
    return ratio(x.unattributed_ms, x.stats.latency_ms);
  });
  per_query("tds.collection_local_ms", "ms",
            [](const Split& x) { return x.collection_local_ms; });
  per_query("tds.round_compute_ms", "ms",
            [](const Split& x) { return x.round_compute_ms; });
  per_query("tds.ns_per_tuple", "ns", [&](const Split& x) {
    return ratio(x.round_compute_ms * 1e6,
                 static_cast<double>(x.stats.round_tuples));
  });
  per_query("tds.items_per_query", "count",
            [](const Split& x) { return x.stats.collected_items; });
  calls_ms("ssi.fetch_posts.ms",
           {SsiCall::kFetchPosts, SsiCall::kFetchPostsBatch});
  calls_ms("ssi.upload_collection.ms",
           {SsiCall::kUploadCollection, SsiCall::kUploadCollectionBatch});
  const Calls control = {SsiCall::kSizeReached, SsiCall::kNumAcknowledged,
                         SsiCall::kAcknowledge};
  calls_ms("ssi.control.ms", control);
  calls_count("ssi.control.calls", control);
  calls_ms("ssi.take_collected.ms", {SsiCall::kTakeCollected});
  calls_ms("ssi.stage_partition.ms", {SsiCall::kStagePartition});
  calls_ms("ssi.fetch_partition.ms", {SsiCall::kFetchPartition});
  calls_ms("ssi.upload_round_output.ms", {SsiCall::kUploadRoundOutput});
  calls_ms("ssi.take_round_output.ms", {SsiCall::kTakeRoundOutput});
  calls_count("ssi.round.calls",
              {SsiCall::kStagePartition, SsiCall::kFetchPartition,
               SsiCall::kUploadRoundOutput, SsiCall::kTakeRoundOutput});
  calls_ms("ssi.observe.ms",
           {SsiCall::kObserveAggregation, SsiCall::kObserveFiltering});
  per_query("ssi.observe.mb", "MB", [](const Split& x) {
    return static_cast<double>(x.Bytes(SsiCall::kObserveAggregation) +
                               x.Bytes(SsiCall::kObserveFiltering)) /
           1e6;
  });
  calls_ms("ssi.result.ms", {SsiCall::kDeliverResult, SsiCall::kFetchResult});
  calls_ms("ssi.adversary_view.ms", {SsiCall::kGetAdversaryView});
  calls_ms("ssi.retire.ms", {SsiCall::kRetire});
  per_query("net.calls_per_query", "count",
            [](const Split& x) { return x.net_calls; });
  per_query("net.frames_per_query", "count",
            [](const Split& x) { return x.net_frames; });
  per_query("net.calls_per_frame", "ratio", [&](const Split& x) {
    return ratio(static_cast<double>(x.net_calls),
                 static_cast<double>(x.net_frames));
  });
  per_query("net.bytes_per_query", "MB", [](const Split& x) {
    return static_cast<double>(x.net_bytes) / 1e6;
  });
  per_query("net.retries", "count",
            [](const Split& x) { return x.net_retries; });
  per_query("net.deadline_hits", "count",
            [](const Split& x) { return x.net_deadline_hits; });
  per_query("net.stale_replies_dropped", "count",
            [](const Split& x) { return x.net_stale_replies; });
  per_query("sim.p_tds", "count", [](const Split& x) { return x.stats.p_tds; });
  per_query("sim.load_q_mb", "MB", [](const Split& x) {
    return static_cast<double>(x.stats.load_bytes) / 1e6;
  });
  per_query("sim.tlocal_ms", "ms", [](const Split& x) { return x.tlocal_ms; });
  report->Add("obs.trace_overhead_frac",
              Median(e.Latencies()) / untraced_p50 - 1.0, "ratio");

  // The split must account for each query's wall: every piece is a disjoint
  // interval of one serial query, so the residual can only be negative if a
  // piece was counted twice.
  bool consistent = true;
  for (const Split& x : sp) {
    if (x.unattributed_ms < -0.05) {
      std::fprintf(stderr, "query split over-counts by %.3f ms\n",
                   -x.unattributed_ms);
      consistent = false;
    }
  }
  std::fprintf(stderr,
               "phase U %zu queries, phase E %zu queries, phase S %zu "
               "queries\n",
               untraced_count, e.queries.size(), s.splits.size());
  return consistent;
}

const Workload* FindWorkload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

/// Whole-string numeric parse; garbage is an error, never a silent 0.
template <typename T>
bool ParseNumber(const char* s, T* out) {
  const char* end = s + std::strlen(s);
  auto [ptr, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && ptr == end && end != s;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      args->workload = FindWorkload(value);
      ok = args->workload != nullptr;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, &args->seed);
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, &args->seconds) && args->seconds > 0;
    } else if (flag == "--trace") {
      unsigned trace = 2;
      ok = ParseNumber(value, &trace) && trace <= 1;
      args->trace = trace == 1;
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (args->workload == nullptr) {
    std::fprintf(stderr, "--workload is required\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace tcells::bench

int main(int argc, char** argv) {
  using namespace tcells::bench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tcells_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--spans PATH]\n");
    return 2;
  }
  const Inputs in = MakeInputs(*args.workload, args.seed, args.smoke);
  SpanLog log;
  LoadGen load(*args.workload, in, &log);
  Report report;
  const bool ran = args.trace ? RunTraced(args, in, load, &report)
                              : RunUntraced(args, in, load, &report);
  if (!args.spans_path.empty() && !log.WriteJsonl(args.spans_path)) {
    std::fprintf(stderr, "could not write %s\n", args.spans_path.c_str());
  }
  report.Print(stderr);
  const bool correct = ran && report.finite() && load.failed() == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", load.attempted(), load.failed(),
      report.Json().c_str());
  return ran ? 0 : 1;
}
