// Allocation-count regression tests for the per-tuple hot path (`ctest -L
// perf`). The TDS partition paths are arena/scratch-backed: once a thread's
// workspace has warmed on the first partition, opening + folding a
// steady-state partition must not allocate per input item. A global
// operator new hook counts allocations; the bounds below are far under one
// allocation per item (256-item partitions), so a reintroduced per-tuple
// `new` fails loudly (a TDS seals its outputs into one buffer per call). A
// matching delete hook gives live allocations, so a query-stream test can
// also pin that per-query state does not outlive its query. The SSI path
// is pinned the same way: a call is encoded into the request frame and
// answered in the reply frame, the node keeps item vectors as the bytes it
// validated, and the client's decoded items are views into the reply frame
// they came in, so a call costs a fixed handful of buffers, not one or two
// per item.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "crypto/keystore.h"
#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "net/loopback.h"
#include "net/sharded_client.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/ssi_wire.h"
#include "net/tcp.h"
#include "protocol/protocols.h"
#include "protocol/session.h"
#include "ssi/messages.h"
#include "storage/tuple.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/tds.h"
#include "workload/generic.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_free_count{0};
/// The largest single allocation since a test last reset it.
std::atomic<size_t> g_largest_alloc{0};
/// Bytes held by live allocations (malloc_usable_size, so the allocator's
/// rounding counts), and their high-water mark since a test last reset it.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

}  // namespace

// Counting allocator hooks: every global allocation bumps one counter (and
// the largest-allocation mark and the live-byte count with its peak) and
// every non-null delete the other. Kept trivial (malloc pass-through) so
// behaviour under sanitizers is unchanged apart from the counts. GCC's
// mismatched-new-delete analysis assumes the default allocator and flags
// the malloc/free pairing; with every form replaced below the pairing is
// matched by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  size_t largest = g_largest_alloc.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest_alloc.compare_exchange_weak(largest, size,
                                                std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size ? size : 1)) {
    const auto usable = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live =
        g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
    int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_live_bytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_free_count.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace tcells::tds {
namespace {

using ssi::EncryptedItem;
using ssi::PayloadKind;
using storage::Tuple;
using storage::Value;

uint64_t CountAllocs(const std::function<void()>& fn) {
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

/// Global allocations not yet freed (news - non-null deletes).
int64_t LiveAllocs() {
  return static_cast<int64_t>(g_alloc_count.load(std::memory_order_relaxed)) -
         static_cast<int64_t>(g_free_count.load(std::memory_order_relaxed));
}

class AllocRegressionTest : public ::testing::Test {
 protected:
  AllocRegressionTest()
      : keys_(crypto::KeyStore::CreateForTest(21)),
        authority_(std::make_shared<Authority>(Bytes(16, 1))),
        rng_(555) {
    server_ = std::make_unique<TrustedDataServer>(
        /*id=*/0, keys_, authority_, AccessPolicy::AllowAll());
    workload::GenericOptions opts;
    opts.num_groups = 4;
    Rng data_rng(9);
    EXPECT_TRUE(
        workload::PopulateGenericDb(&server_->db(), 0, opts, &data_rng).ok());
  }

  ssi::QueryPost Post(const std::string& sql) {
    ssi::QueryPost post;
    post.query_id = 1;
    Bytes sql_bytes(sql.begin(), sql.end());
    post.encrypted_query = keys_->k1_ndet().Encrypt(sql_bytes, &rng_);
    post.querier_id = "q";
    post.credential_mac = authority_->Issue("q");
    return post;
  }

  /// A partition of `n` sealed true-tuple items spread over 4 groups —
  /// the shape one aggregation round feeds a TDS.
  ssi::Partition TruePartition(size_t n) {
    ssi::Partition partition;
    partition.items.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Tuple t({Value::String(workload::GroupName(i % 4)),
               Value::Double(static_cast<double>(i))});
      Bytes payload = ssi::EncodePayload(PayloadKind::kTrueTuple, t.Encode());
      partition.items.emplace_back(keys_->k2_ndet().Encrypt(payload, &rng_));
    }
    return partition;
  }

  std::shared_ptr<const crypto::KeyStore> keys_;
  std::shared_ptr<Authority> authority_;
  Rng rng_;
  std::unique_ptr<TrustedDataServer> server_;
};

TEST_F(AllocRegressionTest, SteadyStateAggregationPartitionIsArenaBacked) {
  const size_t kItems = 256;
  const sql::AnalyzedQuery query =
      sql::AnalyzeSql("SELECT grp, AVG(val) FROM T GROUP BY grp",
                      server_->db().catalog())
          .ValueOrDie();
  ssi::Partition partition = TruePartition(kItems);

  // Warm-up: grows the thread workspace (arena chunk, plains vector, encode
  // scratch).
  CollectionConfig config;
  ASSERT_TRUE(server_
                  ->ProcessAggregationPartition(query, partition,
                                                OutputTagPolicy::kNone,
                                                config, &rng_)
                  .ok());

  // Steady state: decrypt + decode + accumulate 256 items, emit one sealed
  // partial. The budget covers the output item, the per-call
  // GroupedAggregation (4 groups x map nodes/states) and small-vector noise
  // — but at well under one allocation per input item, a per-tuple copy or
  // per-item buffer sneaking back into the path trips this immediately.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessAggregationPartition(
        query, partition, OutputTagPolicy::kNone, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), 1u);
  });
  EXPECT_LE(allocs, kItems / 2) << "per-item allocations are back in the "
                                   "aggregation hot path";
}

TEST_F(AllocRegressionTest, SteadyStateFilteringIsArenaBacked) {
  const size_t kItems = 256;
  const sql::AnalyzedQuery query =
      sql::AnalyzeSql("SELECT grp, val FROM T WHERE val >= 0.0",
                      server_->db().catalog())
          .ValueOrDie();
  ssi::Partition partition = TruePartition(kItems);

  CollectionConfig config;
  ASSERT_TRUE(server_->ProcessFiltering(query, partition, config, &rng_).ok());

  // Filtering re-encrypts every true tuple under k1, sealed into one output
  // buffer: a fixed budget. Measured: 265 allocations while each output
  // item owned its blob, 2 with the outputs sealed into one buffer.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessFiltering(query, partition, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), kItems);
  });
  EXPECT_LE(allocs, 32u)
      << "filtering output path allocates per item again: " << allocs;
}

TEST_F(AllocRegressionTest, SteadyStateCollectionTickIsBounded) {
  auto post = Post("SELECT grp, AVG(val) FROM T GROUP BY grp");
  CollectionConfig config;  // kNDet
  // Warm-up fills the fleet-wide analysis memo.
  ASSERT_TRUE(server_->ProcessCollection(post, config, &rng_).ok());

  // A steady-state collection tick on this TDS: decrypt the SQL, hit the
  // analysis memo, verify the credential, execute the 1-row local query,
  // seal one item. No re-lex, no re-analyze (the analyzer allocates
  // hundreds of AST nodes). The bound is the exact count: 15 while the memo
  // key was a catalog fingerprint string and the row was copied twice on
  // its way to the projection, 7 with the key on the interned catalog and
  // the projection evaluated on the stored row, 4 with the SQL decrypted
  // into the thread workspace and the credential's expected MAC on the
  // stack.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessCollection(post, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), 1u);
  });
  EXPECT_LE(allocs, 4u) << "collection tick re-analyzes or re-allocates "
                           "on the memo-hit path: " << allocs;
}

TEST_F(AllocRegressionTest, SteadyStateCNoiseServeOnlySeals) {
  // A cnoise_g32 serve: one 4-row TDS over a 32-value domain seals its 4
  // true tuples and 4 x 31 fakes. The fake payloads and Det tags come from
  // the fleet-shared templates, and the true tuples' group keys and tags are
  // built in the thread workspace, so a memo-hit serve allocates a fixed
  // handful, not per item.
  TrustedDataServer server(/*id=*/1, keys_, authority_,
                           AccessPolicy::AllowAll());
  workload::GenericOptions opts;
  opts.num_groups = 32;
  opts.rows_per_tds = 4;
  Rng data_rng(9);
  ASSERT_TRUE(
      workload::PopulateGenericDb(&server.db(), 1, opts, &data_rng).ok());
  auto domain = std::make_shared<std::vector<Tuple>>();
  for (size_t g = 0; g < opts.num_groups; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  CollectionConfig config;
  config.mode = CollectionMode::kDetTag;
  config.noise.complementary = true;
  config.noise.group_domain = domain;
  auto post = Post("SELECT grp, COUNT(*), SUM(cat), AVG(val) FROM T "
                   "GROUP BY grp");
  // Warm-up fills the analysis and template memos and the thread workspace.
  ASSERT_TRUE(server.ProcessCollection(post, config, &rng_).ok());

  // The bound is the exact count: 526 while every serve rebuilt the 32 fake
  // payloads and tags and allocated each true tuple's key and tag, 12 with
  // the templates shared and the keys in the workspace, 9 with the SQL
  // decrypted into the workspace and the credential checked on the stack.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server.ProcessCollection(post, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), 4u * 32u);
  });
  EXPECT_LE(allocs, 9u) << "a C_Noise serve builds fakes or keys again: "
                        << allocs;
}

TEST(QueryStateTest, PerQueryHeapStateIsFlat) {
  // A query leaves nothing behind once it completes: not in the TDSs (which
  // keep no per-query state), not in the SSI stack, not in the engine. Live
  // heap allocations over 50 queries from a warmed engine must stay flat —
  // a per-TDS structure that grows per query would add >= 500 x 50 here.
  constexpr size_t kFleet = 500;
  workload::GenericOptions gopts;
  gopts.num_tds = kFleet;
  gopts.num_groups = 4;
  gopts.seed = 5;
  auto keys = crypto::KeyStore::CreateForTest(gopts.seed);
  auto authority = std::make_shared<Authority>(Bytes(16, 0x33));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           AccessPolicy::AllowAll())
                   .ValueOrDie();
  Engine::Config cfg;
  cfg.tracing = false;
  cfg.max_inflight_queries = 1;
  cfg.options.compute_availability = 0.3;
  cfg.options.expected_groups = gopts.num_groups;
  cfg.options.num_threads = 1;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  protocol::Querier querier("q", authority->Issue("q"), keys);
  protocol::SAggProtocol sagg;
  const std::string sql = "SELECT grp, COUNT(*), SUM(cat) FROM T GROUP BY grp";

  // The last query's handle stays held across each snapshot, so its stored
  // outcome is live in both whichever thread drops the final reference; the
  // one worker has let go of every earlier job before it ran the last one.
  QueryHandle last;
  uint64_t query_id = 0;
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) {
      last = engine->Submit(sagg, querier, ++query_id, sql).ValueOrDie();
      ASSERT_TRUE(last.Wait().ok());
    }
  };
  run(5);
  const int64_t warmed = LiveAllocs();
  run(50);
  const int64_t growth = LiveAllocs() - warmed;
  EXPECT_LE(growth, static_cast<int64_t>(kFleet / 10))
      << "live allocations grew by " << growth << " over 50 queries";
}

/// Live allocations a warmed engine in dynamic key mode gains over 50
/// `protocol` queries, on the fleet and loop of PerQueryHeapStateIsFlat.
int64_t DynamicKeyHeapGrowth(protocol::Protocol& protocol, size_t fleet_size) {
  workload::GenericOptions gopts;
  gopts.num_tds = fleet_size;
  gopts.num_groups = 4;
  gopts.seed = 5;
  auto keys = crypto::KeyStore::CreateForTest(gopts.seed);
  auto authority = std::make_shared<Authority>(Bytes(16, 0x33));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           AccessPolicy::AllowAll());
  Engine::Config cfg;
  cfg.tracing = false;
  cfg.max_inflight_queries = 1;
  cfg.key_mode = KeyMode::kDynamic;
  cfg.options.compute_availability = 0.3;
  cfg.options.expected_groups = gopts.num_groups;
  cfg.options.num_threads = 1;
  auto engine = Engine::Create(std::move(fleet).ValueOrDie(), cfg).ValueOrDie();
  protocol::Querier querier("q", authority->Issue("q"), keys);
  const std::string sql = "SELECT grp, COUNT(*), SUM(cat) FROM T GROUP BY grp";
  QueryHandle last;  // held across both snapshots, as there
  int64_t warmed = 0;
  for (uint64_t query_id = 1; query_id <= 55; ++query_id) {
    if (query_id == 6) warmed = LiveAllocs();
    last = engine->Submit(protocol, querier, query_id, sql).ValueOrDie();
    EXPECT_TRUE(last.Wait().ok());
  }
  return LiveAllocs() - warmed;
}

TEST(QueryStateTest, DynamicKeySAggHeapStateIsFlat) {
  // A query's session keys must not outlive it either.
  constexpr size_t kFleet = 500;
  protocol::SAggProtocol sagg;
  EXPECT_LE(DynamicKeyHeapGrowth(sagg, kFleet),
            static_cast<int64_t>(kFleet / 10));
}

TEST(QueryStateTest, DynamicKeyCNoiseHeapStateIsFlat) {
  // Nor its fake templates, built under those keys.
  constexpr size_t kFleet = 500;
  auto domain = std::make_shared<std::vector<Tuple>>();
  for (size_t g = 0; g < 4; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  protocol::NoiseProtocol cnoise(/*complementary=*/true, domain);
  EXPECT_LE(DynamicKeyHeapGrowth(cnoise, kFleet),
            static_cast<int64_t>(kFleet / 10));
}

TEST(QueryStateTest, CollectionTransientMemoryIsSetByTheWave) {
  // A collection tick serves its connectors in waves of 4096 (session.cc)
  // and frees each wave's posts, serves and upload batch before the next, so
  // what a query holds beyond the fleet grows with the collected items, not
  // with everything the tick touched. Over 3 waves plus a remainder the peak
  // of live heap bytes during RunAll, above what was live before it, stays
  // under the bound per TDS. Measured: 1073 B per TDS while a tick held the
  // whole fleet's work at once, 485 B with waves.
  constexpr size_t kFleet = 3 * 4096 + 517;
  workload::GenericOptions gopts;
  gopts.num_tds = kFleet;
  gopts.num_groups = 8;
  gopts.rows_per_tds = 1;
  gopts.seed = 6;
  auto keys = crypto::KeyStore::CreateForTest(gopts.seed);
  auto authority = std::make_shared<Authority>(Bytes(16, 0x34));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           AccessPolicy::AllowAll())
                   .ValueOrDie();
  Engine::Config cfg;
  cfg.tracing = false;
  cfg.options.compute_availability = 200.0 / kFleet;
  cfg.options.expected_groups = gopts.num_groups;
  cfg.options.num_threads = 1;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  protocol::Querier querier("q", authority->Issue("q"), keys);
  protocol::SAggProtocol sagg;
  const std::string sql = "SELECT grp, COUNT(*), SUM(cat) FROM T GROUP BY grp";
  // Warm the SSI stack's pooled frames and the process-wide memos first.
  ASSERT_TRUE(engine->Run(sagg, querier, 1, sql).ok());

  protocol::QuerySession session(&engine->fleet(), engine->device(),
                                 engine->options(), {}, engine->ssi_client());
  ASSERT_TRUE(session.Submit(2, &querier, &sagg, sql).ok());
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(before, std::memory_order_relaxed);
  ASSERT_TRUE(session.RunAll().ok());
  const int64_t per_tds =
      (g_peak_live_bytes.load(std::memory_order_relaxed) - before) /
      static_cast<int64_t>(kFleet);
  EXPECT_LE(per_tds, 700) << "transient bytes per TDS: " << per_tds;
}

TEST(FleetFootprintTest, OneRowTdsHoldsItsRowsNotACopyOfTheCatalog) {
  // A TDS's table holds its rows and a pointer into the interned catalog,
  // which owns the table's name and schema once for the whole fleet. Live
  // heap bytes the build of a one-row fleet adds, per TDS, stay under the
  // bound. Measured: 632 B per TDS while every table kept its own name and
  // schema behind a unique_ptr, 392 B with the catalog's shared.
  constexpr size_t kFleet = 2000;
  workload::GenericOptions gopts;
  gopts.num_tds = kFleet;
  gopts.num_groups = 8;
  gopts.rows_per_tds = 1;
  gopts.seed = 7;
  auto keys = crypto::KeyStore::CreateForTest(gopts.seed);
  auto authority = std::make_shared<Authority>(Bytes(16, 0x35));
  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           AccessPolicy::AllowAll())
                   .ValueOrDie();
  const int64_t per_tds =
      (g_live_bytes.load(std::memory_order_relaxed) - before) /
      static_cast<int64_t>(kFleet);
  EXPECT_LE(per_tds, 450) << "live bytes per one-row TDS: " << per_tds;

  // Two same-shape databases return the one Schema object.
  EXPECT_EQ(&fleet->at(0)->db().GetTable("T").ValueOrDie()->schema(),
            &fleet->at(1)->db().GetTable("t").ValueOrDie()->schema());
}

// ---------------------------------------------------------------------------
// The SSI item path: SsiClient -> LoopbackTransport -> SsiNode.

/// `n` opaque items with 64-byte blobs, tagged with one of 4 routing tags
/// when `tagged` — the shape of a C_Noise collection or round partition.
std::vector<EncryptedItem> OpaqueItems(size_t n, bool tagged) {
  std::vector<EncryptedItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Bytes blob(64, static_cast<uint8_t>(i));
    if (tagged) {
      items.emplace_back(blob, Bytes(16, static_cast<uint8_t>(i % 4)));
    } else {
      items.emplace_back(blob);
    }
  }
  return items;
}

TEST(SsiItemPathTest, StageUploadAndFetchDoNotAllocatePerItemOnTheNode) {
  constexpr size_t kItems = 256;
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::SsiClient client(&transport);
  ssi::Partition partition;
  partition.items = OpaqueItems(kItems, /*tagged=*/true);
  // Warm-up: the query record and the pooled channel exist afterwards.
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.StagePartition(1, 0, partition).ok());
  ASSERT_TRUE(client.UploadRoundOutput(1, 0, partition.items).ok());

  // The request is encoded into the pooled request frame, the node writes
  // its reply frame in place and keeps one stored copy: a fixed budget
  // however many items the vector holds. Measured: 18 allocations while
  // each call was copied between frame and call buffers, 3 in place.
  const uint64_t stage = CountAllocs([&] {
    ASSERT_TRUE(client.StagePartition(1, 1, partition).ok());
  });
  EXPECT_LE(stage, 6u) << "StagePartition allocates per item again: "
                       << stage;

  // The fetched items adopt the reply frame as their shared buffer: a fixed
  // budget, not a buffer per blob and per tag. Measured: 534 allocations
  // while every item owned two buffers, 23 with items as views into a
  // copied reply body, 4 as views into the reply frame.
  const uint64_t fetch = CountAllocs([&] {
    auto fetched = client.FetchPartition(1, 1);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->items.size(), kItems);
  });
  EXPECT_LE(fetch, 8u)
      << "FetchPartition allocates per item again: " << fetch;

  // The upload replaces the staged partition the TDS fetched above.
  // Measured: 17 allocations with copied call buffers, 2 in place.
  const uint64_t upload = CountAllocs([&] {
    ASSERT_TRUE(client.UploadRoundOutput(1, 1, partition.items).ok());
  });
  EXPECT_LE(upload, 6u) << "UploadRoundOutput allocates per item again: "
                        << upload;

  // Taking the round output back adopts the reply frame like the fetch.
  // Measured: 534 allocations at two buffers per item, 23 as views into a
  // copied body, 4 as views into the frame.
  const uint64_t take = CountAllocs([&] {
    auto taken = client.TakeRoundOutput(1, 1);
    ASSERT_TRUE(taken.ok());
    ASSERT_EQ(taken->size(), kItems);
  });
  EXPECT_LE(take, 8u) << "TakeRoundOutput allocates per item again: "
                      << take;
}

TEST(SsiItemPathTest, CollectionUploadsCostAFixedBudgetPerUpload) {
  constexpr size_t kUploads = 64;
  constexpr size_t kItemsPerUpload = 16;
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  // Frames of the size an engine ships over loopback.
  net::BatchOptions batching;
  batching.max_calls_per_frame = Engine::kAutoBatchCallsLoopback;
  net::SsiClient client(&transport, net::RetryPolicy{}, nullptr, batching);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(client.PostGlobal(post).ok());
  auto batch_from = [&](uint64_t first_tds) {
    std::vector<net::CollectionUpload> batch(kUploads);
    for (size_t i = 0; i < kUploads; ++i) {
      batch[i].query_id = 1;
      batch[i].tds_id = first_tds + i;
      batch[i].items = OpaqueItems(kItemsPerUpload, /*tagged=*/true);
    }
    return batch;
  };
  // Warm-up: the view's 4 tag keys and the pooled channel exist afterwards.
  const std::vector<net::CollectionUpload> warm = batch_from(0);
  for (const Result<bool>& accepted : client.UploadCollectionBatch(warm)) {
    ASSERT_TRUE(accepted.ok() && *accepted);
  }

  const std::vector<net::CollectionUpload> batch = batch_from(kUploads);
  const uint64_t allocs = CountAllocs([&] {
    for (const Result<bool>& accepted : client.UploadCollectionBatch(batch)) {
      ASSERT_TRUE(accepted.ok() && *accepted);
    }
  });
  // Measured: 590 allocations while each call was copied between frame
  // and call buffers, 140 in place — about 2 per upload, the node's served
  // entry and its share of the stored collection's growth.
  EXPECT_LE(allocs, 3 * kUploads)
      << "collection uploads allocate per item again: " << allocs << " for "
      << kUploads << " uploads";

  // Both batches' 2 x 64 x 16 items come back in one reply, and the taken
  // items adopt it: a fixed budget however many items were collected.
  // Measured: 4117 allocations at two buffers per item, 22 as views into a
  // copied body, 4 as views into the reply frame.
  const uint64_t take = CountAllocs([&] {
    auto taken = client.TakeCollected(1);
    ASSERT_TRUE(taken.ok());
    ASSERT_EQ(taken->size(), 2 * kUploads * kItemsPerUpload);
  });
  EXPECT_LE(take, 8u) << "TakeCollected allocates per item again: " << take;
}

TEST(SsiItemPathTest, SingleCallsCostAFixedHandfulOfBuffers) {
  // A call lives in its frames: the request is encoded straight into the
  // outgoing frame, the node writes its envelope straight into the reply
  // frame, and the client reads the reply where it lies — the fetched items
  // adopt the reply frame.
  constexpr size_t kItems = 256;
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::SsiClient client(&transport);
  ssi::Partition partition;
  partition.items = OpaqueItems(kItems, /*tagged=*/true);
  ssi::QueryPost post;
  post.query_id = 1;
  // Warm-up: the query record, the served entry and the pooled channel
  // exist afterwards.
  ASSERT_TRUE(client.PostGlobal(post).ok());
  ASSERT_TRUE(client.Acknowledge(7, 1).ok());
  ASSERT_TRUE(client.StagePartition(1, 0, partition).ok());
  ASSERT_TRUE(client.FetchPartition(1, 0).ok());

  const uint64_t ack = CountAllocs([&] {
    ASSERT_TRUE(client.Acknowledge(7, 1).ok());
  });
  // Measured: 21 allocations while the call was copied between frame and
  // call buffers, 1 — the node's reply frame — in place.
  EXPECT_LE(ack, 3u) << "a single Acknowledge allocates " << ack;

  const uint64_t fetch = CountAllocs([&] {
    auto fetched = client.FetchPartition(1, 0);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->items.size(), kItems);
  });
  // Measured: 23 allocations with copied bodies, 4 in place — the reply
  // frame and its growth, its shared owner, and the item vector — and 3 once
  // the node sized the reply frame from the previous fetch.
  EXPECT_LE(fetch, 8u)
      << "a single 256-item FetchPartition allocates " << fetch;
}

TEST(SsiItemPathTest, FetchPostsBatchDecodesPostsInPlace) {
  // 64 TDSs fetch the querybox at 8 calls per frame; each sees one post.
  constexpr size_t kTds = 64;
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::BatchOptions batching;
  batching.max_calls_per_frame = Engine::kAutoBatchCallsLoopback;
  net::SsiClient client(&transport, net::RetryPolicy{}, nullptr, batching);
  ssi::QueryPost post;
  post.query_id = 1;
  post.encrypted_query = Bytes(96, 0x51);
  post.querier_id = "querier";
  post.credential_mac = Bytes(32, 0xC1);
  ASSERT_TRUE(client.PostGlobal(post).ok());
  std::vector<uint64_t> ids(kTds);
  for (size_t i = 0; i < kTds; ++i) ids[i] = i;
  ASSERT_EQ(client.FetchPostsBatch(ids).size(), kTds);  // warm-up

  const uint64_t allocs = CountAllocs([&] {
    auto posts = client.FetchPostsBatch(ids);
    ASSERT_EQ(posts.size(), kTds);
    for (const auto& fetched : posts) {
      ASSERT_TRUE(fetched.ok());
      ASSERT_EQ(fetched->size(), 1u);
    }
  });
  // What remains is the returned values: per TDS its post vector and the
  // post's two byte strings, plus one reply frame per 8-call frame.
  // Measured: 1291 allocations while each post was copied out of a copied
  // body, 201 decoded in place.
  EXPECT_LE(allocs, 3 * kTds + 16)
      << "FetchPostsBatch of " << kTds << " TDSs allocates " << allocs;
}

TEST(SsiItemPathTest, NodeWritesEachReplyFrameIntoOneBuffer) {
  // Over TCP the engine ships 64 calls per frame: a querybox fetch for 64
  // TDSs that each see one post is a reply frame of about 13 KB. The node
  // reserves each reply frame at the size of the last one led by the same
  // message type, so once warm a frame costs it one buffer, the reply.
  constexpr size_t kTds = Engine::kAutoBatchCallsTcp;
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::SsiClient client(&transport);
  ssi::QueryPost post;
  post.query_id = 1;
  post.encrypted_query = Bytes(96, 0x51);
  post.querier_id = "querier";
  post.credential_mac = Bytes(32, 0xC1);
  ASSERT_TRUE(client.PostGlobal(post).ok());
  Bytes request;
  net::BatchFrameWriter writer(&request);
  for (uint64_t tds = 0; tds < kTds; ++tds) {
    writer.Open(tds);
    ByteWriter w(&request);
    w.PutU8(static_cast<uint8_t>(net::MsgType::kFetchPosts));
    w.PutU64(tds);
    writer.Close();
  }
  writer.Finish();
  auto warm = node.Handle(request);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm->size(), 8192u);

  const uint64_t allocs = CountAllocs([&] {
    auto reply = node.Handle(request);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->size(), warm->size());
  });
  // Measured: 4 with a fixed 2 KiB reserve that grew three times, 1 sized
  // from the previous frame.
  EXPECT_EQ(allocs, 1u) << "a 64-call querybox reply frame allocates "
                        << allocs << " times on the node";
}

/// An SsiClient that remembers where the items of every upload it ships
/// live, so a test can tell a copy of an item's bytes from a shared handle.
class RecordingClient : public net::SsiClient {
 public:
  using net::SsiClient::SsiClient;

  std::vector<Result<bool>> UploadCollectionBatch(
      const std::vector<net::CollectionUpload>& uploads) override {
    for (const net::CollectionUpload& u : uploads) {
      for (const EncryptedItem& item : u.items) {
        received.push_back(item.encoding().data());
      }
    }
    return net::SsiClient::UploadCollectionBatch(uploads);
  }

  std::vector<const uint8_t*> received;
};

TEST(SsiItemPathTest, ShardedUploadSubBatchesShareItemBytes) {
  constexpr size_t kShards = 4;
  constexpr size_t kUploads = 64;
  constexpr size_t kItemsPerUpload = 16;
  std::vector<std::unique_ptr<net::SsiNode>> nodes;
  std::vector<std::unique_ptr<net::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<RecordingClient>> clients;
  std::vector<net::SsiApi*> shards;
  net::BatchOptions batching;
  batching.max_calls_per_frame = Engine::kAutoBatchCallsLoopback;
  for (size_t s = 0; s < kShards; ++s) {
    nodes.push_back(std::make_unique<net::SsiNode>());
    transports.push_back(
        std::make_unique<net::LoopbackTransport>(nodes.back()->handler()));
    clients.push_back(std::make_unique<RecordingClient>(
        transports.back().get(), net::RetryPolicy{}, nullptr, batching));
    shards.push_back(clients.back().get());
  }
  net::ShardedSsiClient router(shards);
  ssi::QueryPost post;
  post.query_id = 1;
  ASSERT_TRUE(router.PostGlobal(post).ok());
  auto batch_from = [&](uint64_t first_tds) {
    std::vector<net::CollectionUpload> batch(kUploads);
    for (size_t i = 0; i < kUploads; ++i) {
      batch[i].query_id = 1;
      batch[i].tds_id = first_tds + i;
      batch[i].items = OpaqueItems(kItemsPerUpload, /*tagged=*/true);
    }
    return batch;
  };
  // Warm-up: every shard's pooled channel and tag keys exist afterwards.
  for (const Result<bool>& accepted :
       router.UploadCollectionBatch(batch_from(0))) {
    ASSERT_TRUE(accepted.ok() && *accepted);
  }
  for (auto& client : clients) client->received.clear();

  const std::vector<net::CollectionUpload> batch = batch_from(kUploads);
  const uint64_t allocs = CountAllocs([&] {
    for (const Result<bool>& accepted : router.UploadCollectionBatch(batch)) {
      ASSERT_TRUE(accepted.ok() && *accepted);
    }
  });
  // The per-shard sub-batches hold handles on the caller's items: every item
  // a shard ships is the caller's own bytes, not a copy of them.
  std::set<const uint8_t*> sent;
  for (const net::CollectionUpload& u : batch) {
    for (const EncryptedItem& item : u.items) {
      sent.insert(item.encoding().data());
    }
  }
  size_t received = 0;
  for (const auto& client : clients) {
    received += client->received.size();
    for (const uint8_t* bytes : client->received) {
      EXPECT_TRUE(sent.count(bytes)) << "a shard shipped a copied item";
    }
  }
  EXPECT_EQ(received, kUploads * kItemsPerUpload);
  // The router's sub-batch copy adds one item vector per upload, not a
  // buffer per item. Measured: 2843 allocations when each copied item owned
  // two buffers, 795 with refcounted handles, 249 with the calls in place
  // and no Unavailable message built per slot, 252 with each shard node's
  // first reply frame reserved small instead of at a fixed 2 KiB.
  EXPECT_LE(allocs, 5 * kUploads)
      << "sharded uploads copy items again: " << allocs << " for "
      << kUploads << " uploads";
}

TEST(KeyPathTest, TagAndAdmissionCheckCostOneBufferEach) {
  // A TDS tags under the contribution key state it built at Adopt, and the
  // authority checks under the epoch secret's state it built at the
  // rollover: the MAC input is laid out on the stack, so a tag costs its
  // MAC's buffer and a check the derived key's.
  auto authority =
      keys::KeyAuthority::Create(Bytes(16, 0x42), 64, 3).ValueOrDie();
  keys::TdsKeyState state(5, authority->EnrollDevice(5).ValueOrDie(),
                          /*source=*/nullptr);
  ASSERT_TRUE(state.Adopt(authority->CurrentBlock()).ok());
  const Bytes digest(32, 0x77);
  auto tag = state.Tag(11, digest);
  ASSERT_TRUE(tag.ok());

  const uint64_t tag_allocs = CountAllocs([&] {
    auto again = state.Tag(11, digest);
    ASSERT_TRUE(again.ok());
  });
  // Measured: 4 with the MAC input assembled in a growing heap buffer.
  EXPECT_LE(tag_allocs, 1u) << "one Tag allocates " << tag_allocs;

  const uint64_t verify_allocs = CountAllocs([&] {
    ASSERT_TRUE(authority->VerifyContribution(*tag, 11, digest).ok());
  });
  // Measured: 6 with the epoch secret copied, and the derived key, the MAC
  // input and the expected MAC in heap buffers, per check.
  EXPECT_LE(verify_allocs, 1u)
      << "one VerifyContribution allocates " << verify_allocs;
}

TEST(TcpTest, BareHeaderAllocatesWithinTheBufferCap) {
  // A peer announces a legal 1 MiB frame and sends its header and 100
  // bytes: the server's receive buffer for it stays within the receive cap,
  // not the announced length.
  constexpr size_t kCap = 4096;
  net::TcpServer server;
  server.set_buffer_caps(/*max_in=*/kCap, /*max_out_backlog=*/kCap);
  ASSERT_TRUE(server.Start([](const Bytes& req) -> Result<Bytes> {
                return req;
              }).ok());
  net::TcpTransport transport("127.0.0.1", server.port());
  auto channel = transport.Connect();
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call(Bytes(16, 1), net::CallOptions{}).ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  g_largest_alloc.store(0);
  Bytes wire;
  ByteWriter(&wire).PutU32(1u << 20);
  wire.resize(4 + 100, 0x5A);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  // The bytes above were ready before either call below was sent, so the
  // server's loop has read them by the time it answers the second call.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE((*channel)->Call(Bytes(16, 1), net::CallOptions{}).ok());
  }
  EXPECT_LE(g_largest_alloc.load(), kCap)
      << "a bare 1 MiB header made the server allocate "
      << g_largest_alloc.load() << " bytes";
  ::close(fd);
}

}  // namespace
}  // namespace tcells::tds
