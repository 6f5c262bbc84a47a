// Allocation-count regression tests for the per-tuple hot path (`ctest -L
// perf`). The TDS partition paths are arena/scratch-backed: once a thread's
// workspace has warmed on the first partition, opening + folding a
// steady-state partition must not allocate per input item. A global
// operator new hook counts allocations; the bounds below are far under one
// allocation per item (256-item partitions), so a reintroduced per-tuple
// `new` fails loudly (a TDS seals its outputs into one buffer per call). A
// matching delete hook gives live allocations, so a query-stream test can
// also pin that per-query state does not outlive its query. The SSI item
// path is pinned the same way: the node keeps item vectors as the bytes it
// validated, and the client's decoded items are views into the reply they
// came in, so a call costs a fixed number of buffers, not one or two per
// item.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "crypto/keystore.h"
#include "net/loopback.h"
#include "net/sharded_client.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "protocol/protocols.h"
#include "ssi/messages.h"
#include "storage/tuple.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "tds/tds.h"
#include "workload/generic.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_free_count{0};

}  // namespace

// Counting allocator hooks: every global allocation bumps one counter and
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
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept {
  if (p != nullptr) g_free_count.fetch_add(1, std::memory_order_relaxed);
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
  ASSERT_TRUE(server_->ProcessFiltering(query, partition, &rng_, config).ok());

  // Filtering re-encrypts every true tuple under k1, sealed into one output
  // buffer: a fixed budget. Measured: 265 allocations while each output
  // item owned its blob, 2 with the outputs sealed into one buffer.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessFiltering(query, partition, &rng_, config);
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
  // the projection evaluated on the stored row.
  const uint64_t allocs = CountAllocs([&] {
    auto out = server_->ProcessCollection(post, config, &rng_);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out.ValueOrDie().size(), 1u);
  });
  EXPECT_LE(allocs, 7u) << "collection tick re-analyzes or re-allocates "
                           "on the memo-hit path";
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

  // One request buffer, one frame each way, one stored copy and one reply:
  // a fixed budget however many items the vector holds.
  const uint64_t stage = CountAllocs([&] {
    ASSERT_TRUE(client.StagePartition(1, 1, partition).ok());
  });
  EXPECT_LE(stage, 32u) << "StagePartition allocates per item again";

  // The fetched items adopt the reply body as their shared buffer: a fixed
  // budget, not a buffer per blob and per tag. Measured: 534 allocations
  // while every item owned two buffers, 23 with items as views into the
  // reply.
  const uint64_t fetch = CountAllocs([&] {
    auto fetched = client.FetchPartition(1, 1);
    ASSERT_TRUE(fetched.ok());
    ASSERT_EQ(fetched->items.size(), kItems);
  });
  EXPECT_LE(fetch, 32u)
      << "FetchPartition allocates per item again: " << fetch;

  // The upload replaces the staged partition the TDS fetched above.
  const uint64_t upload = CountAllocs([&] {
    ASSERT_TRUE(client.UploadRoundOutput(1, 1, partition.items).ok());
  });
  EXPECT_LE(upload, 32u) << "UploadRoundOutput allocates per item again";

  // Taking the round output back adopts the reply body like the fetch.
  // Measured: 534 allocations at two buffers per item, 23 as
  // views.
  const uint64_t take = CountAllocs([&] {
    auto taken = client.TakeRoundOutput(1, 1);
    ASSERT_TRUE(taken.ok());
    ASSERT_EQ(taken->size(), kItems);
  });
  EXPECT_LE(take, 32u) << "TakeRoundOutput allocates per item again: "
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
  EXPECT_LE(allocs, 16 * kUploads)
      << "collection uploads allocate per item again: " << allocs << " for "
      << kUploads << " uploads";

  // Both batches' 2 x 64 x 16 items come back in one reply, and the taken
  // items adopt it: a fixed budget however many items were collected.
  // Measured: 4117 allocations at two buffers per item, 22 as views.
  const uint64_t take = CountAllocs([&] {
    auto taken = client.TakeCollected(1);
    ASSERT_TRUE(taken.ok());
    ASSERT_EQ(taken->size(), 2 * kUploads * kItemsPerUpload);
  });
  EXPECT_LE(take, 32u) << "TakeCollected allocates per item again: " << take;
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
  // The same per-upload budget as one node: the router's sub-batch copy adds
  // one item vector per upload, not a buffer per item. Measured:
  // 2843 allocations when each copied item owned two buffers, 795
  // with refcounted handles.
  EXPECT_LE(allocs, 16 * kUploads)
      << "sharded uploads copy items again: " << allocs << " for "
      << kUploads << " uploads";
}

}  // namespace
}  // namespace tcells::tds
