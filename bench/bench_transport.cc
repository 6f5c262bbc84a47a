// Loopback-vs-TCP transport throughput harness: times framed request/reply
// round trips through both Channel backends at several payload sizes (the
// codec-only floor vs real socket syscalls), the SSI call path (a call that
// carries no items, alone and in an 8-call frame, in ns and heap allocations
// per call), the SSI item path (item vectors through SsiClient + SsiNode over
// loopback, in ns and heap allocations per item), plus one end-to-end S_Agg
// query per backend, and writes the results to BENCH_transport.json (or
// argv[1]).
//
// Timing is hand-rolled (steady_clock, calibrated batch loops) so the target
// stays dependency-light and emits machine-readable JSON directly.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "net/faulty.h"
#include "net/loopback.h"
#include "net/ssi_client.h"
#include "net/ssi_wire.h"
#include "net/ssi_node.h"
#include "net/tcp.h"
#include "protocol/protocols.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

// Counting allocator hooks for the item-path rows' allocations per item: a
// relaxed increment on top of malloc, paid by every row alike. GCC's
// mismatched-new-delete analysis assumes the default allocator; with every
// form replaced below the malloc/free pairing is matched by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tcells {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  std::string name;
  std::string transport;
  size_t bytes_per_op = 0;
  double ns_per_op = 0;
  double ops_per_sec = 0;
  double mb_per_sec = 0;
};

/// Round-trip `payload` through `channel` in calibrated batches until the
/// sample window exceeds ~80 ms, then report the per-op cost. One op moves
/// the payload out and back, so bytes_per_op counts both directions.
Row MeasureRoundTrip(const std::string& size_name,
                     const std::string& transport_name, net::Channel* channel,
                     const Bytes& payload) {
  net::CallOptions opts;
  opts.deadline_seconds = 30.0;
  for (int i = 0; i < 3; ++i) {
    (void)channel->Call(payload, opts).ValueOrDie();
  }
  size_t batch = 1;
  double elapsed = 0;
  size_t total_ops = 0;
  double start = NowSeconds();
  while (elapsed < 0.08) {
    for (size_t i = 0; i < batch; ++i) {
      (void)channel->Call(payload, opts).ValueOrDie();
    }
    total_ops += batch;
    batch *= 2;
    elapsed = NowSeconds() - start;
  }
  Row row;
  row.name = "roundtrip_" + size_name;
  row.transport = transport_name;
  row.bytes_per_op = 2 * payload.size();
  row.ns_per_op = elapsed / static_cast<double>(total_ops) * 1e9;
  row.ops_per_sec = static_cast<double>(total_ops) / elapsed;
  row.mb_per_sec = static_cast<double>(row.bytes_per_op) *
                   static_cast<double>(total_ops) / elapsed / (1024 * 1024);
  return row;
}

/// Calls-per-frame sweep: drives the SsiClient against a batch-aware echo
/// handler, issuing `kWindow` logical calls per iteration either as one
/// Exchange (frames of up to `calls_per_frame` calls, sent back to back) or
/// serialized (one Exchange per call — every call pays a full round trip).
/// The per-call cost isolates the physical-frame tax the batch envelope
/// amortizes.
Row MeasureBatchSweep(const std::string& transport_name,
                      net::Transport* transport, size_t calls_per_frame,
                      bool batched, const Bytes& payload) {
  constexpr size_t kWindow = 256;
  net::BatchOptions batch;
  batch.max_calls_per_frame = calls_per_frame;
  net::RetryPolicy policy;
  policy.deadline_seconds = 30.0;
  net::SsiClient client(transport, policy, /*metrics=*/nullptr, batch);

  auto run_window = [&]() {
    if (batched) {
      for (const Result<Bytes>& reply :
           client.Exchange(std::vector<Bytes>(kWindow, payload))) {
        (void)reply.ValueOrDie();
      }
    } else {
      for (size_t i = 0; i < kWindow; ++i) {
        (void)client.Exchange({payload}).front().ValueOrDie();
      }
    }
  };

  run_window();  // Warm-up: dial channels, fault any lazy setup.
  size_t batches = 1;
  size_t total_calls = 0;
  double elapsed = 0;
  double start = NowSeconds();
  while (elapsed < 0.08) {
    for (size_t i = 0; i < batches; ++i) run_window();
    total_calls += batches * kWindow;
    batches *= 2;
    elapsed = NowSeconds() - start;
  }
  Row row;
  row.name = std::string("batch_64B_") + (batched ? "exchange" : "serialized") +
             "_c" + std::to_string(calls_per_frame);
  row.transport = transport_name;
  row.bytes_per_op = 2 * payload.size();
  row.ns_per_op = elapsed / static_cast<double>(total_calls) * 1e9;
  row.ops_per_sec = static_cast<double>(total_calls) / elapsed;
  row.mb_per_sec = static_cast<double>(row.bytes_per_op) *
                   static_cast<double>(total_calls) / elapsed / (1024 * 1024);
  return row;
}

/// One SSI path arm: calls or item vectors through SsiClient -> loopback ->
/// SsiNode and back, per call or item moved.
struct ItemRow {
  std::string name;
  size_t items_per_op = 0;
  double ns_per_item = 0;
  double allocs_per_item = 0;
};

/// `n` opaque items with 64-byte blobs and one of 4 16-byte routing tags: the
/// shape of a C_Noise collection or round partition.
std::vector<ssi::EncryptedItem> OpaqueItems(size_t n) {
  std::vector<ssi::EncryptedItem> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    items.emplace_back(Bytes(64, static_cast<uint8_t>(i)),
                       Bytes(16, static_cast<uint8_t>(i % 4)));
  }
  return items;
}

/// Runs `op` (which moves `items_per_op` items) until the sample window
/// exceeds ~80 ms, after one warm-up op.
ItemRow MeasureItems(const std::string& name, size_t items_per_op,
                     const std::function<void()>& op) {
  op();
  const uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  const double start = NowSeconds();
  uint64_t ops = 0;
  double elapsed = 0;
  while (elapsed < 0.08) {
    op();
    ++ops;
    elapsed = NowSeconds() - start;
  }
  const double items = static_cast<double>(ops * items_per_op);
  ItemRow row;
  row.name = name;
  row.items_per_op = items_per_op;
  row.ns_per_item = elapsed / items * 1e9;
  row.allocs_per_item =
      static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) -
                          allocs_before) /
      items;
  return row;
}

std::vector<ItemRow> MeasureItemPath() {
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::BatchOptions batching;
  batching.max_calls_per_frame = Engine::kAutoBatchCallsLoopback;
  net::SsiClient client(&transport, net::RetryPolicy{}, nullptr, batching);
  std::vector<ItemRow> rows;

  // A round's partition: staged by the querier side, fetched by a TDS.
  ssi::QueryPost round_post;
  round_post.query_id = 1;
  if (!client.PostGlobal(round_post).ok()) std::abort();
  ssi::Partition partition;
  partition.items = OpaqueItems(256);
  rows.push_back(MeasureItems("ssi_items_stage_fetch_256", 256, [&] {
    if (!client.StagePartition(1, 0, partition).ok() ||
        !client.FetchPartition(1, 0).ok()) {
      std::abort();
    }
  }));

  // A collection: 64 TDS uploads of 16 items each, then the take.
  std::vector<net::CollectionUpload> uploads(64);
  for (size_t i = 0; i < uploads.size(); ++i) {
    uploads[i].tds_id = i;
    uploads[i].items = OpaqueItems(16);
  }
  uint64_t query_id = 100;
  rows.push_back(MeasureItems("ssi_items_upload_take_1024", 1024, [&] {
    ssi::QueryPost post;
    post.query_id = ++query_id;
    for (net::CollectionUpload& u : uploads) u.query_id = post.query_id;
    if (!client.PostGlobal(post).ok()) std::abort();
    for (const Result<bool>& accepted : client.UploadCollectionBatch(uploads)) {
      if (!accepted.ok() || !*accepted) std::abort();
    }
    if (!client.TakeCollected(post.query_id).ok() ||
        !client.Retire(post.query_id).ok()) {
      std::abort();
    }
  }));
  return rows;
}

/// The SSI call path without items: kFetchPosts against an empty querybox,
/// SsiClient -> loopback -> SsiNode, one call per frame or 8 per frame (the
/// engine's loopback batch size). What a call costs here is the transport's
/// own: encoding, framing, dispatch and reply matching.
std::vector<ItemRow> MeasureCallPath() {
  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  net::BatchOptions batching;
  batching.max_calls_per_frame = Engine::kAutoBatchCallsLoopback;
  net::SsiClient client(&transport, net::RetryPolicy{}, nullptr, batching);
  std::vector<ItemRow> rows;
  rows.push_back(MeasureItems("ssi_call_single", 1, [&] {
    if (!client.FetchPosts(7).ok()) std::abort();
  }));
  const std::vector<uint64_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  rows.push_back(MeasureItems("ssi_call_frame8", ids.size(), [&] {
    for (const auto& posts : client.FetchPostsBatch(ids)) {
      if (!posts.ok()) std::abort();
    }
  }));
  return rows;
}

/// One S_Agg query over a 600-TDS fleet through the given transport and batch
/// setting; reports wall time of the best of three runs plus the run's own
/// frame telemetry. 600 TDSes is the scale point the ISSUE acceptance pins
/// (TCP within ~2x of loopback once batching amortizes the per-frame tax).
struct E2eRow {
  std::string transport;
  size_t batch_max_calls = 1;
  double best_ms = 0;
  uint64_t frames_sent = 0;
  uint64_t bytes_sent = 0;
};

E2eRow MeasureE2e(net::TransportKind transport_kind, size_t batch_max_calls) {
  workload::GenericOptions gopts;
  gopts.num_tds = 600;
  gopts.num_groups = 4;
  gopts.rows_per_tds = 2;
  gopts.seed = 77;
  auto keys = crypto::KeyStore::CreateForTest(2026);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x77));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  protocol::Querier querier("bench", authority->Issue("bench"), keys);
  protocol::SAggProtocol protocol;
  protocol::RunOptions opts;
  opts.expected_groups = gopts.num_groups;
  opts.seed = 7;

  E2eRow row;
  row.transport = net::TransportKindToString(transport_kind);
  row.batch_max_calls = batch_max_calls;
  row.best_ms = 1e18;
  const char* sql = "SELECT grp, COUNT(*), AVG(val) FROM T GROUP BY grp";
  Engine::Config cfg;
  cfg.options = opts;
  cfg.transport = transport_kind;
  cfg.transport_batch_max_calls = batch_max_calls;
  auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();
  for (int rep = 0; rep < 3; ++rep) {
    auto before = engine->metrics().snapshot().counters;
    double start = NowSeconds();
    (void)engine->Run(protocol, querier, 1, sql).ValueOrDie();
    double ms = (NowSeconds() - start) * 1e3;
    if (ms < row.best_ms) row.best_ms = ms;
    // Engine metrics accumulate across reps; report this rep's delta.
    auto counters = engine->metrics().snapshot().counters;
    auto delta = [&](const char* key) -> uint64_t {
      uint64_t now = counters.count(key) ? counters.at(key) : 0;
      uint64_t was = before.count(key) ? before.at(key) : 0;
      return now - was;
    };
    row.frames_sent = delta("net.frames_sent");
    row.bytes_sent = delta("net.bytes_sent");
  }
  return row;
}

int Run(const std::string& out_path) {
  // Echo handler: isolates the transport + frame codec from any SSI work.
  net::Handler echo = [](const Bytes& request) -> Result<Bytes> {
    return request;
  };

  const std::map<std::string, size_t> sizes = {
      {"64B", 64}, {"64KB", 64u << 10}, {"1MB", 1u << 20}};

  std::vector<Row> rows;
  {
    net::LoopbackTransport transport(echo);
    auto channel = transport.Connect().ValueOrDie();
    for (const auto& [size_name, n] : sizes) {
      rows.push_back(
          MeasureRoundTrip(size_name, "loopback", channel.get(), Bytes(n, 0x5A)));
    }
  }
  {
    // Fault-injection decorator in passthrough mode (an empty plan injects
    // nothing): isolates the per-call overhead of the determinism machinery —
    // key extraction, decision hashing, history bookkeeping — that every
    // campaign call pays on top of the inner backend.
    net::LoopbackTransport inner(echo);
    net::FaultyTransport transport(&inner, net::FaultPlan{});
    auto channel = transport.Connect().ValueOrDie();
    for (const auto& [size_name, n] : sizes) {
      rows.push_back(MeasureRoundTrip(size_name, "faulty_passthrough",
                                      channel.get(), Bytes(n, 0x5A)));
    }
  }
  {
    net::TcpServer server;
    Status started = server.Start(echo);
    if (!started.ok()) {
      std::fprintf(stderr, "bench_transport: %s\n", started.ToString().c_str());
      return 1;
    }
    net::TcpTransport transport("127.0.0.1", server.port());
    auto channel = transport.Connect().ValueOrDie();
    for (const auto& [size_name, n] : sizes) {
      rows.push_back(
          MeasureRoundTrip(size_name, "tcp", channel.get(), Bytes(n, 0x5A)));
    }
  }

  // Calls-per-frame sweep: the batch-aware echo unwraps each logical call
  // and answers it with an OK envelope, so the client's correlation/decode
  // path runs for real while the handler itself stays O(bytes).
  net::Handler batch_echo = [](const Bytes& request) -> Result<Bytes> {
    auto calls = net::BatchFrameReader::Open(request);
    if (!calls.ok()) return calls.status();
    Bytes reply;
    reply.reserve(request.size() + calls->count());
    net::BatchFrameWriter writer(&reply);
    for (uint32_t i = 0; i < calls->count(); ++i) {
      const net::BatchCall call = calls->Next();
      writer.Open(call.correlation_id);
      net::AppendReplyOk(&reply, call.payload);
      writer.Close();
    }
    writer.Finish();
    return reply;
  };
  const Bytes small(64, 0x5A);
  const std::vector<size_t> frame_sizes = {1, 4, 16, 64};
  {
    net::LoopbackTransport transport(batch_echo);
    rows.push_back(MeasureBatchSweep("loopback", &transport, 1,
                                     /*batched=*/false, small));
    for (size_t c : frame_sizes) {
      rows.push_back(
          MeasureBatchSweep("loopback", &transport, c, /*batched=*/true, small));
    }
  }
  {
    net::TcpServer server;
    Status started = server.Start(batch_echo);
    if (!started.ok()) {
      std::fprintf(stderr, "bench_transport: %s\n", started.ToString().c_str());
      return 1;
    }
    net::TcpTransport transport("127.0.0.1", server.port());
    rows.push_back(
        MeasureBatchSweep("tcp", &transport, 1, /*batched=*/false, small));
    for (size_t c : frame_sizes) {
      rows.push_back(
          MeasureBatchSweep("tcp", &transport, c, /*batched=*/true, small));
    }
  }

  const std::vector<ItemRow> call_rows = MeasureCallPath();
  const std::vector<ItemRow> item_rows = MeasureItemPath();

  const std::vector<E2eRow> e2e = {
      MeasureE2e(net::TransportKind::kLoopback, 1),
      MeasureE2e(net::TransportKind::kLoopback, 32),
      MeasureE2e(net::TransportKind::kTcp, 1),
      MeasureE2e(net::TransportKind::kTcp, 32),
  };

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_transport\",\n");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"transport\": \"%s\", "
                 "\"bytes_per_op\": %zu, \"ns_per_op\": %.2f, "
                 "\"ops_per_sec\": %.0f, \"mb_per_sec\": %.2f}%s\n",
                 r.name.c_str(), r.transport.c_str(), r.bytes_per_op,
                 r.ns_per_op, r.ops_per_sec, r.mb_per_sec,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ssi_calls\": [\n");
  for (size_t i = 0; i < call_rows.size(); ++i) {
    const ItemRow& r = call_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"transport\": \"loopback\", "
                 "\"calls_per_op\": %zu, \"ns_per_call\": %.2f, "
                 "\"allocs_per_call\": %.3f}%s\n",
                 r.name.c_str(), r.items_per_op, r.ns_per_item,
                 r.allocs_per_item, i + 1 < call_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"ssi_items\": [\n");
  for (size_t i = 0; i < item_rows.size(); ++i) {
    const ItemRow& r = item_rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"transport\": \"loopback\", "
                 "\"items_per_op\": %zu, \"ns_per_item\": %.2f, "
                 "\"allocs_per_item\": %.3f}%s\n",
                 r.name.c_str(), r.items_per_op, r.ns_per_item,
                 r.allocs_per_item, i + 1 < item_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"e2e_s_agg\": [\n");
  for (size_t i = 0; i < e2e.size(); ++i) {
    const E2eRow& r = e2e[i];
    std::fprintf(f,
                 "    {\"transport\": \"%s\", \"batch_max_calls\": %zu, "
                 "\"best_ms\": %.2f, "
                 "\"frames_sent\": %llu, \"bytes_sent\": %llu}%s\n",
                 r.transport.c_str(), r.batch_max_calls, r.best_ms,
                 static_cast<unsigned long long>(r.frames_sent),
                 static_cast<unsigned long long>(r.bytes_sent),
                 i + 1 < e2e.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr,
               "wrote %s (e2e s_agg 600 TDS: loopback %.1f/%.1f ms, "
               "tcp %.1f/%.1f ms serial/batched)\n",
               out_path.c_str(), e2e[0].best_ms, e2e[1].best_ms, e2e[2].best_ms,
               e2e[3].best_ms);
  return 0;
}

}  // namespace
}  // namespace tcells

int main(int argc, char** argv) {
  return tcells::Run(argc > 1 ? argv[1] : "BENCH_transport.json");
}
