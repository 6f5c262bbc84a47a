// Dynamic key-management costs (docs/KEYS.md): what one epoch rollover and
// one mass-revocation broadcast cost over a large TDS id space, and how the
// complete-subtree header grows with the revoked-set size.
//
// For |R| in {1k, 10k, 100k} revoked ids out of a 2^20-device tree this
// measures
//   * the mass-revocation broadcast: KeyAuthority::Revoke() end to end
//     (cover computation + one wrap per cover node + sealed window body);
//   * a follow-up epoch rollover at that revoked-set size;
//   * the published block: header entries (cover size, checked against the
//     NNL r*log2(N/r) bound) and encoded bytes;
//   * one surviving TDS adopting the new epoch (EpochBlock decode +
//     broadcast unwrap + window authentication).
//
// It also times a whole fleet adopting the current block from an SSI over
// TCP, serially (one FetchEpochBlock round trip per TDS) against one batched
// TdsKeyState::RefreshAll, and counts the frames each sends.
//
// Timing is hand-rolled (steady_clock) so the target stays dependency-light
// and emits machine-readable JSON directly; run from the repo root so the
// default output lands at ./BENCH_keys.json (or pass an explicit path).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "keys/epoch.h"
#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/tcp.h"
#include "obs/metrics.h"

namespace tcells {
namespace {

constexpr size_t kIdSpace = size_t{1} << 20;  // 1,048,576 enrollable ids
constexpr uint64_t kSeed = 42;

double MillisOf(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The fleet-refresh row: the dynamic-keys benchmark workload's fleet size
/// and the engine's TCP batch size (Engine::kAutoBatchCallsTcp).
constexpr size_t kFleetTds = 10000;
constexpr size_t kFleetCallsPerFrame = 64;

class LocalSource : public keys::EpochBlockSource {
 public:
  Result<Bytes> FetchLatestBlock(uint64_t) override { return block_; }
  Bytes block_;
};

/// Fetches through one SSI client; batched fetches ship as ordered frames.
class ClientSource : public keys::EpochBlockSource {
 public:
  explicit ClientSource(net::SsiClient* client) : client_(client) {}
  Result<Bytes> FetchLatestBlock(uint64_t tds_id) override {
    return client_->FetchEpochBlock(tds_id);
  }
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids) override {
    return client_->FetchEpochBlockBatch(tds_ids);
  }

 private:
  net::SsiClient* client_;
};

struct FleetRefresh {
  double serial_ms = 0;   ///< Refresh() on every TDS, one after another
  double batched_ms = 0;  ///< one TdsKeyState::RefreshAll over the fleet
  uint64_t serial_frames = 0;
  uint64_t batched_frames = 0;
};

/// Two identical fleets of kFleetTds fresh key states adopt the current
/// block from a TCP SSI: one serially, one with a batched refresh.
Result<FleetRefresh> MeasureFleetRefresh() {
  TCELLS_ASSIGN_OR_RETURN(
      std::unique_ptr<keys::KeyAuthority> authority,
      keys::KeyAuthority::Create(Bytes(16, 0x5e), kFleetTds, kSeed));
  net::SsiNode node;
  net::TcpServer server;
  TCELLS_RETURN_IF_ERROR(server.Start(node.handler()));
  net::TcpTransport transport("127.0.0.1", server.port());
  obs::MetricsRegistry metrics;
  net::BatchOptions batch;
  batch.max_calls_per_frame = kFleetCallsPerFrame;
  net::SsiClient client(&transport, net::RetryPolicy(), &metrics, batch);
  TCELLS_RETURN_IF_ERROR(client.PostEpochBlock(authority->CurrentBlock()));
  ClientSource source(&client);

  std::vector<std::unique_ptr<keys::TdsKeyState>> serial, batched;
  std::vector<keys::TdsKeyState*> batch_states;
  for (uint64_t id = 0; id < kFleetTds; ++id) {
    TCELLS_ASSIGN_OR_RETURN(crypto::BroadcastDeviceKeys device,
                            authority->EnrollDevice(id));
    serial.push_back(
        std::make_unique<keys::TdsKeyState>(id, device, &source));
    batched.push_back(
        std::make_unique<keys::TdsKeyState>(id, std::move(device), &source));
    batch_states.push_back(batched.back().get());
  }

  FleetRefresh out;
  obs::Counter& frames = metrics.counter("net.frames_sent");
  uint64_t before = frames.value();
  out.serial_ms = MillisOf([&] {
    for (auto& state : serial) (void)state->Refresh();
  });
  out.serial_frames = frames.value() - before;
  before = frames.value();
  out.batched_ms = MillisOf(
      [&] { (void)keys::TdsKeyState::RefreshAll(batch_states); });
  out.batched_frames = frames.value() - before;
  for (size_t i = 0; i < kFleetTds; ++i) {
    if (!serial[i]->known_epoch().ok() || !batched[i]->known_epoch().ok()) {
      return Status::Internal("a TDS failed to adopt the fleet-refresh block");
    }
  }
  std::fprintf(stderr,
               "fleet refresh, %zu TDSs over TCP: serial %8.1f ms (%llu "
               "frames)  batched %8.1f ms (%llu frames)\n",
               kFleetTds, out.serial_ms,
               static_cast<unsigned long long>(out.serial_frames),
               out.batched_ms,
               static_cast<unsigned long long>(out.batched_frames));
  return out;
}

struct Row {
  size_t revoked;
  double revoke_broadcast_ms;  ///< Revoke(): reseal + publish, end to end
  double rollover_ms;          ///< a later Rollover() at this revoked size
  size_t cover_nodes;          ///< header entries of the published block
  double nnl_bound;            ///< r * log2(N/r)
  size_t block_bytes;          ///< encoded EpochBlock size
  double refresh_ms;           ///< one surviving TDS adopting the new epoch
};

Result<Row> MeasureAt(size_t revoked_count) {
  Row row;
  row.revoked = revoked_count;

  Rng rng(kSeed ^ revoked_count);
  TCELLS_ASSIGN_OR_RETURN(
      std::unique_ptr<keys::KeyAuthority> authority,
      keys::KeyAuthority::Create(rng.NextBytes(16), kIdSpace, kSeed));

  std::set<size_t> revoked;
  while (revoked.size() < revoked_count) {
    // Keep one known survivor (id 0) for the refresh measurement.
    size_t id = 1 + static_cast<size_t>(rng.NextBelow(kIdSpace - 1));
    revoked.insert(id);
  }
  std::vector<uint64_t> ids(revoked.begin(), revoked.end());

  row.revoke_broadcast_ms =
      MillisOf([&] { (void)authority->Revoke(ids); });
  row.rollover_ms = MillisOf([&] { (void)authority->Rollover(); });

  Bytes encoded = authority->CurrentBlock();
  row.block_bytes = encoded.size();
  TCELLS_ASSIGN_OR_RETURN(keys::EpochBlock block,
                          keys::EpochBlock::Decode(encoded));
  row.cover_nodes = block.message.header.size();
  row.nnl_bound = static_cast<double>(revoked_count) *
                  std::log2(static_cast<double>(kIdSpace) /
                            static_cast<double>(revoked_count));

  LocalSource source;
  source.block_ = encoded;
  TCELLS_ASSIGN_OR_RETURN(crypto::BroadcastDeviceKeys survivor_keys,
                          authority->EnrollDevice(0));
  keys::TdsKeyState survivor(0, survivor_keys, &source);
  row.refresh_ms = MillisOf([&] { (void)survivor.Refresh(); });
  TCELLS_ASSIGN_OR_RETURN(uint32_t adopted, survivor.known_epoch());
  if (adopted != authority->current_epoch()) {
    return Status::Internal("survivor failed to adopt the current epoch");
  }

  std::fprintf(stderr,
               "|R|=%-7zu revoke %8.1f ms  rollover %8.1f ms  cover %7zu "
               "(bound %9.0f)  block %9zu B  refresh %7.1f ms\n",
               row.revoked, row.revoke_broadcast_ms, row.rollover_ms,
               row.cover_nodes, row.nnl_bound, row.block_bytes,
               row.refresh_ms);
  return row;
}

int Run(const std::string& out_path) {
  std::vector<Row> rows;
  for (size_t revoked : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    Result<Row> row = MeasureAt(revoked);
    if (!row.ok()) {
      std::fprintf(stderr, "bench failed at |R|=%zu: %s\n", revoked,
                   row.status().ToString().c_str());
      return 1;
    }
    rows.push_back(*row);
  }
  Result<FleetRefresh> fleet = MeasureFleetRefresh();
  if (!fleet.ok()) {
    std::fprintf(stderr, "fleet refresh failed: %s\n",
                 fleet.status().ToString().c_str());
    return 1;
  }
  const uint64_t frame_bound =
      (kFleetTds + kFleetCallsPerFrame - 1) / kFleetCallsPerFrame;
  const bool frames_within_bound = fleet->batched_frames <= frame_bound;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_key_mgmt\",\n");
  std::fprintf(f, "  \"id_space\": %zu,\n", kIdSpace);
  std::fprintf(f, "  \"epoch_window\": %u,\n", keys::kEpochWindow);
  std::fprintf(f, "  \"rows\": [\n");
  bool all_within_bound = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    all_within_bound = all_within_bound &&
                       r.cover_nodes <= static_cast<size_t>(r.nnl_bound) + 1;
    std::fprintf(f,
                 "    {\"revoked\": %zu, \"revoke_broadcast_ms\": %.2f, "
                 "\"rollover_ms\": %.2f, \"cover_nodes\": %zu, "
                 "\"nnl_bound\": %.0f, \"block_bytes\": %zu, "
                 "\"tds_refresh_ms\": %.2f}%s\n",
                 r.revoked, r.revoke_broadcast_ms, r.rollover_ms,
                 r.cover_nodes, r.nnl_bound, r.block_bytes, r.refresh_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"fleet_refresh\": {\"tds\": %zu, \"transport\": \"tcp\", "
               "\"calls_per_frame\": %zu, \"serial_ms\": %.2f, "
               "\"serial_frames\": %llu, \"batched_ms\": %.2f, "
               "\"batched_frames\": %llu},\n",
               kFleetTds, kFleetCallsPerFrame, fleet->serial_ms,
               static_cast<unsigned long long>(fleet->serial_frames),
               fleet->batched_ms,
               static_cast<unsigned long long>(fleet->batched_frames));
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"cover_within_nnl_bound\": %s,\n",
               all_within_bound ? "true" : "false");
  std::fprintf(f, "    \"fleet_refresh_frames_within_batch_bound\": %s\n",
               frames_within_bound ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return all_within_bound && frames_within_bound ? 0 : 1;
}

}  // namespace
}  // namespace tcells

int main(int argc, char** argv) {
  return tcells::Run(argc > 1 ? argv[1] : "BENCH_keys.json");
}
