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
//     broadcast unwrap + window authentication), and the unwrap alone
//     (finding its cover entry, then two nDet_Enc opens);
//   * the wire bytes of that TDS's refresh from a loopback SSI: once moving
//     the block, then once finding it current (the conditional fetch).
//
// Per TDS, at a 10k and a 2^20 id space with nothing revoked, it times the
// fixed-key work of bring-up and admission: enrolling a device (its path's
// node keys), adopting the epoch block (decode, broadcast unwrap, window
// and contribution key), tagging one upload and the authority's check of
// that tag.
//
// It also times a whole fleet adopting the current block from an SSI over
// TCP, serially (one round trip per TDS) against one batched
// TdsKeyState::RefreshAll, then a second batched refresh that finds the
// block current, and counts the frames and bytes each sends.
//
// Timing is hand-rolled (steady_clock) so the target stays dependency-light
// and emits machine-readable JSON directly; run from the repo root so the
// default output lands at ./BENCH_keys.json (or pass an explicit path).
#include <algorithm>
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
#include "crypto/broadcast.h"
#include "keys/epoch.h"
#include "keys/key_authority.h"
#include "keys/tds_keys.h"
#include "net/loopback.h"
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
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>&) override {
    return std::vector<Result<Bytes>>(tds_ids.size(), block_);
  }
  Bytes block_;
};

/// Fetches through one SSI client; batched fetches ship as ordered frames.
class ClientSource : public keys::EpochBlockSource {
 public:
  explicit ClientSource(net::SsiClient* client) : client_(client) {}
  std::vector<Result<Bytes>> FetchLatestBlocks(
      const std::vector<uint64_t>& tds_ids,
      const std::vector<uint64_t>& held_tags) override {
    return client_->FetchEpochBlockBatch(tds_ids, held_tags);
  }

 private:
  net::SsiClient* client_;
};

/// Request plus reply bytes an SSI client has moved.
uint64_t WireBytes(obs::MetricsRegistry& metrics) {
  return metrics.counter("net.bytes_sent").value() +
         metrics.counter("net.bytes_received").value();
}

struct FleetRefresh {
  double serial_ms = 0;   ///< Refresh() on every TDS, one after another
  double batched_ms = 0;  ///< one TdsKeyState::RefreshAll over the fleet
  double current_ms = 0;  ///< a second RefreshAll: the block is current
  uint64_t serial_frames = 0;
  uint64_t batched_frames = 0;
  uint64_t current_frames = 0;
  uint64_t batched_bytes = 0;
  uint64_t current_bytes = 0;
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
  uint64_t bytes_before = WireBytes(metrics);
  out.batched_ms = MillisOf(
      [&] { (void)keys::TdsKeyState::RefreshAll(batch_states); });
  out.batched_frames = frames.value() - before;
  out.batched_bytes = WireBytes(metrics) - bytes_before;
  for (size_t i = 0; i < kFleetTds; ++i) {
    if (!serial[i]->known_epoch().ok() || !batched[i]->known_epoch().ok()) {
      return Status::Internal("a TDS failed to adopt the fleet-refresh block");
    }
  }
  before = frames.value();
  bytes_before = WireBytes(metrics);
  std::vector<Status> current;
  out.current_ms = MillisOf(
      [&] { current = keys::TdsKeyState::RefreshAll(batch_states); });
  out.current_frames = frames.value() - before;
  out.current_bytes = WireBytes(metrics) - bytes_before;
  for (const Status& status : current) TCELLS_RETURN_IF_ERROR(status);
  std::fprintf(stderr,
               "fleet refresh, %zu TDSs over TCP: serial %8.1f ms (%llu "
               "frames)  batched %8.1f ms (%llu frames, %llu B)  current "
               "%8.1f ms (%llu frames, %llu B)\n",
               kFleetTds, out.serial_ms,
               static_cast<unsigned long long>(out.serial_frames),
               out.batched_ms,
               static_cast<unsigned long long>(out.batched_frames),
               static_cast<unsigned long long>(out.batched_bytes),
               out.current_ms,
               static_cast<unsigned long long>(out.current_frames),
               static_cast<unsigned long long>(out.current_bytes));
  return out;
}

/// TDSs each per-TDS pass times, spread evenly over the id space.
constexpr size_t kPerTdsSample = 5000;
/// Passes per per-TDS row, each over fresh key states; the row reports the
/// median pass per column, so one disturbed pass (the process's first heap
/// growth, a busy neighbour) does not set it.
constexpr size_t kPerTdsPasses = 5;

struct PerTdsRow {
  size_t id_space;
  double enroll_us;  ///< KeyAuthority::EnrollDevice
  double adopt_us;   ///< TdsKeyState::Adopt of the current block
  double tag_us;     ///< TdsKeyState::Tag of one upload digest
  double verify_us;  ///< KeyAuthority::VerifyContribution of that tag
};

/// One pass: kPerTdsSample devices enrolled, then adopting, tagging and
/// checking a tag, each phase timed over the whole sample.
Result<PerTdsRow> PerTdsPass(const keys::KeyAuthority& authority,
                             const Bytes& block) {
  PerTdsRow row;
  row.id_space = authority.num_devices();
  const size_t stride = row.id_space / kPerTdsSample;
  const double per_tds_us = 1000.0 / static_cast<double>(kPerTdsSample);

  std::vector<crypto::BroadcastDeviceKeys> devices(kPerTdsSample);
  Status status;
  row.enroll_us = per_tds_us * MillisOf([&] {
    for (size_t i = 0; i < kPerTdsSample && status.ok(); ++i) {
      Result<crypto::BroadcastDeviceKeys> device =
          authority.EnrollDevice(i * stride);
      if (device.ok()) {
        devices[i] = std::move(*device);
      } else {
        status = device.status();
      }
    }
  });
  TCELLS_RETURN_IF_ERROR(status);

  std::vector<std::unique_ptr<keys::TdsKeyState>> states;
  for (size_t i = 0; i < kPerTdsSample; ++i) {
    states.push_back(std::make_unique<keys::TdsKeyState>(
        i * stride, std::move(devices[i]), /*source=*/nullptr));
  }
  row.adopt_us = per_tds_us * MillisOf([&] {
    for (size_t i = 0; i < kPerTdsSample && status.ok(); ++i) {
      status = states[i]->Adopt(block);
    }
  });
  TCELLS_RETURN_IF_ERROR(status);

  const Bytes digest(32, 0x5d);
  std::vector<keys::ContributionTag> tags(kPerTdsSample);
  row.tag_us = per_tds_us * MillisOf([&] {
    for (size_t i = 0; i < kPerTdsSample && status.ok(); ++i) {
      Result<keys::ContributionTag> tag = states[i]->Tag(7, digest);
      if (tag.ok()) {
        tags[i] = std::move(*tag);
      } else {
        status = tag.status();
      }
    }
  });
  TCELLS_RETURN_IF_ERROR(status);
  row.verify_us = per_tds_us * MillisOf([&] {
    for (size_t i = 0; i < kPerTdsSample && status.ok(); ++i) {
      status = authority.VerifyContribution(tags[i], 7, digest);
    }
  });
  TCELLS_RETURN_IF_ERROR(status);
  return row;
}

Result<PerTdsRow> MeasurePerTds(size_t id_space) {
  TCELLS_ASSIGN_OR_RETURN(
      std::unique_ptr<keys::KeyAuthority> authority,
      keys::KeyAuthority::Create(Bytes(16, 0x7d), id_space, kSeed));
  const Bytes block = authority->CurrentBlock();
  std::vector<PerTdsRow> passes;
  for (size_t pass = 0; pass < kPerTdsPasses; ++pass) {
    TCELLS_ASSIGN_OR_RETURN(PerTdsRow row, PerTdsPass(*authority, block));
    passes.push_back(row);
  }
  auto median = [&](double PerTdsRow::*column) {
    std::vector<double> values;
    for (const PerTdsRow& pass : passes) values.push_back(pass.*column);
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  PerTdsRow row;
  row.id_space = id_space;
  row.enroll_us = median(&PerTdsRow::enroll_us);
  row.adopt_us = median(&PerTdsRow::adopt_us);
  row.tag_us = median(&PerTdsRow::tag_us);
  row.verify_us = median(&PerTdsRow::verify_us);
  std::fprintf(stderr,
               "per TDS, %7zu ids: enroll %6.2f us  adopt %6.2f us  tag "
               "%5.2f us  verify %5.2f us (median of %zu passes)\n",
               id_space, row.enroll_us, row.adopt_us, row.tag_us,
               row.verify_us, kPerTdsPasses);
  return row;
}

struct Row {
  size_t revoked;
  double revoke_broadcast_ms;  ///< Revoke(): reseal + publish, end to end
  double rollover_ms;          ///< a later Rollover() at this revoked size
  size_t cover_nodes;          ///< header entries of the published block
  double nnl_bound;            ///< r * log2(N/r)
  size_t block_bytes;          ///< encoded EpochBlock size
  double refresh_ms;           ///< one surviving TDS adopting the new epoch
  double unwrap_ms;  ///< its BroadcastChannel::Decrypt of the decoded block
  uint64_t refresh_wire_bytes;  ///< its refresh moving the block (loopback)
  uint64_t current_refresh_wire_bytes;  ///< its refresh finding it current
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
  Status unwrapped;
  row.unwrap_ms = MillisOf([&] {
    unwrapped = crypto::BroadcastChannel::Decrypt(block.message, survivor_keys)
                    .status();
  });
  TCELLS_RETURN_IF_ERROR(unwrapped);
  TCELLS_ASSIGN_OR_RETURN(uint32_t adopted, survivor.known_epoch());
  if (adopted != authority->current_epoch()) {
    return Status::Internal("survivor failed to adopt the current epoch");
  }

  net::SsiNode node;
  net::LoopbackTransport transport(node.handler());
  obs::MetricsRegistry metrics;
  net::SsiClient client(&transport, net::RetryPolicy(), &metrics);
  TCELLS_RETURN_IF_ERROR(client.PostEpochBlock(encoded));
  ClientSource wire_source(&client);
  keys::TdsKeyState fetcher(0, survivor_keys, &wire_source);
  uint64_t before = WireBytes(metrics);
  TCELLS_RETURN_IF_ERROR(fetcher.Refresh());
  row.refresh_wire_bytes = WireBytes(metrics) - before;
  before = WireBytes(metrics);
  TCELLS_RETURN_IF_ERROR(fetcher.Refresh());
  row.current_refresh_wire_bytes = WireBytes(metrics) - before;

  std::fprintf(stderr,
               "|R|=%-7zu revoke %8.1f ms  rollover %8.1f ms  cover %7zu "
               "(bound %9.0f)  block %9zu B  refresh %7.1f ms  unwrap %6.3f "
               "ms  wire %9llu B, current %llu B\n",
               row.revoked, row.revoke_broadcast_ms, row.rollover_ms,
               row.cover_nodes, row.nnl_bound, row.block_bytes,
               row.refresh_ms, row.unwrap_ms,
               static_cast<unsigned long long>(row.refresh_wire_bytes),
               static_cast<unsigned long long>(
                   row.current_refresh_wire_bytes));
  return row;
}

int Run(const std::string& out_path) {
  // Per-TDS rows first, on a heap the multi-megabyte blocks below have not
  // fragmented yet, as at an engine's bring-up.
  std::vector<PerTdsRow> per_tds;
  for (size_t id_space : {kFleetTds, kIdSpace}) {
    Result<PerTdsRow> row = MeasurePerTds(id_space);
    if (!row.ok()) {
      std::fprintf(stderr, "per-TDS bench failed at %zu ids: %s\n", id_space,
                   row.status().ToString().c_str());
      return 1;
    }
    per_tds.push_back(*row);
  }
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
                 "\"tds_refresh_ms\": %.2f, \"tds_unwrap_ms\": %.3f, "
                 "\"refresh_wire_bytes\": %llu, "
                 "\"current_refresh_wire_bytes\": %llu}%s\n",
                 r.revoked, r.revoke_broadcast_ms, r.rollover_ms,
                 r.cover_nodes, r.nnl_bound, r.block_bytes, r.refresh_ms,
                 r.unwrap_ms,
                 static_cast<unsigned long long>(r.refresh_wire_bytes),
                 static_cast<unsigned long long>(r.current_refresh_wire_bytes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"per_tds\": [\n");
  for (size_t i = 0; i < per_tds.size(); ++i) {
    const PerTdsRow& r = per_tds[i];
    std::fprintf(f,
                 "    {\"id_space\": %zu, \"tds\": %zu, \"passes\": %zu, "
                 "\"enroll_us\": %.2f, \"adopt_us\": %.2f, "
                 "\"tag_us\": %.2f, \"verify_us\": %.2f}%s\n",
                 r.id_space, kPerTdsSample, kPerTdsPasses, r.enroll_us,
                 r.adopt_us, r.tag_us, r.verify_us,
                 i + 1 < per_tds.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"fleet_refresh\": {\"tds\": %zu, \"transport\": \"tcp\", "
               "\"calls_per_frame\": %zu, \"serial_ms\": %.2f, "
               "\"serial_frames\": %llu, \"batched_ms\": %.2f, "
               "\"batched_frames\": %llu, \"batched_bytes\": %llu, "
               "\"current\": {\"ms\": %.2f, \"frames\": %llu, "
               "\"bytes\": %llu}},\n",
               kFleetTds, kFleetCallsPerFrame, fleet->serial_ms,
               static_cast<unsigned long long>(fleet->serial_frames),
               fleet->batched_ms,
               static_cast<unsigned long long>(fleet->batched_frames),
               static_cast<unsigned long long>(fleet->batched_bytes),
               fleet->current_ms,
               static_cast<unsigned long long>(fleet->current_frames),
               static_cast<unsigned long long>(fleet->current_bytes));
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
