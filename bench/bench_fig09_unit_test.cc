// Fig 9b + §6.2 unit test: internal time consumption of one TDS handling a
// 4 KB partition, split into transfer / decryption / CPU / encryption, on the
// paper's reference board model. Also re-runs the same unit operations in
// software on this host to show the calibration procedure itself.
#include <chrono>
#include <cstdio>

#include "common/rng.h"
#include "crypto/encryption.h"
#include "crypto/keystore.h"
#include "sim/device_model.h"
#include "storage/tuple.h"

using namespace tcells;

int main() {
  sim::DeviceModel board;  // §6.2 board: 120 MHz MCU, AES coprocessor, USB
  const size_t kPartition = 4096;
  const size_t kTupleBytes = 16;
  const size_t kTuples = kPartition / kTupleBytes;

  std::printf("=== Fig 9a: reference secure device ===\n");
  const auto& p = board.params();
  std::printf("  CPU %.0f MHz, crypto coprocessor %.0f cycles / 16B block,\n"
              "  link %.1f Mbps, %llu KB RAM\n\n",
              p.cpu_hz / 1e6, p.crypto_cycles_per_block,
              p.transfer_bps / 1e6,
              static_cast<unsigned long long>(p.ram_bytes / 1024));

  std::printf("=== Fig 9b: internal time, 4 KB partition (%zu tuples) ===\n",
              kTuples);
  double transfer = board.TransferSeconds(kPartition);
  double decrypt = board.CryptoSeconds(kPartition);
  double cpu = board.CpuSeconds(kTuples);
  // Only the partition's aggregation result is re-encrypted (one tuple).
  double encrypt = board.CryptoSeconds(kTupleBytes);
  double total = transfer + decrypt + cpu + encrypt;
  std::printf("  %-12s %10.1f us  (%4.1f%%)\n", "transfer", transfer * 1e6,
              100 * transfer / total);
  std::printf("  %-12s %10.1f us  (%4.1f%%)\n", "CPU", cpu * 1e6,
              100 * cpu / total);
  std::printf("  %-12s %10.1f us  (%4.1f%%)\n", "decrypt", decrypt * 1e6,
              100 * decrypt / total);
  std::printf("  %-12s %10.1f us  (%4.1f%%)\n", "encrypt", encrypt * 1e6,
              100 * encrypt / total);
  std::printf("  %-12s %10.1f us\n\n", "total", total * 1e6);
  std::printf("  per-tuple cost T_t(16B) = %.1f us  (the cost model's T_t; "
              "the paper quotes ~16 us)\n\n",
              board.PerTupleSeconds(kTupleBytes) * 1e6);

  // Host-side calibration run: the same operations in software, as the
  // paper's authors measured them on the board.
  std::printf("=== host calibration (software AES/SHA on this machine) ===\n");
  auto keys = crypto::KeyStore::CreateForTest(1);
  Rng rng(2);
  Bytes partition = rng.NextBytes(kPartition);
  const int kReps = 200;

  auto time_it = [&](auto&& fn) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) fn();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count() / kReps;
  };

  Bytes ct = keys->k2_ndet().Encrypt(partition, &rng);
  double host_decrypt = time_it([&] {
    auto r = keys->k2_ndet().Decrypt(ct);
    (void)r;
  });
  double host_encrypt = time_it([&] {
    Bytes one = rng.NextBytes(kTupleBytes);
    auto c = keys->k2_ndet().Encrypt(one, &rng);
    (void)c;
  });
  double host_cpu = time_it([&] {
    // Deserialize kTuples 16-byte tuples' worth of values.
    uint64_t sink = 0;
    for (size_t i = 0; i + 8 <= partition.size(); i += 8) {
      uint64_t v = 0;
      for (int k = 0; k < 8; ++k) {
        v |= static_cast<uint64_t>(partition[i + k]) << (8 * k);
      }
      sink += v;
    }
    volatile uint64_t keep = sink;
    (void)keep;
  });

  std::printf("  decrypt 4KB : %8.1f us\n", host_decrypt * 1e6);
  std::printf("  encrypt 16B : %8.1f us\n", host_encrypt * 1e6);
  std::printf("  CPU scan 4KB: %8.1f us\n", host_cpu * 1e6);
  std::printf("\n(The board model, not host speed, feeds the Fig 10 "
              "figures; the host numbers document the calibration method.)\n");

  // The figure's qualitative claim: transfer dominates; CPU > crypto.
  bool ok = transfer > cpu && cpu > decrypt + encrypt;
  std::printf("\ntransfer dominates internal costs: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
