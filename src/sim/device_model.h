// DeviceModel: the calibrated cost model of one Trusted Data Server device.
//
// The paper's experimental methodology (§6.2) measures unit costs on a
// tamper-resistant development board and feeds them into an analytical model.
// The board: 32-bit RISC MCU @ 120 MHz, AES/SHA crypto-coprocessor
// (167 cycles per 128-bit block), 64 KB static RAM, USB full speed measured
// at ~7.9 Mbps. We reproduce that board as a set of constants and per-
// operation timing functions; protocol runs tally bytes/tuples through a
// CostAccountant and this model converts the tallies into simulated time.
#ifndef TCELLS_SIM_DEVICE_MODEL_H_
#define TCELLS_SIM_DEVICE_MODEL_H_

#include <cstdint>
#include <string>

namespace tcells::sim {

/// Hardware/firmware parameters of a TDS-class secure device.
struct DeviceParams {
  double cpu_hz = 120e6;              ///< MCU clock.
  double crypto_cycles_per_block = 167;  ///< AES/SHA coprocessor, 16-B block.
  double transfer_bps = 7.9e6;        ///< Measured USB full-speed throughput.
  double cpu_cycles_per_tuple = 240;  ///< Byte->value conversion + aggregation
                                      ///< arithmetic per tuple; larger than
                                      ///< the coprocessor's crypto cost but
                                      ///< well under transfer (Fig 9b).
  uint64_t ram_bytes = 64 * 1024;     ///< Static RAM for the partial
                                      ///< aggregate structure (§4.2).

  /// The paper's reference board (defaults above).
  static DeviceParams PaperBoard() { return DeviceParams(); }

  /// A smart-meter-class TDS: "other TDSs (e.g., smart meters) may be more
  /// powerful than smart tokens" (§6.2) — faster MCU and an Ethernet-class
  /// uplink, same crypto coprocessor generation.
  static DeviceParams SmartMeter() {
    DeviceParams p;
    p.cpu_hz = 400e6;
    p.transfer_bps = 40e6;
    p.ram_bytes = 512 * 1024;
    return p;
  }
};

/// Converts operation counts into seconds on one device.
class DeviceModel {
 public:
  explicit DeviceModel(DeviceParams params = DeviceParams::PaperBoard())
      : params_(params) {}

  const DeviceParams& params() const { return params_; }

  /// Time to move `bytes` over the device link (either direction).
  double TransferSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) * 8.0 / params_.transfer_bps;
  }

  /// Time to encrypt or decrypt `bytes` on the crypto-coprocessor.
  double CryptoSeconds(uint64_t bytes) const {
    double blocks = static_cast<double>((bytes + 15) / 16);
    return blocks * params_.crypto_cycles_per_block / params_.cpu_hz;
  }

  /// CPU time to deserialize + aggregate `tuples` tuples.
  double CpuSeconds(uint64_t tuples) const {
    return static_cast<double>(tuples) * params_.cpu_cycles_per_tuple /
           params_.cpu_hz;
  }

  /// Busy time of a device that moves `bytes` over its link (both
  /// directions summed), en/decrypts them and processes `tuples` tuples.
  double BusySeconds(uint64_t bytes, uint64_t tuples) const {
    return TransferSeconds(bytes) + CryptoSeconds(bytes) + CpuSeconds(tuples);
  }

  /// Full cost of handling one incoming tuple of `tuple_bytes` (download +
  /// decrypt + process). This is the T_t of the cost model: with the paper's
  /// 16-byte tuples it comes out at 16.2 + 1.4 + 2.0 = 19.6 µs, dominated by
  /// transfer.
  double PerTupleSeconds(uint64_t tuple_bytes) const {
    return BusySeconds(tuple_bytes, 1);
  }

 private:
  DeviceParams params_;
};

}  // namespace tcells::sim

#endif  // TCELLS_SIM_DEVICE_MODEL_H_
