// Runtime backend selection for the AES-128 kernel.
//
// Two implementations produce bit-identical output:
//
//  * kPortable — 32-bit T-table cipher (rijndael-alg-fst style).
//  * kAesNi    — hardware AES instructions (AESENC), compiled in a
//    separate translation unit with -maes and selected only when CPUID
//    reports support.
//
// The active backend is resolved once per process: the environment variable
// TCELLS_FORCE_PORTABLE_AES (set to anything but "0") pins the portable
// path; otherwise the hardware path is used when available. Tests and
// benchmarks can override at runtime with ForceAesBackend so both paths stay
// exercised on every machine.
#ifndef TCELLS_CRYPTO_AES_DISPATCH_H_
#define TCELLS_CRYPTO_AES_DISPATCH_H_

#include <optional>

namespace tcells::crypto {

enum class AesBackend {
  kPortable,
  kAesNi,
};

/// True iff the CPU supports the AES instruction set *and* this binary was
/// built with the AES-NI translation unit (x86-64 only).
bool AesNiAvailable();

/// The backend every Aes128 call currently dispatches to.
AesBackend ActiveAesBackend();

/// Overrides the backend for this process; nullopt restores the default
/// resolution (env var, then CPUID). Forcing kAesNi on a machine without
/// hardware support is ignored. Not thread-safe with concurrent crypto
/// calls; intended for test/bench setup code.
void ForceAesBackend(std::optional<AesBackend> backend);

/// "portable" or "aesni".
const char* AesBackendName(AesBackend backend);

}  // namespace tcells::crypto

#endif  // TCELLS_CRYPTO_AES_DISPATCH_H_
