// Hex encoding/decoding, mainly for test fixtures (crypto test vectors) and
// debug output of ciphertexts.
#ifndef TCELLS_COMMON_HEX_H_
#define TCELLS_COMMON_HEX_H_

#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"

namespace tcells {

/// Lower-case hex string of `data`.
std::string ToHex(std::span<const uint8_t> data);
std::string ToHex(const uint8_t* data, size_t n);

/// Parses a hex string (case-insensitive, even length, no separators).
Result<Bytes> FromHex(std::string_view hex);

}  // namespace tcells

#endif  // TCELLS_COMMON_HEX_H_
