#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace tcells {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ParseFiniteDouble(std::string_view s, double* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end && std::isfinite(*out);
}

}  // namespace tcells
