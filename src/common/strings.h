// Small string helpers shared by the SQL front-end, parsers and printers.
#ifndef TCELLS_COMMON_STRINGS_H_
#define TCELLS_COMMON_STRINGS_H_

#include <string>
#include <string_view>

namespace tcells {

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Whole-string decimal parse: false on an empty string, garbage, trailing
/// characters or a non-finite value ("nan", "inf").
bool ParseFiniteDouble(std::string_view s, double* out);

}  // namespace tcells

#endif  // TCELLS_COMMON_STRINGS_H_
