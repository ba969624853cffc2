// Environment-variable configuration, mirroring the CSS_* variables the
// original SMPSs distribution read (CSS_NUM_CPUS and friends). We use the
// SMPSS_ prefix; see runtime/config.hpp for the full list.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

namespace smpss {

std::optional<std::string> env_string(const char* name);
/// Unset or empty: nullopt. A value that is not entirely a base-10 integer
/// in range ("3x", "abc") is rejected whole: nullopt plus one stderr line
/// naming the variable and value. Never aborts.
std::optional<long long> env_int(const char* name);
/// Accepts 0/1/true/false/on/off/yes/no (any case); anything else is
/// rejected like a malformed env_int value.
std::optional<bool> env_bool(const char* name);

}  // namespace smpss
