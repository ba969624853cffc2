// Environment-variable configuration, mirroring the CSS_* variables the
// original SMPSs distribution read (CSS_NUM_CPUS and friends). We use the
// SMPSS_ prefix; see runtime/config.hpp for the full list.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace smpss {

std::optional<std::string> env_string(const char* name);
/// Unset or empty: nullopt. A value that is not entirely a base-10 integer
/// in range ("3x", "abc") is rejected whole: nullopt plus one stderr line
/// naming the variable and value. Never aborts.
std::optional<long long> env_int(const char* name);
/// Accepts 0/1/true/false/on/off/yes/no (any case); anything else is
/// rejected like a malformed env_int value.
std::optional<bool> env_bool(const char* name);
/// Index of the value among `choices` (exact match); any other value is
/// rejected like a malformed env_int value, expecting "a|b|...".
std::optional<std::size_t> env_choice(
    const char* name, std::initializer_list<const char*> choices);

/// Every set variable whose name starts with `prefix`, as (name, value).
std::vector<std::pair<std::string, std::string>> env_with_prefix(
    const char* prefix);
/// The one-line stderr diagnostic of a rejected variable:
/// `smpss: ignoring NAME="value" (WHY)`.
void env_reject(const char* name, const std::string& value, const char* why);

}  // namespace smpss
