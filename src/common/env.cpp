#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>  // environ

namespace smpss {

// A malformed value is rejected whole (the caller keeps its default) and
// reported once on stderr, so a typo never silently misconfigures a run.
void env_reject(const char* name, const std::string& value, const char* why) {
  std::fprintf(stderr, "smpss: ignoring %s=\"%s\" (%s)\n", name,
               value.c_str(), why);
}

std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::string(v);
}

std::optional<long long> env_int(const char* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE) {
    env_reject(name, *s, "expected an integer");
    return std::nullopt;
  }
  return v;
}

std::optional<bool> env_bool(const char* name) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  std::string low = *s;
  std::transform(low.begin(), low.end(), low.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (low == "1" || low == "true" || low == "on" || low == "yes") return true;
  if (low == "0" || low == "false" || low == "off" || low == "no") return false;
  env_reject(name, *s, "expected 0/1/true/false/on/off/yes/no");
  return std::nullopt;
}

std::optional<std::size_t> env_choice(
    const char* name, std::initializer_list<const char*> choices) {
  auto s = env_string(name);
  if (!s) return std::nullopt;
  std::string want = "expected ";
  std::size_t i = 0;
  for (const char* c : choices) {
    if (*s == c) return i;
    if (i++ != 0) want += '|';
    want += c;
  }
  env_reject(name, *s, want.c_str());
  return std::nullopt;
}

std::vector<std::pair<std::string, std::string>> env_with_prefix(
    const char* prefix) {
  std::vector<std::pair<std::string, std::string>> out;
  const std::size_t n = std::strlen(prefix);
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, prefix, n) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    out.emplace_back(std::string(*e, static_cast<std::size_t>(eq - *e)),
                     std::string(eq + 1));
  }
  return out;
}

}  // namespace smpss
