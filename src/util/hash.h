#ifndef ALC_UTIL_HASH_H_
#define ALC_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace alc::util {

/// FNV-1a 64-bit: a stable, dependency-free content fingerprint. Tests and
/// benches pin run outputs (CSV bytes, decision audits) by this hash.
inline uint64_t Fnv1a(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace alc::util

#endif  // ALC_UTIL_HASH_H_
