// Token-poisoned redzones: the memory-corruption tripwire.
//
// Every byte-addressed storage region the simulated environment hands to
// target code (fixed app buffers, Vfs file content, registry values) is
// padded with a small guard region filled with a fixed poison token. The
// legitimate mutation paths never touch the guard, so any non-poison byte
// found there is proof that something wrote past the end of the logical
// region — the silent off-by-N corruption the paper's self-reporting
// oracle cannot see. The Kernel validates guards on read/write syscalls
// and in a deterministic teardown sweep (see os/kernel.hpp and
// docs/ORACLES.md); a broken guard surfaces as
// `AppFault::redzone_corruption`.
//
// The token is a repeating 4-byte pattern rather than a single byte so a
// same-byte memset of the whole allocation cannot masquerade as intact
// poison, and it contains no NUL so C-string-style writes cannot
// accidentally re-create it.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace ep::os::redzone {

/// Guard width in bytes. Wide enough to catch every off-by-N the test
/// battery injects (N up to a buffer capacity is clamped to this width).
inline constexpr std::size_t kSize = 16;

/// The repeating poison token.
inline constexpr char kToken[4] = {'\xDE', '\xAD', '\xC0', '\xDE'};

/// One guard region: kSize bytes, poisoned when constructed. The bytes
/// live inline (a kSize-byte std::string is one past libstdc++'s
/// small-string buffer and would own a heap block), so copying an inode
/// or a registry key copies its guard without allocating. Reads as the
/// string_view the checks below take.
struct Guard : std::array<char, kSize> {
  Guard() {
    for (std::size_t i = 0; i < kSize; ++i) (*this)[i] = kToken[i % 4];
  }
  operator std::string_view() const { return {data(), size()}; }
};

/// True when `zone` is exactly an intact poison region. A resized zone is
/// corruption too: the only legitimate state is kSize poison bytes.
[[nodiscard]] inline bool intact(std::string_view zone) {
  if (zone.size() != kSize) return false;
  for (std::size_t i = 0; i < kSize; ++i)
    if (zone[i] != kToken[i % 4]) return false;
  return true;
}

/// Offset of the first non-poison byte, or kSize when the zone is intact
/// byte-for-byte (a *shorter* zone with a clean prefix reports its size).
/// Feeds the "N byte(s) past the end" detail in corruption reports.
[[nodiscard]] inline std::size_t first_clobbered(std::string_view zone) {
  std::size_t n = zone.size() < kSize ? zone.size() : kSize;
  for (std::size_t i = 0; i < n; ++i)
    if (zone[i] != kToken[i % 4]) return i;
  return n;
}

/// Count of leading clobbered bytes — how far past the end a writer got.
/// Approximates "bytes overwritten" for contiguous overruns, which is what
/// the off-by-N battery injects.
[[nodiscard]] inline std::size_t clobbered_prefix(std::string_view zone) {
  std::size_t n = zone.size() < kSize ? zone.size() : kSize;
  std::size_t i = 0;
  while (i < n && zone[i] != kToken[i % 4]) ++i;
  return i;
}

}  // namespace ep::os::redzone
