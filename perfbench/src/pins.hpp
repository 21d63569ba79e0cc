#pragma once

/// \file pins.hpp
/// Figures-of-merit hashes (figures_hash, FNV-1a 64) of the full-size
/// workloads, pinned at the revision that introduced the benchmark. The
/// workload seed changes only policy_grid's submission order, which must
/// not change the figures; the other workloads run the same inputs at
/// every seed. So one pin holds for every seed. A deliberate change to the
/// emulator's figures must re-pin these, exactly like the golden policy
/// matrix.

#include <cstdint>
#include <optional>
#include <string>

namespace perfbench {

struct Pin {
  const char* workload;
  const char* key;  ///< which output: emulation, cold, merged, grid
  std::uint64_t hash;
};

inline constexpr Pin kPins[] = {
    {"s4_10d", "emulation", 0xe5b8e97645482696ull},
    {"faulty_60d", "cold", 0xd8fabb7328b26534ull},
    {"pop16_fleet", "merged", 0xa838f86b3a859d39ull},
    {"policy_grid", "grid", 0xcf0801b543ab945bull},
};

inline std::optional<std::uint64_t> pinned_hash(const std::string& workload,
                                                const std::string& key) {
  for (const Pin& p : kPins) {
    if (workload == p.workload && key == p.key) {
      return p.hash;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
