#pragma once

/// \file workloads.hpp
/// The benchmark's four workloads (README.md gives the reasons for each).

#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Runs on min(4, nproc) threads or worker processes (else one thread).
  bool parallel = false;
  Outcome (*run)(const Config& cfg) = nullptr;
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
