/// End-to-end benchmark for BCE (see README.md).
///
///   bce_bench --workload NAME --seed N --seconds S --trace 0|1
///             [--root DIR] [--quick]
///
/// Prints detail lines, a `host {...}` stanza, and as its last line one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
/// metrics are the end-to-end ones, with --trace 1 the per-layer ones.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "probe.hpp"
#include "fleet/shard_worker.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: bce_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--quick]\nworkloads:";
  for (const auto& w : perfbench::workloads()) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  // The fleet supervisor re-execs this binary as its shard workers; those
  // of a probed run take probe slices (probe.hpp).
  if (argc > 1 && std::string(argv[1]) == "--bce-shard-worker") {
    perfbench::start_worker_probe();
  }
  if (const auto rc = bce::maybe_run_shard_worker(argc, argv)) {
    perfbench::finish_worker_probe();
    return *rc;
  }

  perfbench::Config cfg;
  int trace = -1;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        trace = std::stoi(value());
      } else if (a == "--root") {
        cfg.root = value();
      } else if (a == "--quick") {
        cfg.quick = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (!have_seconds || !(cfg.seconds > 0.0)) usage("--seconds must be > 0");
  cfg.traced = trace == 1;
  const auto& all = perfbench::workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return w.name == cfg.workload;
  });
  if (it == all.end()) usage("unknown workload '" + cfg.workload + "'");

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hc = std::thread::hardware_concurrency();
  cfg.threads = it->parallel ? std::clamp(hc, 1u, 4u) : 1u;

  perfbench::Outcome out;
  try {
    out = it->run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& n : out.notes) std::cout << "detail " << n << "\n";
  std::cout << "host {\"nproc\": " << nproc
            << ", \"hardware_concurrency\": " << hc << ", \"compiler\": \""
            << json_escape(compiler()) << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"threads\": " << cfg.threads
            << ", \"workload\": \"" << cfg.workload
            << "\", \"seed\": " << cfg.seed
            << ", \"held_out_seed\": " << perfbench::kHeldOutSeed
            << ", \"quick\": " << (cfg.quick ? "true" : "false") << "}\n";
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
