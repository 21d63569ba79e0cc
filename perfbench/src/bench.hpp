#pragma once

/// \file bench.hpp
/// Shared pieces of the end-to-end benchmark: run configuration, the
/// metric record every workload returns, timing/statistics helpers, the
/// figures-of-merit hash used by the correctness checks, and the per-layer
/// accumulator fed by LayerClock.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/emulator.hpp"
#include "layer_clock.hpp"
#include "probe.hpp"

namespace perfbench {

/// The seed a run uses when none is given, and the held-out seed that is
/// kept out of tuning so later claims can be re-checked on it.
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20111;

struct Config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool traced = false;
  /// Smoke mode: small horizons and fleet, no pinned-hash check.
  bool quick = false;
  /// Checkout root (scenario files are read from <root>/scenarios).
  std::string root = ".";
  /// Threads for run_batch and worker processes for the fleet:
  /// min(4, hardware_concurrency) for parallel workloads, else 1.
  unsigned threads = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;  ///< operations: emulations, hosts, grid runs
  std::int64_t failed = 0;     ///< operations whose outputs were wrong
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable detail lines
};

// ---- timing ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Runs \p body at least once, then again while another iteration of the
/// last one's length still fits in \p budget_s seconds from the start.
template <class F>
int repeat_within(double budget_s, F&& body) {
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  double last = 0.0;
  do {
    const Clock::time_point ti = Clock::now();
    body();
    last = seconds_since(ti);
    ++n;
  } while (seconds_since(t0) + last <= budget_s);
  return n;
}

double best(const std::vector<double>& v);
double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// "best=... median=... p90=... n=..." with the highest percentile that
/// has at least ten samples beyond it (or "tail=none" when n is too
/// small).
std::string describe_samples(const std::string& name,
                             const std::vector<double>& v);

/// Peak resident set of this process plus its largest waited-for child,
/// in MiB.
double peak_rss_mb();

/// The timed iterations of one run, as measured and at the nominal host
/// speed (probe.hpp), and the peak resident set after its warm-up.
struct Samples {
  std::vector<double> raw_s;
  std::vector<double> norm_s;
  double warmup_s = 0.0;
  double rss_mb = 0.0;
};

/// Runs \p warmup once, untimed and unprobed, and reads the peak resident
/// set after it (so it holds no probe table, and later iterations, which
/// only re-use memory, cannot make it depend on their count). Then repeats
/// \p body, which returns a Timing, while another iteration of the last
/// one's length still fits in \p budget_s seconds from the start.
template <class W, class F>
Samples sample_within(double budget_s, W&& warmup, F&& body) {
  Samples out;
  const Clock::time_point t0 = Clock::now();
  warmup();
  out.warmup_s = seconds_since(t0);
  out.rss_mb = peak_rss_mb();
  repeat_within(budget_s - out.warmup_s, [&]() {
    const Timing t = body();
    out.raw_s.push_back(t.raw_s);
    out.norm_s.push_back(t.norm_s);
  });
  return out;
}

// ---- correctness ------------------------------------------------------------

/// The serialized Metrics with the trace-event counters zeroed (they count
/// only enabled categories, so they differ between traced and untraced runs
/// by design; every figure of merit is kept).
std::vector<std::uint8_t> figures_bytes(const bce::Metrics& m);
/// FNV-1a 64 over figures_bytes.
std::uint64_t figures_hash(const bce::Metrics& m);
std::string hex64(std::uint64_t v);

// ---- per-layer accumulation -------------------------------------------------

/// Sums the LayerClock segments and EmulationResult counters of the traced
/// emulations of one workload run.
struct LayerTotals {
  std::array<double, kNumLayers> busy_s{};
  double segments_s = 0.0;
  /// The traced spans as the workload timed them, independently of the
  /// clocks (see TracedState in workloads.cpp).
  double traced_wall_s = 0.0;
  std::vector<double> iter_us;
  double rr_runs = 0.0;
  double rr_hits = 0.0;
  double sched_passes = 0.0;
  double preemptions = 0.0;
  double rpcs = 0.0;
  double work_requests = 0.0;
  double useful_rpcs = 0.0;
  double fetch_decisions = 0.0;
  double jobs_dispatched = 0.0;
  double refused = 0.0;
  double fault_retries = 0.0;

  void add(const LayerClock& clock, const bce::EmulationResult& r);
  [[nodiscard]] double busy(Layer l) const {
    return busy_s[static_cast<std::size_t>(l)];
  }
};

/// Everything the traced run reports besides LayerTotals. Zero = layer
/// not exercised by the workload.
struct TracedExtras {
  double savestate_captures = 0.0;
  double savestate_capture_s = 0.0;
  double savestate_bytes_last = 0.0;
  double savestate_restore_ms = 0.0;
  std::vector<double> controller_item_s;
  double controller_wall_s = 0.0;
  double fleet_host_s_sum = 0.0;
  double fleet_host_s_max = 0.0;
  double fleet_wall_s = 0.0;
  double fleet_wall_w1_s = 0.0;
  double fleet_task_bytes = 0.0;
  double fleet_output_bytes = 0.0;
  double fleet_attempts = 0.0;
  double fleet_hosts_lost = 0.0;
  double setup_parse_ms = 0.0;
  double setup_sample_ms = 0.0;
  double setup_construct_ms = 0.0;
  double untraced_wall_s = 0.0;  ///< median untraced iteration
  double traced_wall_s = 0.0;    ///< median traced iteration
};

/// Every per-layer metric, in BENCHMARK.json order. \p per_iter divides the
/// LayerTotals sums by the number of traced iterations.
std::vector<Metric> per_layer_metrics(const LayerTotals& t, double per_iter,
                                      const TracedExtras& x,
                                      unsigned threads);

/// Every end-to-end metric, in BENCHMARK.json order, from the run's
/// samples. \p sim_days is the simulated host-days of one iteration;
/// \p setup_s is already at the nominal host speed.
std::vector<Metric> end_to_end_metrics(const Samples& wall, double sim_days,
                                       double setup_s);

/// Detail lines for the run's samples and probe slices.
std::vector<std::string> describe_run(const Samples& wall,
                                      const HostProbe& probe);

}  // namespace perfbench
