#pragma once

/// \file probe.hpp
/// Host-speed probe. The benchmark runs on a few cores of a shared machine
/// whose speed drifts by tens of percent, both within seconds and over
/// minutes, so raw wall times of the same code spread too far for a useful
/// bound. The probe times a fixed reference kernel in short slices that
/// are interleaved with the workload on the workload's own threads, and
/// workload times are reported at the nominal host speed, at which one
/// slice takes kNominalSliceS:
///
///   normalised = work time x kNominalSliceS / (mean slice time)
///
/// A drift that slows the workload slows the slices next to it as well
/// and cancels; a change to BCE, which the kernel does not contain, shows
/// in full. The kernel mixes random read-modify-writes over a 4 MiB table
/// (last-level-cache bound) with a branchy floating-point chain, because
/// the emulator is sensitive to both.
///
/// Slices are taken from inside the workload: tick() is called from a
/// checkpoint hook or a trace sink, and fleet workers take theirs from a
/// profiling-timer signal (start_worker_probe()).

#include <atomic>
#include <chrono>
#include <cstdint>

namespace perfbench {

/// Seconds one probe slice takes at the nominal host speed. It only sets
/// the unit of the normalised times: it is the mean slice of a 4-core
/// Xeon KVM guest (2.1 GHz, gcc 12, Release) while the emulator runs.
inline constexpr double kNominalSliceS = 0.0027;
/// Work time between two slices taken by tick() on one thread.
inline constexpr double kProbeEveryS = 0.04;

/// Runs one probe slice on the calling thread and returns its seconds.
/// The thread's table is built, untimed, on its first call.
double probe_slice();

/// Slice totals of a run, fed from any number of threads.
class HostProbe {
 public:
  /// Totals at one instant; the difference of two marks is what was
  /// probed between them.
  struct Mark {
    std::int64_t slice_ns = 0;
    std::int64_t slices = 0;
  };

  /// From inside the workload, on the thread doing the work: runs a slice
  /// when kProbeEveryS has passed since this thread's last one.
  void tick();

  /// Counts slices taken elsewhere (by fleet workers).
  void add(Mark m) {
    slice_ns_ += m.slice_ns;
    slices_ += m.slices;
  }

  [[nodiscard]] Mark mark() const {
    return {slice_ns_.load(), slices_.load()};
  }

 private:
  void record(double s);

  std::atomic<std::int64_t> slice_ns_{0};
  std::atomic<std::int64_t> slices_{0};
};

/// Fleet workers run BCE's shard loop, which offers no hook, so a worker
/// of a probed fleet run takes its slices from a profiling-timer signal,
/// one per kProbeEveryS of CPU time. The benchmark names a file in the
/// environment variable kWorkerProbeEnv for the run; each worker appends
/// one "<slices> <slice_ns>" line to it when it exits.
inline constexpr const char* kWorkerProbeEnv = "PERFBENCH_WORKER_PROBE";

/// In a worker process: starts the signal probe when kWorkerProbeEnv is
/// set. finish_worker_probe() stops it and appends the worker's line.
void start_worker_probe();
void finish_worker_probe();

/// Work time \p work_s at the nominal host speed, given the slices taken
/// from \p from to \p to. No slices leaves the time as measured.
double normalise(double work_s, HostProbe::Mark from, HostProbe::Mark to);

/// Seconds of the slices taken from \p from to \p to, summed over threads.
double probed_s(HostProbe::Mark from, HostProbe::Mark to);

/// One timed iteration: its work time as measured, without the probe
/// slices taken inside it, and at the nominal host speed.
struct Timing {
  double raw_s = 0.0;
  double norm_s = 0.0;
};

/// Times \p body, which returns its own wall seconds and ticks \p probe
/// from inside on its \p threads threads. Each thread's slices are taken
/// out of the wall time as threads share it: their sum over \p threads.
template <class F>
Timing probed(HostProbe& probe, unsigned threads, F&& body) {
  const HostProbe::Mark from = probe.mark();
  const double wall_s = body();
  const HostProbe::Mark to = probe.mark();
  const double work_s =
      wall_s - probed_s(from, to) / static_cast<double>(threads);
  return {work_s, normalise(work_s, from, to)};
}

}  // namespace perfbench
