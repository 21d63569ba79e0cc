#pragma once

/// \file layer_clock.hpp
/// Outside-in layer attribution for one emulation. The clock is a
/// TraceSink (attached through EmulationOptions::trace with every category
/// enabled) plus a main-loop boundary stamp (called from
/// Emulator::set_checkpoint_hook). Every stamp closes the segment that
/// began at the previous stamp and charges it to one layer:
///
///   closing event category      layer
///   rr_sim                      rr_sim
///   cpu_sched                   job_scheduler
///   work_fetch                  work_fetch
///   server                      server
///   rpc                         core.rpc
///   task / avail / fault        core.self
///   main-loop boundary          core.self
///   mark(layer)                 that layer (savestate capture, ...)
///
/// Segments are integer nanoseconds between consecutive stamps, so they
/// cover the clock's span from start() (or its first event) to its last
/// stamp without gaps or overlaps. Whether that span covers the traced
/// work is checked by the workloads against an interval they time
/// themselves. The attribution is as sharp as the event stream: a segment
/// closed by an rr_sim event also holds whatever ran since the previous
/// stamp (the event drain before the RR pass).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/trace.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kRrSim,
  kJobScheduler,
  kWorkFetch,
  kServer,
  kCoreRpc,
  kCoreSelf,
  kSavestate,
  kCount_,
};
inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount_);

class LayerClock final : public bce::TraceSink {
 public:
  using Clock = std::chrono::steady_clock;

  /// Open the first segment (call just before Emulator::run). A clock
  /// that was never started opens at its first event instead, and the
  /// time before that event is not charged (emulations run inside
  /// run_batch, where the benchmark cannot stamp the start).
  void start();
  /// Close the last segment into core.self (call just after run returns).
  void stop() { mark(Layer::kCoreSelf); }
  /// Main-loop boundary: closes a segment into core.self and records the
  /// loop iteration's duration.
  void boundary();
  /// Close the current segment into \p layer (also used for work timed
  /// around a public call made from the checkpoint hook, e.g.
  /// capture_savestate).
  void mark(Layer layer);

  void on_event(const bce::TraceEvent& ev) override;

  [[nodiscard]] std::int64_t busy_ns(Layer l) const {
    return busy_ns_[static_cast<std::size_t>(l)];
  }
  /// Sum of all segments: the span from the first to the last stamp.
  [[nodiscard]] std::int64_t segments_ns() const;
  [[nodiscard]] std::int64_t events(bce::TraceKind k) const {
    return events_[static_cast<std::size_t>(k)];
  }
  /// RPCs whose reply carried at least one job.
  [[nodiscard]] std::int64_t useful_rpcs() const { return useful_rpcs_; }
  /// Durations of the main-loop iterations (boundary to boundary, minus
  /// time marked to savestate), ns.
  [[nodiscard]] const std::vector<std::int64_t>& iter_ns() const {
    return iter_ns_;
  }

 private:
  bool started_ = false;
  Clock::time_point last_{};
  std::int64_t iter_acc_ns_ = 0;  ///< loop time since the last boundary
  std::array<std::int64_t, kNumLayers> busy_ns_{};
  std::array<std::int64_t, bce::kNumTraceKinds> events_{};
  std::int64_t useful_rpcs_ = 0;
  std::vector<std::int64_t> iter_ns_;
};

}  // namespace perfbench
