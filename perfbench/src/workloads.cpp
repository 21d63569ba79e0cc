#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "client/policy_registry.hpp"
#include "core/controller.hpp"
#include "core/emulator.hpp"
#include "core/population.hpp"
#include "core/savestate.hpp"
#include "core/scenario_io.hpp"
#include "fleet/shard.hpp"
#include "fleet/shard_worker.hpp"
#include "fleet/supervisor.hpp"
#include "pins.hpp"
#include "probe.hpp"
#include "server/dispatch_policy.hpp"
#include "sim/logger.hpp"
#include "sim/state_io.hpp"
#include "sim/trace.hpp"

namespace perfbench {

namespace {

constexpr double kDay = bce::kSecondsPerDay;
constexpr std::size_t kSetupReps = 31;
constexpr double kSetupBurstS = 0.15;

/// Phases of one set-up, in seconds: parse, sample, construct.
using SetupPhases = std::array<double, 3>;

struct SetupTimes {
  double total_s = 0.0;
  double parse_ms = 0.0;
  double sample_ms = 0.0;
  double construct_ms = 0.0;
};

/// Set-up timing. The constructor's kSetupReps set-ups build the
/// workload's inputs and are not recorded (a warm-up). Each later burst
/// repeats the set-up for at least kSetupReps times and kSetupBurstS,
/// ticking a probe of its own between set-ups just as the workloads do,
/// and its set-ups are scaled to the nominal host speed by the burst's
/// mean slice. The figures are medians over all recorded set-ups.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<SetupPhases()> once)
      : once_(std::move(once)) {
    for (std::size_t i = 0; i < kSetupReps; ++i) once_();
  }

  void burst() {
    HostProbe probe;
    std::vector<SetupPhases> reps;
    const Clock::time_point t0 = Clock::now();
    while (reps.size() < kSetupReps || seconds_since(t0) < kSetupBurstS) {
      probe.tick();
      reps.push_back(once_());
    }
    const double scale = normalise(1.0, {}, probe.mark());
    for (const SetupPhases& p : reps) {
      raw_.push_back(p[0] + p[1] + p[2]);
      total_.push_back(scale * raw_.back());
      for (std::size_t k = 0; k < 3; ++k) parts_[k].push_back(scale * p[k]);
    }
  }

  [[nodiscard]] SetupTimes times() const {
    return {median(total_), 1e3 * median(parts_[0]),
            1e3 * median(parts_[1]), 1e3 * median(parts_[2])};
  }
  [[nodiscard]] std::string note() const {
    return describe_samples("raw_setup_s", raw_);
  }

 private:
  std::function<SetupPhases()> once_;
  std::vector<double> raw_;
  std::vector<double> total_;
  std::array<std::vector<double>, 3> parts_;
};

/// Checks one operation's figures against the reference: the workload's
/// pinned hash in full-size runs, else the first operation of the same
/// kind in this run.
class FigureCheck {
 public:
  FigureCheck(const Config& cfg, const char* key)
      : pinned_(cfg.quick ? std::optional<std::uint64_t>{}
                          : pinned_hash(cfg.workload, key)),
        key_(key) {}

  /// True when \p h is the expected hash.
  bool ok(std::uint64_t h) {
    if (!first_) first_ = h;
    return h == (pinned_ ? *pinned_ : *first_);
  }
  [[nodiscard]] std::string note() const {
    return std::string("figures ") + key_ + "=" +
           (first_ ? hex64(*first_) : std::string("none")) +
           (pinned_ ? " pinned=" + hex64(*pinned_) : " pinned=none");
  }

 private:
  std::optional<std::uint64_t> pinned_;
  std::optional<std::uint64_t> first_;
  const char* key_;
};

std::string scenario_path(const Config& cfg, const std::string& file) {
  return cfg.root + "/scenarios/" + file;
}

struct Traced {
  bce::EmulationResult result;
  /// Emulator::run() as timed around the call, independently of the clock.
  std::int64_t span_ns = 0;
};

/// One traced emulation: a LayerClock on every category, boundary stamps
/// from the checkpoint hook; \p on_boundary runs after each stamp. With
/// \p restore_from, the run resumes from that savestate and the restore's
/// duration is stored in \p restore_s.
Traced run_traced(
    const bce::Scenario& sc, const bce::EmulationOptions& base,
    LayerClock& clock,
    const std::function<void(bce::Emulator&)>& on_boundary = {},
    const std::vector<std::uint8_t>* restore_from = nullptr,
    double* restore_s = nullptr) {
  bce::Trace trace;
  trace.enable_all();
  trace.add_sink(&clock);
  bce::EmulationOptions opt = base;
  opt.trace = &trace;
  bce::Emulator em(sc, opt);
  if (restore_from != nullptr) {
    const Clock::time_point t0 = Clock::now();
    bce::restore_savestate(em, *restore_from);
    if (restore_s != nullptr) *restore_s = seconds_since(t0);
  }
  em.set_checkpoint_hook([&](bce::Emulator& e) {
    clock.boundary();
    if (on_boundary) on_boundary(e);
  });
  const Clock::time_point t0 = Clock::now();
  clock.start();
  Traced t{em.run(), 0};
  clock.stop();
  t.span_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count();
  return t;
}

/// How far a clock's segments may fall short of the span the workload
/// timed around them: the two clock reads at either end, plus room for the
/// thread being descheduled between them.
std::int64_t span_slack_ns(std::int64_t span_ns) {
  return 1'000'000 + span_ns / 1000;  // 1 ms + 0.1 %
}

/// Traced-run bookkeeping shared by the workloads: the clocks' totals, and
/// the coverage check. Each traced span is timed around its public call,
/// independently of the clock; the clock's segments must fall inside it
/// and cover all of it but span_slack_ns. A traced emulation that fails
/// the check counts as a failed operation.
struct TracedState {
  LayerTotals totals;
  TracedExtras extras;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  int traced_iters = 0;
  std::int64_t segment_errors = 0;

  /// One emulation traced by run_traced: segments must cover its run().
  void add(const LayerClock& clock, const Traced& t) {
    totals.add(clock, t.result);
    totals.traced_wall_s += 1e-9 * static_cast<double>(t.span_ns);
    const std::int64_t gap = t.span_ns - clock.segments_ns();
    if (gap < 0 || gap > span_slack_ns(t.span_ns)) ++segment_errors;
  }

  /// One run_batch call of \p batch_ns on \p threads threads. Its items'
  /// construction, priming and finalize happen outside any stamp, so the
  /// check is one-sided: each item's segments must fit in the batch, and
  /// all of them in threads x batch. The traced wall is threads x batch.
  void add_batch(const std::deque<LayerClock>& clocks,
                 const std::vector<bce::RunResult>& results,
                 std::int64_t batch_ns, unsigned threads) {
    const std::int64_t room = static_cast<std::int64_t>(threads) * batch_ns;
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      totals.add(clocks[i], results[i].result);
      sum += clocks[i].segments_ns();
      if (clocks[i].segments_ns() > batch_ns) ++segment_errors;
    }
    totals.traced_wall_s += 1e-9 * static_cast<double>(room);
    if (sum > room) ++segment_errors;
  }
};

/// The end-to-end metrics and detail lines of an untraced run.
void finish_untraced(Outcome& out, const Samples& wall,
                     const HostProbe& probe, double sim_days,
                     const SetupTimer& setup) {
  out.metrics = end_to_end_metrics(wall, sim_days, setup.times().total_s);
  for (std::string& line : describe_run(wall, probe)) {
    out.notes.push_back(std::move(line));
  }
  out.notes.push_back(setup.note());
}

void finish(Outcome& out, const Config& cfg, TracedState& ts,
            SetupTimer& setup_timer) {
  setup_timer.burst();
  const SetupTimes setup = setup_timer.times();
  ts.extras.setup_parse_ms = setup.parse_ms;
  ts.extras.setup_sample_ms = setup.sample_ms;
  ts.extras.setup_construct_ms = setup.construct_ms;
  ts.extras.untraced_wall_s = median(ts.untraced_s);
  ts.extras.traced_wall_s = median(ts.traced_s);
  out.metrics = per_layer_metrics(ts.totals, ts.traced_iters, ts.extras,
                                  cfg.threads);
  out.failed += ts.segment_errors;
  out.notes.push_back(describe_samples("untraced_s", ts.untraced_s));
  out.notes.push_back(describe_samples("traced_s", ts.traced_s));
  out.notes.push_back("segment_errors=" + std::to_string(ts.segment_errors));
}

/// A trace sink that only ticks a probe (used where a workload gives the
/// benchmark no checkpoint hook).
class ProbeSink final : public bce::TraceSink {
 public:
  explicit ProbeSink(HostProbe& probe) : probe_(probe) {}
  void on_event(const bce::TraceEvent& /*ev*/) override { probe_.tick(); }

 private:
  HostProbe& probe_;
};

// ---- s4_10d -----------------------------------------------------------------

Outcome run_s4_10d(const Config& cfg) {
  const double days = cfg.quick ? 1.0 : 10.0;
  bce::Scenario sc;
  const bce::EmulationOptions opt;
  SetupTimer setup([&]() -> SetupPhases {
    const Clock::time_point t0 = Clock::now();
    sc = bce::load_scenario_file(scenario_path(cfg, "scenario4.txt"));
    sc.duration = days * kDay;
    const double parse = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    const bce::Emulator em(sc, opt);
    return {parse, 0.0, seconds_since(t1)};
  });

  Outcome out;
  FigureCheck check(cfg, "emulation");
  TracedState ts;
  // One emulation; with \p ticked, it ticks that probe from its
  // checkpoint hook.
  const auto untraced = [&](HostProbe* ticked) {
    const Clock::time_point t0 = Clock::now();
    bce::Emulator em(sc, opt);
    if (ticked != nullptr) {
      em.set_checkpoint_hook([ticked](bce::Emulator&) { ticked->tick(); });
    }
    const bce::EmulationResult r = em.run();
    const double s = seconds_since(t0);
    ++out.attempted;
    if (!check.ok(figures_hash(r.metrics))) ++out.failed;
    return s;
  };
  if (!cfg.traced) {
    HostProbe probe;
    const Samples wall = sample_within(
        cfg.seconds, [&]() { untraced(nullptr); },
        [&]() {
          const Timing t =
              probed(probe, 1, [&]() { return untraced(&probe); });
          setup.burst();
          return t;
        });
    finish_untraced(out, wall, probe, days, setup);
  } else {
    repeat_within(cfg.seconds, [&]() {
      ts.untraced_s.push_back(untraced(nullptr));
      LayerClock clock;
      const Clock::time_point t0 = Clock::now();
      const Traced t = run_traced(sc, opt, clock);
      ts.traced_s.push_back(seconds_since(t0));
      ts.add(clock, t);
      ++ts.traced_iters;
      ++out.attempted;
      if (!check.ok(figures_hash(t.result.metrics))) ++out.failed;
    });
    finish(out, cfg, ts, setup);
  }
  out.notes.push_back(check.note());
  return out;
}

// ---- faulty_60d -------------------------------------------------------------

Outcome run_faulty_60d(const Config& cfg) {
  const double days = cfg.quick ? 6.0 : 60.0;
  bce::Scenario sc;
  const bce::EmulationOptions opt;
  SetupTimer setup([&]() -> SetupPhases {
    const Clock::time_point t0 = Clock::now();
    sc = bce::load_scenario_file(scenario_path(cfg, "faulty.txt"));
    sc.duration = days * kDay;
    const double parse = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    const bce::Emulator em(sc, opt);
    return {parse, 0.0, seconds_since(t1)};
  });

  Outcome out;
  FigureCheck check(cfg, "cold");
  double sim_days = 0.0;
  TracedState ts;

  // One iteration: the cold run captures a savestate at the first loop
  // boundary of every simulated day before the horizon; the last capture
  // is restored into a fresh Emulator and run to the end, and must
  // reproduce the cold run's figures. With \p ticked, both runs tick it
  // from their checkpoint hooks.
  const auto iteration = [&](bool traced, HostProbe* ticked) {
    std::vector<std::uint8_t> frame;
    double frame_at = 0.0;
    double next_capture = kDay;
    int captures = 0;
    LayerClock cold_clock;
    const auto capture = [&](bce::Emulator& e) {
      if (ticked != nullptr) ticked->tick();
      if (e.now() < next_capture || next_capture >= sc.duration) return;
      frame = bce::capture_savestate(e);
      frame_at = e.now();
      ++captures;
      while (next_capture <= e.now()) next_capture += kDay;
      if (traced) cold_clock.mark(Layer::kSavestate);
    };
    const Clock::time_point t0 = Clock::now();
    Traced cold_traced;
    bce::EmulationResult& cold = cold_traced.result;
    if (traced) {
      cold_traced = run_traced(sc, opt, cold_clock, capture);
    } else {
      bce::Emulator em(sc, opt);
      em.set_checkpoint_hook(capture);
      cold = em.run();
    }
    out.attempted += 2;
    if (!check.ok(figures_hash(cold.metrics))) ++out.failed;
    if (frame.empty()) {
      ++out.failed;  // nothing to resume from: the check cannot pass
      return seconds_since(t0);
    }
    Traced resumed_traced;
    bce::EmulationResult& resumed = resumed_traced.result;
    if (traced) {
      LayerClock resume_clock;
      double restore_s = 0.0;
      resumed_traced =
          run_traced(sc, opt, resume_clock, {}, &frame, &restore_s);
      ts.extras.savestate_restore_ms = 1e3 * restore_s;
      ts.add(cold_clock, cold_traced);
      ts.add(resume_clock, resumed_traced);
      ts.extras.savestate_captures = captures;
      ts.extras.savestate_capture_s =
          1e-9 * static_cast<double>(cold_clock.busy_ns(Layer::kSavestate));
      ts.extras.savestate_bytes_last = static_cast<double>(frame.size());
    } else {
      bce::Emulator em(sc, opt);
      bce::restore_savestate(em, frame);
      if (ticked != nullptr) {
        em.set_checkpoint_hook(
            [ticked](bce::Emulator&) { ticked->tick(); });
      }
      resumed = em.run();
    }
    if (figures_hash(resumed.metrics) != figures_hash(cold.metrics)) {
      ++out.failed;
    }
    sim_days = days + (sc.duration - frame_at) / kDay;
    return seconds_since(t0);
  };

  if (!cfg.traced) {
    HostProbe probe;
    const Samples wall = sample_within(
        cfg.seconds, [&]() { iteration(false, nullptr); },
        [&]() {
          const Timing t =
              probed(probe, 1, [&]() { return iteration(false, &probe); });
          setup.burst();
          return t;
        });
    finish_untraced(out, wall, probe, sim_days, setup);
  } else {
    repeat_within(cfg.seconds, [&]() {
      ts.untraced_s.push_back(iteration(false, nullptr));
      ts.traced_s.push_back(iteration(true, nullptr));
      ++ts.traced_iters;
    });
    finish(out, cfg, ts, setup);
  }
  out.notes.push_back(check.note());
  return out;
}

// ---- pop16_fleet ------------------------------------------------------------

/// `bce fleet` population mode at its default population seed. The draw
/// is pinned rather than taken from the workload seed: which host lands in
/// the heavy tail sets the fleet's critical path, so wall time would vary
/// several-fold between seeds (README.md).
constexpr std::uint64_t kPopulationSeed = 1;
/// Host h of a population is drawn from its own stream, seeded
/// population_seed + kHostSeedStride * (h + 1) (the rule documented on
/// ShardTask). The traced run re-draws the hosts by this rule; the figure
/// check catches any drift from what the shards run.
constexpr std::uint64_t kHostSeedStride = 0x9e3779b97f4a7c15ull;

/// Where the workers of a probed fleet run report their probe slices: the
/// benchmark's build directory, next to its binary.
std::string worker_probe_path() {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  return exe.substr(0, exe.rfind('/') + 1) + "fleet_probe.txt";
}

struct WorkerSlices {
  HostProbe::Mark total;
  double max_worker_s = 0.0;
};

/// Sums the workers' "<slices> <slice_ns>" lines.
WorkerSlices read_worker_slices(const std::string& path) {
  WorkerSlices w;
  std::ifstream in(path);
  long long slices = 0;
  long long ns = 0;
  int workers = 0;
  while (in >> slices >> ns) {
    w.total.slices += slices;
    w.total.slice_ns += ns;
    w.max_worker_s = std::max(w.max_worker_s, 1e-9 * static_cast<double>(ns));
    ++workers;
  }
  if (workers == 0 || w.total.slices == 0) {
    throw std::runtime_error("fleet workers reported no probe slices");
  }
  return w;
}

Outcome run_pop16_fleet(const Config& cfg) {
  const std::uint64_t n_hosts = cfg.quick ? 4 : 16;
  bce::PopulationParams pp;
  pp.duration = (cfg.quick ? 0.25 : 1.0) * kDay;
  std::vector<bce::Scenario> hosts;
  std::vector<bce::ShardTask> tasks;
  double task_bytes = 0.0;
  SetupTimer setup([&]() -> SetupPhases {
    const Clock::time_point t0 = Clock::now();
    hosts.clear();
    for (std::uint64_t h = 0; h < n_hosts; ++h) {
      bce::Xoshiro256 rng(kPopulationSeed + kHostSeedStride * (h + 1));
      hosts.push_back(bce::sample_scenario(rng, pp));
    }
    const double sample = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    tasks = bce::make_population_shard_tasks(pp, n_hosts, kPopulationSeed,
                                             {}, 1);
    task_bytes = 0.0;
    for (const bce::ShardTask& t : tasks) {
      task_bytes += static_cast<double>(bce::serialize_shard_task(t).size());
    }
    return {0.0, sample, seconds_since(t1)};
  });

  Outcome out;
  FigureCheck check(cfg, "merged");
  const auto n = static_cast<std::int64_t>(n_hosts);

  // One supervised run at \p workers; counts its hosts, stores its wall
  // time, and returns the result when every host completed.
  const auto supervised =
      [&](unsigned workers, double* wall_s) -> std::optional<bce::ShardedResult> {
    bce::SupervisorConfig sup;
    sup.n_workers = workers;
    out.attempted += n;
    const Clock::time_point t0 = Clock::now();
    try {
      bce::ShardedResult res = bce::run_sharded(tasks, sup);
      *wall_s = seconds_since(t0);
      if (res.complete()) return res;
      out.failed += n - static_cast<std::int64_t>(res.hosts_done);
    } catch (const bce::ShardFailedError& e) {
      *wall_s = seconds_since(t0);
      out.failed += n;
      out.notes.push_back(std::string("shard failed: ") + e.what());
    }
    return std::nullopt;
  };

  // 1 worker, then cfg.threads workers: the merged figures must be
  // bitwise equal, and equal the pin.
  const auto one_vs_many = [&](double* w1_s, double* w4_s) {
    const auto r1 = supervised(1, w1_s);
    const auto r4 = supervised(cfg.threads, w4_s);
    if (r1 && r4 &&
        (figures_bytes(r1->merged) != figures_bytes(r4->merged) ||
         !check.ok(figures_hash(r4->merged)))) {
      out.failed += n;
    }
    return r4;
  };

  if (!cfg.traced) {
    // The timed run is the cfg.threads-worker one; its merged figures must
    // equal the pin (the traced run also checks 1 worker == cfg.threads
    // workers bitwise).
    const auto fleet_run = [&]() {
      double s = 0.0;
      const auto r = supervised(cfg.threads, &s);
      if (r && !check.ok(figures_hash(r->merged))) out.failed += n;
      return s;
    };
    // The fleet's work runs in the worker processes, which take their own
    // probe slices (probe.hpp). The critical path is the slowest worker,
    // so the work time leaves out the most any one worker spent probing.
    const std::string probe_path = worker_probe_path();
    HostProbe probe;
    const Samples wall = sample_within(
        cfg.seconds,
        [&]() {
          fleet_run();
          setenv(kWorkerProbeEnv, probe_path.c_str(), 1);
        },
        [&]() {
          std::remove(probe_path.c_str());
          const double s = fleet_run();
          const WorkerSlices w = read_worker_slices(probe_path);
          probe.add(w.total);
          const double work_s = s - w.max_worker_s;
          const Timing t{work_s, normalise(work_s, {}, w.total)};
          setup.burst();
          return t;
        });
    unsetenv(kWorkerProbeEnv);
    std::remove(probe_path.c_str());
    finish_untraced(out, wall, probe,
                    static_cast<double>(n_hosts) * pp.duration / kDay, setup);
    out.notes.push_back(check.note());
    return out;
  }

  TracedState ts;
  TracedExtras& x = ts.extras;
  repeat_within(cfg.seconds, [&]() {
    // Host by host: the shard in-process (no supervisor; host time from
    // on_host_done), then the same host traced, so each pair sees the
    // same host speed. Both fold the way the supervisor folds shards.
    bce::Metrics in_process;
    bce::Metrics traced_merged;
    std::vector<double> host_s;
    double traced_s = 0.0;
    double output_bytes = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Clock::time_point th = Clock::now();
      bce::ShardHooks hooks;
      hooks.on_host_done = [&](std::uint64_t) {
        host_s.push_back(seconds_since(th));
        th = Clock::now();
      };
      const bce::ShardOutput o = bce::run_shard(tasks[i], hooks);
      output_bytes +=
          static_cast<double>(bce::serialize_shard_output(o).size());
      in_process.merge(o.merged);

      LayerClock clock;
      const Clock::time_point t0 = Clock::now();
      const Traced t = run_traced(hosts[i], {}, clock);
      traced_s += seconds_since(t0);
      ts.add(clock, t);
      bce::Metrics shard;
      shard.merge(t.result.metrics);
      traced_merged.merge(shard);
    }
    out.attempted += 2 * n;
    if (!check.ok(figures_hash(in_process))) out.failed += n;
    if (!check.ok(figures_hash(traced_merged))) out.failed += n;

    double w1 = 0.0;
    double w4 = 0.0;
    const auto r4 = one_vs_many(&w1, &w4);

    double sum = 0.0;
    for (const double s : host_s) sum += s;
    ts.untraced_s.push_back(sum);
    ts.traced_s.push_back(traced_s);
    ++ts.traced_iters;
    x.fleet_host_s_sum = sum;
    x.fleet_host_s_max = *std::max_element(host_s.begin(), host_s.end());
    x.fleet_wall_s = w4;
    x.fleet_wall_w1_s = w1;
    x.fleet_task_bytes = task_bytes;
    x.fleet_output_bytes = output_bytes;
    x.fleet_hosts_lost = r4 ? static_cast<double>(r4->hosts_lost)
                            : static_cast<double>(n_hosts);
    x.fleet_attempts = 0.0;
    if (r4) {
      for (const bce::ShardReport& s : r4->shards) {
        x.fleet_attempts += s.attempts;
      }
    }
  });
  finish(out, cfg, ts, setup);
  out.notes.push_back(check.note());
  return out;
}

// ---- policy_grid ------------------------------------------------------------

Outcome run_policy_grid(const Config& cfg) {
  const double days = cfg.quick ? 1.0 : 10.0;
  // specs[i] is grid point order[i]: the grid is enumerated in a fixed
  // order (scenario, sched, fetch, dispatch) and submitted to run_batch in
  // a seed-drawn order, so each seed exercises another claiming order while
  // every grid point's figures stay pinned.
  std::vector<bce::RunSpec> specs;
  std::vector<std::size_t> order;
  std::vector<bce::Scenario> scenarios;
  SetupTimer setup([&]() -> SetupPhases {
    const Clock::time_point t0 = Clock::now();
    scenarios.clear();
    for (int i = 1; i <= 3; ++i) {
      bce::Scenario sc = bce::load_scenario_file(
          scenario_path(cfg, "scenario" + std::to_string(i) + ".txt"));
      sc.duration = days * kDay;
      scenarios.push_back(std::move(sc));
    }
    const double parse = seconds_since(t0);
    const Clock::time_point t1 = Clock::now();
    std::vector<bce::RunSpec> grid;
    const auto dispatches = bce::server_policy_registry().dispatch_entries();
    for (const bce::Scenario& sc : scenarios) {
      for (const bce::RunSpec& base : bce::policy_matrix_specs(sc)) {
        for (const auto& d : dispatches) {
          bce::RunSpec spec = base;
          spec.options.policy.dispatch_by_name = d.name;
          spec.label = sc.name + ":" + base.label + "+" + d.name;
          grid.push_back(std::move(spec));
        }
      }
    }
    order.resize(grid.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    bce::Xoshiro256 rng(cfg.seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
    specs.clear();
    for (const std::size_t g : order) specs.push_back(grid[g]);
    return {parse, 0.0, seconds_since(t1)};
  });

  Outcome out;
  const auto n = static_cast<std::int64_t>(specs.size());
  FigureCheck check(cfg, "grid");
  std::vector<std::uint64_t> reference;  // per-point hashes, first batch

  // Checks one batch's figures point by point against the first batch, and
  // the whole grid, in grid order, against the pin.
  const auto check_batch = [&](const std::vector<bce::RunResult>& results) {
    out.attempted += n;
    std::vector<std::uint64_t> hashes(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      hashes[order[i]] = figures_hash(results[i].result.metrics);
    }
    // The point hashes' in-memory bytes: the pin holds on little-endian
    // hosts.
    const std::uint64_t combined = bce::fnv1a64_bytes(
        reinterpret_cast<const std::uint8_t*>(hashes.data()),
        hashes.size() * sizeof(std::uint64_t));
    if (reference.empty()) reference = hashes;
    if (!check.ok(combined)) {
      out.failed += n;
      return;
    }
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      if (hashes[i] != reference[i]) ++out.failed;
    }
  };
  const auto untraced = [&](const std::vector<bce::RunSpec>& batch) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<bce::RunResult> results =
        bce::run_batch(batch, cfg.threads);
    const double s = seconds_since(t0);
    check_batch(results);
    return s;
  };

  if (!cfg.traced) {
    // run_batch gives no per-item hook, so the pool threads tick the probe
    // from a sink on the task events of every item. Built after the
    // warm-up, so the warm-up runs the plain specs.
    HostProbe probe;
    ProbeSink sink(probe);
    std::deque<bce::Trace> traces;
    std::vector<bce::RunSpec> ticking;
    const Samples wall = sample_within(
        cfg.seconds, [&]() { untraced(specs); },
        [&]() {
          if (ticking.empty()) {
            ticking = specs;
            for (bce::RunSpec& spec : ticking) {
              bce::Trace& trace = traces.emplace_back();
              trace.enable(bce::LogCategory::kTask);
              trace.add_sink(&sink);
              spec.options.trace = &trace;
            }
          }
          const Timing t = probed(probe, cfg.threads,
                                  [&]() { return untraced(ticking); });
          setup.burst();
          return t;
        });
    finish_untraced(out, wall, probe,
                    days * static_cast<double>(specs.size()), setup);
    out.notes.push_back(check.note());
    return out;
  }

  TracedState ts;
  repeat_within(cfg.seconds, [&]() {
    ts.untraced_s.push_back(untraced(specs));
    // run_batch gives no per-item hook, so each item's clock opens at its
    // first event and closes at its last one.
    std::deque<bce::Trace> traces(specs.size());
    std::deque<LayerClock> clocks(specs.size());
    std::vector<bce::RunSpec> traced = specs;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      traces[i].enable_all();
      traces[i].add_sink(&clocks[i]);
      traced[i].options.trace = &traces[i];
    }
    const Clock::time_point t0 = Clock::now();
    const std::vector<bce::RunResult> results =
        bce::run_batch(traced, cfg.threads);
    const std::int64_t batch_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count();
    const double wall = 1e-9 * static_cast<double>(batch_ns);
    ts.traced_s.push_back(wall);
    check_batch(results);
    ts.add_batch(clocks, results, batch_ns, cfg.threads);
    ts.extras.controller_item_s.clear();
    for (const LayerClock& c : clocks) {
      ts.extras.controller_item_s.push_back(
          1e-9 * static_cast<double>(c.segments_ns()));
    }
    ts.extras.controller_wall_s = wall;
    ++ts.traced_iters;
  });
  finish(out, cfg, ts, setup);
  out.notes.push_back(check.note());
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"s4_10d", false, &run_s4_10d},
      {"faulty_60d", false, &run_faulty_60d},
      {"pop16_fleet", true, &run_pop16_fleet},
      {"policy_grid", true, &run_policy_grid},
  };
  return kAll;
}

}  // namespace perfbench
