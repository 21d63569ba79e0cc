#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/state_io.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string describe_samples(const std::string& name,
                             const std::vector<double>& v) {
  char buf[160];
  const double n = static_cast<double>(v.size());
  // Highest whole percentile p with n * (1 - p/100) >= 10 samples beyond.
  const double p = n > 0.0 ? std::floor(100.0 * (1.0 - 10.0 / n)) : 0.0;
  if (p > 50.0) {
    std::snprintf(buf, sizeof buf, "%s best=%.6g median=%.6g p%.0f=%.6g n=%zu",
                  name.c_str(), best(v), median(v), p,
                  quantile(v, p / 100.0), v.size());
  } else {
    std::snprintf(buf, sizeof buf, "%s best=%.6g median=%.6g tail=none n=%zu",
                  name.c_str(), best(v), median(v), v.size());
  }
  return buf;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

std::vector<std::uint8_t> figures_bytes(const bce::Metrics& m) {
  bce::Metrics copy = m;
  copy.trace_events.fill(0);
  bce::StateWriter w;
  bce::save_metrics(w, copy);
  return w.payload();
}

std::uint64_t figures_hash(const bce::Metrics& m) {
  const std::vector<std::uint8_t> bytes = figures_bytes(m);
  return bce::fnv1a64_bytes(bytes.data(), bytes.size());
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void LayerTotals::add(const LayerClock& clock, const bce::EmulationResult& r) {
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    busy_s[l] += 1e-9 * static_cast<double>(clock.busy_ns(static_cast<Layer>(l)));
  }
  segments_s += 1e-9 * static_cast<double>(clock.segments_ns());
  for (const std::int64_t ns : clock.iter_ns()) {
    iter_us.push_back(1e-3 * static_cast<double>(ns));
  }
  const bce::Metrics& m = r.metrics;
  rr_runs += static_cast<double>(r.rr_cache.misses);
  rr_hits += static_cast<double>(r.rr_cache.hits);
  sched_passes += static_cast<double>(m.n_sched_passes);
  preemptions += static_cast<double>(m.n_preemptions);
  rpcs += static_cast<double>(m.n_rpcs);
  work_requests += static_cast<double>(m.n_work_request_rpcs);
  useful_rpcs += static_cast<double>(clock.useful_rpcs());
  fetch_decisions +=
      static_cast<double>(clock.events(bce::TraceKind::kFetchRequest));
  jobs_dispatched += static_cast<double>(m.n_jobs_fetched);
  refused += static_cast<double>(clock.events(bce::TraceKind::kServerRefused));
  fault_retries += static_cast<double>(m.n_rpcs_lost + m.n_transfer_retries);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> per_layer_metrics(const LayerTotals& t, double per_iter,
                                      const TracedExtras& x,
                                      unsigned threads) {
  const double k = per_iter > 0.0 ? 1.0 / per_iter : 0.0;
  const double rr_busy = k * t.busy(Layer::kRrSim);
  const double js_busy = k * t.busy(Layer::kJobScheduler);
  const double named = t.segments_s - t.busy(Layer::kCoreSelf);
  const auto& items = x.controller_item_s;
  double item_sum = 0.0;
  for (const double s : items) item_sum += s;
  return {
      {"rr_sim.runs", k * t.rr_runs, "count"},
      {"rr_sim.memo_hit_ratio", ratio(t.rr_hits, t.rr_hits + t.rr_runs),
       "ratio"},
      {"rr_sim.busy_s", rr_busy, "s"},
      {"rr_sim.us_per_run", 1e6 * ratio(rr_busy, k * t.rr_runs), "us"},
      {"job_scheduler.passes", k * t.sched_passes, "count"},
      {"job_scheduler.busy_s", js_busy, "s"},
      {"job_scheduler.us_per_pass", 1e6 * ratio(js_busy, k * t.sched_passes),
       "us"},
      {"job_scheduler.preemptions", k * t.preemptions, "count"},
      {"core.loop_iters", k * static_cast<double>(t.iter_us.size()), "count"},
      {"core.iter_us_p50", quantile(t.iter_us, 0.50), "us"},
      {"core.iter_us_p99", quantile(t.iter_us, 0.99), "us"},
      {"core.self_s", k * t.busy(Layer::kCoreSelf), "s"},
      {"core.rpc_s", k * t.busy(Layer::kCoreRpc), "s"},
      {"core.rpcs", k * t.rpcs, "count"},
      {"work_fetch.decisions", k * t.fetch_decisions, "count"},
      {"work_fetch.busy_s", k * t.busy(Layer::kWorkFetch), "s"},
      {"work_fetch.useful_ratio", ratio(t.useful_rpcs, t.work_requests),
       "ratio"},
      {"server.jobs_dispatched", k * t.jobs_dispatched, "count"},
      {"server.busy_s", k * t.busy(Layer::kServer), "s"},
      {"server.refused", k * t.refused, "count"},
      {"fault.retries", k * t.fault_retries, "count"},
      {"savestate.captures", x.savestate_captures, "count"},
      {"savestate.capture_s", x.savestate_capture_s, "s"},
      {"savestate.bytes_last", x.savestate_bytes_last, "bytes"},
      {"savestate.restore_ms", x.savestate_restore_ms, "ms"},
      {"controller.item_s_p50", quantile(items, 0.50), "s"},
      {"controller.item_s_p90", quantile(items, 0.90), "s"},
      {"controller.item_s_sum", item_sum, "s"},
      {"controller.parallel_eff",
       ratio(item_sum, static_cast<double>(threads) * x.controller_wall_s),
       "ratio"},
      {"fleet.host_s_sum", x.fleet_host_s_sum, "s"},
      {"fleet.host_s_max", x.fleet_host_s_max, "s"},
      {"fleet.balance_eff",
       ratio(std::max(x.fleet_host_s_max,
                      x.fleet_host_s_sum / static_cast<double>(threads)),
             x.fleet_wall_s),
       "ratio"},
      {"fleet.supervisor_s",
       x.fleet_wall_w1_s > 0.0 ? x.fleet_wall_w1_s - x.fleet_host_s_sum : 0.0,
       "s"},
      {"fleet.task_bytes", x.fleet_task_bytes, "bytes"},
      {"fleet.output_bytes", x.fleet_output_bytes, "bytes"},
      {"fleet.attempts", x.fleet_attempts, "count"},
      {"fleet.hosts_lost", x.fleet_hosts_lost, "count"},
      {"fleet.wall_w1_s", x.fleet_wall_w1_s, "s"},
      {"fleet.speedup", ratio(x.fleet_wall_w1_s, x.fleet_wall_s), "ratio"},
      {"fleet.eff",
       ratio(x.fleet_wall_w1_s,
             static_cast<double>(threads) * x.fleet_wall_s),
       "ratio"},
      {"setup.parse_ms", x.setup_parse_ms, "ms"},
      {"setup.sample_ms", x.setup_sample_ms, "ms"},
      {"setup.construct_ms", x.setup_construct_ms, "ms"},
      {"trace.overhead_frac",
       x.untraced_wall_s > 0.0 ? x.traced_wall_s / x.untraced_wall_s - 1.0
                               : 0.0,
       "ratio"},
      {"trace.attributed_frac", ratio(named, t.segments_s), "ratio"},
      {"trace.untraced_wall_s", x.untraced_wall_s, "s"},
      {"trace.wall_s", k * t.traced_wall_s, "s"},
      {"trace.segments_s", k * t.segments_s, "s"},
  };
}

std::vector<Metric> end_to_end_metrics(const Samples& wall, double sim_days,
                                       double setup_s) {
  const double norm_wall_s = median(wall.norm_s);
  return {
      {"norm_wall_s", norm_wall_s, "s"},
      {"norm_sim_days_per_s", ratio(sim_days, norm_wall_s), "day/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", wall.rss_mb, "MB"},
  };
}

std::vector<std::string> describe_run(const Samples& wall,
                                      const HostProbe& probe) {
  const HostProbe::Mark m = probe.mark();
  const double slice_ms =
      m.slices > 0 ? 1e3 * probed_s({}, m) / static_cast<double>(m.slices)
                   : 0.0;
  char line[96];
  std::snprintf(line, sizeof line,
                "warmup_s=%.6g probe_slices=%lld probe_slice_ms=%.6g",
                wall.warmup_s, static_cast<long long>(m.slices), slice_ms);
  return {describe_samples("norm_wall_s", wall.norm_s),
          describe_samples("raw_wall_s", wall.raw_s), line};
}

}  // namespace perfbench
