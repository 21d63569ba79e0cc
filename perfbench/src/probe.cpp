#include "probe.hpp"

#include <fcntl.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSliceSteps = 110'000;

constexpr std::size_t kTableWords = std::size_t{1} << 20;  // 4 MiB

/// The kernel's state on one thread. The table is built on first use, so
/// its page faults are never timed.
struct ProbeState {
  std::vector<std::uint32_t> table;
  std::uint32_t x = 0x9e3779b9u;
  double acc = 0.0;
};

thread_local ProbeState t_state;
thread_local Clock::time_point t_last_slice{};
thread_local bool t_probed = false;

void kernel(ProbeState& st) {
  std::uint32_t x = st.x;
  double acc = st.acc;
  std::uint32_t* table = st.table.data();
  for (int i = 0; i < kSliceSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    std::uint32_t& cell = table[(x >> 7) & (kTableWords - 1)];
    const std::uint32_t v = cell;
    if ((v ^ x) & 4u) {
      acc += std::sqrt(static_cast<double>(v & 0xffffu) + 1.0);
    } else {
      acc = acc * 0.999 - static_cast<double>(v >> 20) * 1e-3;
    }
    cell = v * 2654435761u + static_cast<std::uint32_t>(i);
  }
  st.x = x;
  st.acc = acc;
}

}  // namespace

double probe_slice() {
  ProbeState& st = t_state;
  if (st.table.empty()) {
    st.table.resize(kTableWords);
    for (std::size_t i = 0; i < kTableWords; ++i) {
      st.table[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
  }
  const Clock::time_point t0 = Clock::now();
  kernel(st);
  const Clock::time_point t1 = Clock::now();
  t_last_slice = t1;
  t_probed = true;
  return std::chrono::duration<double>(t1 - t0).count();
}

void HostProbe::record(double s) {
  slice_ns_ += static_cast<std::int64_t>(s * 1e9);
  ++slices_;
}

void HostProbe::tick() {
  if (t_probed && std::chrono::duration<double>(Clock::now() - t_last_slice)
                          .count() < kProbeEveryS) {
    return;
  }
  record(probe_slice());
}

namespace {

// The worker's signal probe. Lock-free atomics and clock_gettime are
// async-signal-safe, and the table is built before the timer starts.
std::atomic<std::int64_t> g_worker_slice_ns{0};
std::atomic<std::int64_t> g_worker_slices{0};
bool g_worker_probing = false;

extern "C" void on_profiling_signal(int /*sig*/) {
  const int saved = errno;
  g_worker_slice_ns += static_cast<std::int64_t>(probe_slice() * 1e9);
  ++g_worker_slices;
  errno = saved;
}

}  // namespace

void start_worker_probe() {
  if (std::getenv(kWorkerProbeEnv) == nullptr) return;
  // Builds this thread's table outside the signal handler; the slice it
  // times is the worker's first, so that even a short worker reports one.
  g_worker_slice_ns = static_cast<std::int64_t>(probe_slice() * 1e9);
  g_worker_slices = 1;
  struct sigaction sa {};
  sa.sa_handler = on_profiling_signal;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval every{};
  every.it_interval.tv_usec = static_cast<suseconds_t>(kProbeEveryS * 1e6);
  every.it_value = every.it_interval;
  setitimer(ITIMER_PROF, &every, nullptr);
  g_worker_probing = true;
}

void finish_worker_probe() {
  if (!g_worker_probing) return;
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_worker_probing = false;
  const char* path = std::getenv(kWorkerProbeEnv);
  const int fd = ::open(path, O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return;
  char line[64];
  const int len =
      std::snprintf(line, sizeof line, "%lld %lld\n",
                    static_cast<long long>(g_worker_slices.load()),
                    static_cast<long long>(g_worker_slice_ns.load()));
  if (len > 0) {
    [[maybe_unused]] const ssize_t w =
        ::write(fd, line, static_cast<std::size_t>(len));
  }
  ::close(fd);
}

double probed_s(HostProbe::Mark from, HostProbe::Mark to) {
  return 1e-9 * static_cast<double>(to.slice_ns - from.slice_ns);
}

double normalise(double work_s, HostProbe::Mark from, HostProbe::Mark to) {
  const std::int64_t n = to.slices - from.slices;
  if (n <= 0) return work_s;
  const double mean_slice = probed_s(from, to) / static_cast<double>(n);
  return work_s * kNominalSliceS / mean_slice;
}

}  // namespace perfbench
