#include "layer_clock.hpp"

#include <numeric>

namespace perfbench {

namespace {

Layer layer_of(bce::TraceKind kind) {
  switch (bce::trace_kind_category(kind)) {
    case bce::LogCategory::kRrSim:
      return Layer::kRrSim;
    case bce::LogCategory::kCpuSched:
      return Layer::kJobScheduler;
    case bce::LogCategory::kWorkFetch:
      return Layer::kWorkFetch;
    case bce::LogCategory::kServer:
      return Layer::kServer;
    case bce::LogCategory::kRpc:
      return Layer::kCoreRpc;
    default:
      return Layer::kCoreSelf;
  }
}

}  // namespace

void LayerClock::mark(Layer layer) {
  const Clock::time_point now = Clock::now();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
          .count();
  busy_ns_[static_cast<std::size_t>(layer)] += ns;
  if (layer != Layer::kSavestate) iter_acc_ns_ += ns;
  last_ = now;
}

void LayerClock::start() {
  started_ = true;
  last_ = Clock::now();
}

void LayerClock::boundary() {
  mark(Layer::kCoreSelf);
  iter_ns_.push_back(iter_acc_ns_);
  iter_acc_ns_ = 0;
}

void LayerClock::on_event(const bce::TraceEvent& ev) {
  if (started_) {
    mark(layer_of(ev.kind));
  } else {
    start();
  }
  ++events_[static_cast<std::size_t>(ev.kind)];
  if (ev.kind == bce::TraceKind::kRpcRoundTrip && ev.m > 0) ++useful_rpcs_;
}

std::int64_t LayerClock::segments_ns() const {
  return std::accumulate(busy_ns_.begin(), busy_ns_.end(), std::int64_t{0});
}

}  // namespace perfbench
