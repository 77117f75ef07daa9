#include "stats/fct_tracker.hpp"

#include <utility>

#include "ckpt/io.hpp"

namespace sirius::stats {

void FctTracker::record(DataSize size, Time fct) {
  const double ms = fct.to_ms();
  all_ms_.add(ms);
  if (size.in_bytes() < kShortFlowBytes) {
    short_ms_.add(ms);
  }
  ++completed_;
}

FctSummary FctTracker::summarize() {
  FctSummary s;
  s.completed_flows = completed_;
  s.short_flows = static_cast<std::int64_t>(short_ms_.count());
  if (!short_ms_.empty()) {
    s.short_fct_p99_ms = short_ms_.percentile(99.0);
    s.short_fct_p50_ms = short_ms_.percentile(50.0);
    s.short_fct_mean_ms = short_ms_.mean();
  }
  if (!all_ms_.empty()) {
    s.all_fct_p99_ms = all_ms_.percentile(99.0);
    s.all_fct_mean_ms = all_ms_.mean();
  }
  return s;
}

template <class Io>
void FctTracker::fields(Io& io) {
  io.via(
      all_ms_.samples(),
      [this](std::vector<double> v) { all_ms_.set_samples(std::move(v)); },
      "fct all-flow samples");
  io.via(
      short_ms_.samples(),
      [this](std::vector<double> v) { short_ms_.set_samples(std::move(v)); },
      "fct short-flow samples");
  io(completed_);
  io.check(completed_ >= 0 &&
               all_ms_.count() == static_cast<std::size_t>(completed_) &&
               short_ms_.count() <= all_ms_.count(),
           "fct tracker state out of range");
}
template void FctTracker::fields(ckpt::Writer&);
template void FctTracker::fields(ckpt::Reader&);

}  // namespace sirius::stats
