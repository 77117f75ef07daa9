#include "stats/recovery.hpp"

#include <algorithm>
#include <utility>

#include "ckpt/io.hpp"

#include "common/invariant.hpp"

namespace sirius::stats {

RecoveryMeter::RecoveryMeter(std::int32_t servers, DataRate server_rate,
                             Time bin)
    : servers_(servers), server_rate_(server_rate), bin_(bin), series_(bin) {
  SIRIUS_INVARIANT(servers >= 1, "RecoveryMeter needs >= 1 server, got %d",
                   servers);
  SIRIUS_INVARIANT(bin > Time::zero(), "RecoveryMeter bin must be positive");
}

void RecoveryMeter::deliver(Time now, DataSize bytes) {
  series_.add(now, static_cast<double>(bytes.in_bytes()));
}

std::vector<RecoveryBin> RecoveryMeter::curve() const {
  const std::vector<double>& per_bin = series_.bins();
  std::vector<RecoveryBin> out;
  out.reserve(per_bin.size());
  const double capacity_bits =
      static_cast<double>(server_rate_.bits_per_sec()) * servers_ *
      bin_.to_sec();
  for (std::size_t i = 0; i < per_bin.size(); ++i) {
    RecoveryBin b;
    b.start = series_.bin_start(i);
    b.goodput_normalized =
        capacity_bits > 0.0 ? per_bin[i] * 8.0 / capacity_bits : 0.0;
    out.push_back(b);
  }
  return out;
}

RecoverySummary RecoveryMeter::analyze(Time fault_at, double recover_frac,
                                       Time until) const {
  RecoverySummary out;
  const std::vector<RecoveryBin> bins = curve();
  // Baseline: complete bins strictly before the fault.
  double pre_sum = 0.0;
  std::int64_t pre_n = 0;
  std::size_t first_post = bins.size();
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (bins[i].start + bin_ <= fault_at) {
      // Deterministic reduction: bins are iterated in dense index order on
      // the one thread that runs the sim, so the floating-point sum is
      // bit-identical run to run.
      // sirius-lint: allow(float-reduction-order)
      pre_sum += bins[i].goodput_normalized;
      ++pre_n;
    } else if (first_post == bins.size()) {
      first_post = i;
    }
  }
  if (pre_n == 0) return out;  // fault before any complete bin: undefined
  out.baseline = pre_sum / static_cast<double>(pre_n);
  if (out.baseline <= 0.0) return out;

  const double floor = recover_frac * out.baseline;
  double dip_floor = 1.0;
  Time dip_width = Time::zero();
  std::size_t last_bad = first_post;  // one past the last below-floor bin
  std::size_t end_i = first_post;     // one past the last counted bin
  for (std::size_t i = first_post; i < bins.size(); ++i) {
    if (bins[i].start + bin_ > until) break;  // drain tail: not a dip
    end_i = i + 1;
    const double frac = bins[i].goodput_normalized / out.baseline;
    dip_floor = std::min(dip_floor, frac);
    if (bins[i].goodput_normalized < floor) {
      dip_width = dip_width + bin_;
      last_bad = i + 1;
    }
  }
  out.dip_floor_frac = dip_floor;
  out.dip_width = dip_width;
  // Recovered = the window has post-fault bins and the final one is back
  // at or above the floor (the dip ended inside the window).
  if (end_i > first_post && last_bad < end_i) {
    out.recovered = true;
    const Time back_at = last_bad == first_post
                             ? fault_at
                             : bins[last_bad - 1].start + bin_;
    out.time_to_recover =
        back_at > fault_at ? back_at - fault_at : Time::zero();
  }
  return out;
}

template <class Io>
void RecoveryMeter::fields(Io& io) {
  constexpr const char* kGeometry =
      "recovery meter geometry does not match this run's config";
  io.expect(servers_, kGeometry);
  io.expect(server_rate_.bits_per_sec(), kGeometry);
  io.expect(bin_, kGeometry);
  io.via(
      series_.bins(),
      [this](std::vector<double> v) { series_.set_bins(std::move(v)); },
      "recovery curve bins");
}
template void RecoveryMeter::fields(ckpt::Writer&);
template void RecoveryMeter::fields(ckpt::Reader&);

}  // namespace sirius::stats
