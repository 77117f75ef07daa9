#include "stats/occupancy.hpp"

#include "ckpt/io.hpp"

namespace sirius::stats {

double OccupancyAggregator::mean_peak_bytes() const {
  if (entities_ == 0) return 0.0;
  return static_cast<double>(sum_peaks_.in_bytes()) /
         static_cast<double>(entities_);
}

template <class Io>
void ByteGauge::fields(Io& io) {
  io(current_);
  io(peak_);
  io.check(current_ >= DataSize::zero() && peak_ >= current_,
           "byte gauge state out of range");
}
template void ByteGauge::fields(ckpt::Writer&);
template void ByteGauge::fields(ckpt::Reader&);

template <class Io>
void OccupancyAggregator::fields(Io& io) {
  io(worst_peak_);
  io(sum_peaks_);
  io(entities_);
  io.check(worst_peak_ >= DataSize::zero() && sum_peaks_ >= DataSize::zero() &&
               entities_ >= 0,
           "occupancy aggregator state out of range");
}
template void OccupancyAggregator::fields(ckpt::Writer&);
template void OccupancyAggregator::fields(ckpt::Reader&);

}  // namespace sirius::stats
