#include "stats/goodput.hpp"

#include "ckpt/io.hpp"

namespace sirius::stats {

double GoodputMeter::normalized(Time horizon) const {
  if (horizon <= Time::zero()) return 0.0;
  const double bits = static_cast<double>(delivered_.in_bits());
  const double capacity =
      static_cast<double>(server_rate_.bits_per_sec()) * servers_ *
      horizon.to_sec();
  return bits / capacity;
}

template <class Io>
void GoodputMeter::fields(Io& io) {
  constexpr const char* kGeometry =
      "goodput meter geometry does not match this run's config";
  io.expect(servers_, kGeometry);
  io.expect(server_rate_.bits_per_sec(), kGeometry);
  io(delivered_);
  io.check(delivered_ >= DataSize::zero(),
           "goodput meter delivered bytes negative");
}
template void GoodputMeter::fields(ckpt::Writer&);
template void GoodputMeter::fields(ckpt::Reader&);

}  // namespace sirius::stats
