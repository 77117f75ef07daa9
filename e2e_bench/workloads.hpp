// The three benchmark workloads. Each one generates its inputs from the
// seed, runs its simulations through public entry points only, checks the
// outputs (checks.hpp) and reports per-layer values for the traced run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace e2e {

/// Per-layer metric name -> value for one set-up repetition or one pass.
using Layers = std::map<std::string, double>;

/// What one pass over a workload's simulations did.
struct Pass {
  double run_s = 0.0;  ///< host time of the timed public calls
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< check failures, one line each
  /// Simulated figures of the warm-up pass (short-flow p99 FCT, goodput).
  std::vector<std::string> notes;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and constructs every simulator the workload runs
  /// (then drops them). Adds workload.generate_ms, sim.construct_ms and
  /// sim.construct_rss_mb to `layers`.
  virtual void setup(Tracer& t, Layers& layers) = 0;
  /// The untimed reference pass: checks everything and keeps the results
  /// later passes must reproduce.
  virtual Pass warm_up(Tracer& t) = 0;
  /// One timed pass. `profiled` attaches a hub with the profiler on to
  /// every simulation; `layers`, when non-null, receives per-layer values.
  virtual Pass pass(Tracer& t, bool profiled, Layers* layers) = 0;
  /// Layers the workload exists to exercise that did no work.
  [[nodiscard]] virtual std::vector<std::string> guard_failures() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace e2e
