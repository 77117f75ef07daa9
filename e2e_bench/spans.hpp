// Benchmark-side spans and process probes.
//
// Every public call the benchmark makes into the simulator is bracketed by
// a span: a name, a host start and end time, and the span that was open
// when it began. Spans are always timed (the untraced run reads its
// end-to-end times from them) but are kept only when tracing is on; the
// kept spans stay in memory and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Host monotonic clock in nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  ///< index into spans(), -1 at the top level
  };
  /// Handle returned by begin(); pass it back to end().
  struct Open {
    std::int32_t index;
    std::uint64_t start_ns;
  };

  explicit Tracer(bool keep) : keep_(keep) {}

  Open begin(const char* name);
  /// Closes `open` and returns its duration in seconds. Spans close in
  /// LIFO order.
  double end(Open open);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the kept spans as one JSON document; false on an IO error.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool keep_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Resident set size of this process right now, in MB (/proc/self/statm).
[[nodiscard]] double current_rss_mb();

/// getrusage(RUSAGE_SELF) figures for the whole process so far.
struct ProcUsage {
  double peak_rss_mb = 0.0;
  std::int64_t minor_faults = 0;
  std::int64_t involuntary_switches = 0;
};
[[nodiscard]] ProcUsage proc_usage();

}  // namespace e2e
