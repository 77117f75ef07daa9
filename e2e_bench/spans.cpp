#include "spans.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>

namespace e2e {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Open Tracer::begin(const char* name) {
  Open open{-1, 0};
  if (keep_) {
    open.index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(open.index);
  }
  open.start_ns = now_ns();
  if (keep_) spans_[static_cast<std::size_t>(open.index)].start_ns = open.start_ns;
  return open;
}

double Tracer::end(Open open) {
  const std::uint64_t t = now_ns();
  if (keep_ && open.index >= 0) {
    spans_[static_cast<std::size_t>(open.index)].end_ns = t;
    if (!stack_.empty() && stack_.back() == open.index) stack_.pop_back();
  }
  return static_cast<double>(t - open.start_ns) * 1e-9;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"schema\":\"sirius.e2e_spans.v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  if (!(statm >> size >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.minor_faults = ru.ru_minflt;
  u.involuntary_switches = ru.ru_nivcsw;
  return u;
}

}  // namespace e2e
