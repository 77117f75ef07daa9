#include "common/invariant.hpp"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <utility>

namespace sirius::check {

namespace {

// Kept out of the class so the header stays dependency-free for the hot
// paths that include it (common/time.hpp is pulled in nearly everywhere).
// The invariant registry is deliberately process-wide — it aggregates
// violations across every sim in the process — and is safe for concurrent
// runs: atomics for the counters, mutexes for the report/hook lists.
// sirius-lint: allow(no-mutable-global-state)
std::atomic<InvariantMode> g_mode{InvariantMode::kAbort};
// sirius-lint: allow(no-mutable-global-state)
std::atomic<std::int64_t> g_violations{0};
// sirius-lint: allow(no-mutable-global-state)
std::mutex g_reports_mutex;
std::vector<Violation>& retained() {
  // sirius-lint: allow(no-mutable-global-state) -- guarded by g_reports_mutex
  static std::vector<Violation> reports;
  return reports;
}

// sirius-lint: allow(no-mutable-global-state)
std::mutex g_hook_mutex;
std::function<void()>& failure_hook() {
  // sirius-lint: allow(no-mutable-global-state) -- guarded by g_hook_mutex
  static std::function<void()> hook;
  return hook;
}
// Guards against a hook that itself trips an invariant (the flight
// recorder's dump path must never recurse back into fail()). thread_local,
// so each thread running a sim gets its own recursion latch.
// sirius-lint: allow(no-mutable-global-state)
thread_local bool g_in_failure_hook = false;

void run_failure_hook() {
  if (g_in_failure_hook) return;
  std::function<void()> hook;
  {
    const std::lock_guard<std::mutex> lock(g_hook_mutex);
    hook = failure_hook();
  }
  if (!hook) return;
  g_in_failure_hook = true;
  hook();
  g_in_failure_hook = false;
}

}  // namespace

InvariantContext& InvariantContext::instance() {
  // Meyers singleton over the thread-safe registry above; the object itself
  // is stateless (all state lives in the guarded globals).
  // sirius-lint: allow(no-mutable-global-state)
  static InvariantContext ctx;
  return ctx;
}

InvariantMode InvariantContext::mode() const {
  return g_mode.load(std::memory_order_relaxed);
}

void InvariantContext::set_mode(InvariantMode m) {
  g_mode.store(m, std::memory_order_relaxed);
}

std::int64_t InvariantContext::violations() const {
  return g_violations.load(std::memory_order_relaxed);
}

std::vector<Violation> InvariantContext::reports() const {
  const std::lock_guard<std::mutex> lock(g_reports_mutex);
  return retained();
}

void InvariantContext::reset() {
  const std::lock_guard<std::mutex> lock(g_reports_mutex);
  g_violations.store(0, std::memory_order_relaxed);
  retained().clear();
}

std::string InvariantContext::report() const {
  const std::lock_guard<std::mutex> lock(g_reports_mutex);
  std::string out = "invariant violations: ";
  out.append(std::to_string(g_violations.load()));
  out.push_back('\n');
  for (const Violation& v : retained()) {
    out.append("  ");
    out.append(v.file);
    out.push_back(':');
    out.append(std::to_string(v.line));
    out.append(": ");
    out.append(v.message);
    out.push_back('\n');
  }
  return out;
}

void InvariantContext::fail(const char* file, int line, const char* expr,
                            const char* fmt, ...) {
  char buf[512];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);

  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (mode() == InvariantMode::kCollect) {
    {
      const std::lock_guard<std::mutex> lock(g_reports_mutex);
      if (retained().size() < kMaxRetained) {
        retained().push_back(Violation{
            file, line, std::string(expr) + " — " + buf});
      }
    }
    run_failure_hook();
    return;
  }
  std::fprintf(stderr, "SIRIUS_INVARIANT failed at %s:%d: %s — %s\n", file,
               line, expr, buf);
  run_failure_hook();
  std::abort();
}

void InvariantContext::set_failure_hook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(g_hook_mutex);
  failure_hook() = std::move(hook);
}

ScopedCollect::ScopedCollect()
    : saved_(InvariantContext::instance().mode()),
      baseline_(InvariantContext::instance().violations()) {
  InvariantContext::instance().set_mode(InvariantMode::kCollect);
}

ScopedCollect::~ScopedCollect() {
  InvariantContext::instance().set_mode(saved_);
  InvariantContext::instance().reset();
}

std::int64_t ScopedCollect::violations() const {
  return InvariantContext::instance().violations() - baseline_;
}

}  // namespace sirius::check
