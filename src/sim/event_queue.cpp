#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "common/invariant.hpp"

namespace sirius::sim {

void EventQueue::schedule_at(Time at, Handler h) {
  SIRIUS_INVARIANT(at >= now_,
                   "schedule_at(%lld ps) is in the past (now %lld ps)",
                   static_cast<long long>(at.picoseconds()),
                   static_cast<long long>(now_.picoseconds()));
  heap_.push(Entry{std::max(at, now_), next_seq_++, std::move(h)});
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // priority_queue::top returns const&; the handler is moved out via a
  // const_cast-free copy of the entry (handlers are cheap to move, but top
  // is const — copy, then pop).
  Entry e = heap_.top();
  heap_.pop();
  SIRIUS_INVARIANT(e.at >= now_,
                   "event time ran backwards: %lld ps after %lld ps",
                   static_cast<long long>(e.at.picoseconds()),
                   static_cast<long long>(now_.picoseconds()));
  now_ = std::max(e.at, now_);
  e.h();
  return true;
}

std::int64_t EventQueue::run_until(Time until) {
  std::int64_t executed = 0;
  while (!heap_.empty() && heap_.top().at <= until) {
    step();
    ++executed;
  }
  // Anchor now() at the horizon once it is reached (drained or not), so a
  // schedule_in() issued after the run measures from `until`, not from the
  // last event that happened to execute. An infinite horizon means "drain";
  // there the clock stays at the last executed event.
  if (!until.is_infinite() && now_ < until) now_ = until;
  return executed;
}

}  // namespace sirius::sim
