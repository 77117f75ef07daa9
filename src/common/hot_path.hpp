// SIRIUS_HOT: the slot-kernel hot-path annotation.
//
// Sirius schedules in nanosecond-granularity slots, so the per-slot code —
// the SiriusSim transmit/land/deliver loop, the Node VOQ enqueue/dequeue,
// the cc RequestGrant grant path, the CyclicSchedule lookup — runs on a
// budget where a single heap allocation or virtual dispatch is visible in
// throughput. ROADMAP item 2 will rewrite that code around one pooled
// queue store, which is only tractable if the hot set is statically known
// and statically cheap.
//
// Marking a function head SIRIUS_HOT declares it a hot-path entry point.
// sirius-lint builds a conservative name-keyed call graph over the scanned
// tree, walks reachability from every SIRIUS_HOT head, and rejects, in the
// reachable set (docs/STATIC_ANALYSIS.md has the full table):
//
//   hot-path-alloc    new/malloc/make_*, growth calls (push_back, emplace,
//                     resize, ...) on containers with no reserve()/resize()
//                     site anywhere in the tree, std::function construction
//   hot-path-virtual  calls to virtual methods not marked final (and whose
//                     class is not final)
//   hot-path-throw    throw, .at(), stdio
//   hot-path-copy     by-value indexed-container parameters
//
// The contract: annotate the *entry points* (the roots the slot loop calls
// directly); reachability takes care of the callees. Epoch-rate, flow-rate,
// and fault-rate code must NOT be annotated — the point is to keep the
// per-slot set small enough to be provably allocation-free. Justified
// exceptions (e.g. a deque push on a fault-recovery path) carry an
// inline suppression comment and an ALLOWLIST.md entry.
//
// At runtime the macro is `__attribute__((hot))` under GCC/Clang — a
// codegen hint that the determinism tests show is behaviour-neutral — and
// nothing elsewhere.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define SIRIUS_HOT __attribute__((hot))
#else
#define SIRIUS_HOT
#endif
