// End-to-end benchmark driver: one single-threaded process per run.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//   e2e_bench --self-test
//
// A run (1) feeds every output check a doctored input to prove it fires,
// (2) sets the workload up once, untimed, (3) makes one untimed warm-up pass
// that is checked in full and becomes the reference, then (4) for
// `--seconds` seconds repeats rounds of timed set-up repetitions, a bare pass
// and a profiled pass, checking every pass. The last stdout line is one JSON
// object: end-to-end metrics (medians over rounds and set-up repetitions)
// with --trace 0, per-layer metrics with --trace 1. See README.md.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"profiled_run_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"workload.generate_ms", "ms"},
    {"sim.construct_ms", "ms"},
    {"sim.construct_rss_mb", "MB"},
    {"sim.slots", "count"},
    {"sim.cell_hops", "count"},
    {"sim.cells_delivered", "count"},
    {"sim.ns_per_slot", "ns/slot"},
    {"sim.ns_per_cell_hop", "ns/hop"},
    {"sim.uplink_busy_ratio", "ratio"},
    {"sim.transmit_ns_per_slot", "ns/slot"},
    {"sim.land_ns_per_slot", "ns/slot"},
    {"sim.deliver_ns_per_cell", "ns/cell"},
    {"cc.requests", "count"},
    {"cc.grants", "count"},
    {"cc.grants_denied_q", "count"},
    {"cc.grant_ratio", "ratio"},
    {"cc.epoch_ns_per_round", "ns/round"},
    {"node.queue_peak_kb", "KB"},
    {"node.reorder_peak_kb", "KB"},
    {"esn.recomputes", "count"},
    {"esn.ns_per_recompute", "ns/recompute"},
    {"esn.osub_recomputes", "count"},
    {"esn.osub_ns_per_recompute", "ns/recompute"},
    {"core.sirius_s", "s"},
    {"core.sirius_ideal_s", "s"},
    {"core.esn_s", "s"},
    {"core.esn_osub_s", "s"},
    {"ckpt.snapshots", "count"},
    {"ckpt.bytes", "B"},
    {"ckpt.serialize_ns_per_byte", "ns/B"},
    {"ckpt.frame_ns_per_byte", "ns/B"},
    {"ckpt.parse_ns_per_byte", "ns/B"},
    {"ckpt.restore_ns_per_byte", "ns/B"},
    {"ctrl.detection_rounds", "rounds"},
    {"ctrl.cells_dropped", "count"},
    {"ctrl.cells_retransmitted", "count"},
    {"ctrl.flows_rejected", "count"},
    {"ctrl.flows_aborted", "count"},
    {"ctrl.schedule_swaps", "count"},
    {"ctrl.failover_ns_per_round", "ns/round"},
    {"check.audit_ns_per_slot", "ns/slot"},
    {"telemetry.overhead_pct", "%"},
    {"telemetry.scope_calls", "count"},
    {"proc.minor_faults", "count"},
    {"proc.involuntary_switches", "count"},
};

/// Every round repeats the set-up until both limits are met, so setup_s is
/// a median over many repetitions spread across the whole run, taken under
/// the same host conditions as run_s, and rests on far more than 10 ms of
/// work even where one set-up takes a few milliseconds.
constexpr int kSetupRepsPerRound = 3;
constexpr double kSetupSecondsPerRound = 0.1;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>]\n       %s --self-test\n"
               "workloads:",
               argv0, argv0);
  for (const std::string& n : e2e::workload_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_int(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

void report_errors(const char* what, const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::fprintf(stderr, "%s: %s\n", what, e.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string spans_out;
  long long seed = -1;
  long long seconds = -1;
  long long trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      const std::vector<std::string> st = e2e::self_test();
      report_errors("self-test", st);
      std::printf("self-test: %s\n", st.empty() ? "every check fired" : "FAILED");
      return st.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      name = v;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else if (a == "--seed") {
      if (!parse_int(v, 0, 1LL << 62, &seed)) return usage(argv[0]);
    } else if (a == "--seconds") {
      if (!parse_int(v, 1, 3600, &seconds)) return usage(argv[0]);
    } else if (a == "--trace") {
      if (!parse_int(v, 0, 1, &trace)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0) return usage(argv[0]);
  std::unique_ptr<e2e::Workload> w =
      e2e::make_workload(name, static_cast<std::uint64_t>(seed));
  if (w == nullptr) return usage(argv[0]);

  const bool traced = trace == 1;
  e2e::Tracer tracer(traced);
  bool correct = true;

  // 1. The checks must fire on doctored inputs before they judge real ones.
  const std::vector<std::string> st = e2e::self_test();
  report_errors("self-test", st);
  if (!st.empty()) correct = false;

  // 2. One untimed set-up, so the inputs exist for the warm-up.
  std::map<std::string, std::vector<double>> layer_samples;
  const auto collect = [&layer_samples](const e2e::Layers& l) {
    for (const auto& [k, v] : l) layer_samples[k].push_back(v);
  };
  {
    e2e::Layers l;
    w->setup(tracer, l);
  }

  // 3. Untimed warm-up: the fully checked reference pass.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto account = [&](const e2e::Pass& p, const char* what) {
    attempted += p.attempted;
    failed += p.failed;
    report_errors(what, p.errors);
  };
  const e2e::Pass warm = w->warm_up(tracer);
  account(warm, "warm-up");
  for (const std::string& n : warm.notes) std::printf("%s\n", n.c_str());

  // 4. Timed rounds: set-up repetitions (each regenerates the inputs and
  //    constructs every simulator), a bare pass, then its profiled twin.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> profiled_s;
  const std::size_t spans_before_rounds = tracer.spans().size();
  const std::uint64_t start = e2e::now_ns();
  const double budget = static_cast<double>(seconds);
  do {
    double round_setup = 0.0;
    for (int rep = 0;
         rep < kSetupRepsPerRound || round_setup < kSetupSecondsPerRound;
         ++rep) {
      e2e::Layers l;
      const std::uint64_t t0 = e2e::now_ns();
      w->setup(tracer, l);
      const double dt = static_cast<double>(e2e::now_ns() - t0) * 1e-9;
      // Hand the freed simulators' memory back to the kernel, so every
      // repetition touches fresh pages as a construction in a new process
      // does, instead of some reusing a warm heap and some not.
      malloc_trim(0);
      setup_s.push_back(dt);
      round_setup += dt;
      collect(l);
    }
    e2e::Layers bare_layers;
    e2e::Layers prof_layers;
    const e2e::Pass bare = w->pass(tracer, false, traced ? &bare_layers : nullptr);
    const e2e::Pass prof = w->pass(tracer, true, traced ? &prof_layers : nullptr);
    account(bare, "bare pass");
    account(prof, "profiled pass");
    run_s.push_back(bare.run_s);
    profiled_s.push_back(prof.run_s);
    if (traced) {
      collect(bare_layers);
      collect(prof_layers);
      layer_samples["telemetry.overhead_pct"].push_back(
          (prof.run_s / bare.run_s - 1.0) * 100.0);
    }
  } while (static_cast<double>(e2e::now_ns() - start) * 1e-9 < budget);

  const std::vector<std::string> guards = w->guard_failures();
  report_errors("layer guard", guards);
  if (!guards.empty()) correct = false;

  const e2e::ProcUsage usage_now = e2e::proc_usage();
  std::map<std::string, double> values;
  if (traced) {
    for (const auto& [k, v] : layer_samples) values[k] = median(v);
    values["proc.minor_faults"] = static_cast<double>(usage_now.minor_faults);
    values["proc.involuntary_switches"] =
        static_cast<double>(usage_now.involuntary_switches);
    if (!spans_out.empty() && !tracer.write_json(spans_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
      correct = false;
    }
    // The spans' own cost, measured on a scratch tracer, against the
    // median round they instrument.
    e2e::Tracer probe(true);
    constexpr int kProbeSpans = 10'000;
    const std::uint64_t p0 = e2e::now_ns();
    for (int i = 0; i < kProbeSpans; ++i) probe.end(probe.begin("probe"));
    const double span_ns =
        static_cast<double>(e2e::now_ns() - p0) / kProbeSpans;
    const double spans_per_round =
        static_cast<double>(tracer.spans().size() - spans_before_rounds) /
        static_cast<double>(run_s.size());
    double setup_total = 0.0;
    for (const double d : setup_s) setup_total += d;
    const double round_ns =
        (median(run_s) + median(profiled_s) +
         setup_total / static_cast<double>(run_s.size())) *
        1e9;
    std::printf("tracing overhead: spans %.0f ns each, %.0f per round "
                "(%.5f%% of a round); profiler +%.2f%% (profiled vs bare "
                "pass)\n",
                span_ns, spans_per_round,
                span_ns * spans_per_round / round_ns * 100.0,
                values["telemetry.overhead_pct"]);
  } else {
    values["run_s"] = median(run_s);
    values["setup_s"] = median(setup_s);
    values["peak_rss_mb"] = usage_now.peak_rss_mb;
    values["profiled_run_s"] = median(profiled_s);
  }
  std::fprintf(stderr, "rounds (bare/profiled s):");
  for (std::size_t i = 0; i < run_s.size(); ++i) {
    std::fprintf(stderr, " %.4f/%.4f", run_s[i], profiled_s[i]);
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "%s seed %lld: %zu setup reps (median %.4f s [min %.4f max "
               "%.4f]), %zu rounds, run_s median %.4f [min %.4f max %.4f], "
               "profiled %.4f, %lld/%lld failed\n",
               name.c_str(), seed, setup_s.size(), median(setup_s),
               *std::min_element(setup_s.begin(), setup_s.end()),
               *std::max_element(setup_s.begin(), setup_s.end()),
               run_s.size(), median(run_s),
               *std::min_element(run_s.begin(), run_s.end()),
               *std::max_element(run_s.begin(), run_s.end()),
               median(profiled_s), static_cast<long long>(failed),
               static_cast<long long>(attempted));

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  const auto emit = [&](const Metric& m) {
    const auto it = values.find(m.name);
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, it == values.end() ? 0.0 : it->second,
                m.unit);
    first = false;
  };
  if (traced) {
    for (const Metric& m : kPerLayer) emit(m);
  } else {
    for (const Metric& m : kEndToEnd) emit(m);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
