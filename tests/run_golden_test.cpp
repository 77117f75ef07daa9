// Golden run results: one line per canonical run pins the length and
// FNV-1a-64 digest of every flow's completion time, every SiriusSimResult
// and FailoverStats counter and the FCT summary against
// tests/golden/run_v1.txt, so a refactor that changes what any system
// computes cannot pass unnoticed. A justified update replaces the file's
// section with the lines this test prints on mismatch, and says why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "esn/fluid_sim.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"
#include "golden.hpp"

namespace sirius {
namespace {

// Appends ` key=value` pairs; doubles print with 17 significant digits,
// enough to round-trip every bit.
class Line {
 public:
  explicit Line(const std::string& run) { out_ << run; }

  Line& add(const char* key, std::int64_t v) {
    out_ << ' ' << key << '=' << v;
    return *this;
  }
  Line& add(const char* key, double v) {
    out_ << ' ' << key << '=' << std::setprecision(17) << v;
    return *this;
  }
  Line& add(const char* key, Time t) { return add(key, t.picoseconds()); }
  Line& add(const char* key, bool v) {
    return add(key, static_cast<std::int64_t>(v));
  }
  // "<length>:<digest>" of a sequence of 64-bit words.
  Line& add_digest(const char* key, const std::vector<std::int64_t>& words) {
    std::string bytes;
    for (const std::int64_t w : words) {
      auto u = static_cast<std::uint64_t>(w);
      for (int i = 0; i < 8; ++i, u >>= 8) {
        bytes.push_back(static_cast<char>(u & 0xffu));
      }
    }
    out_ << ' ' << key << '=' << words.size() << ':' << std::hex
         << std::setw(16) << std::setfill('0') << golden::fnv1a64(bytes)
         << std::dec << std::setfill(' ');
    return *this;
  }
  Line& add(const stats::FctSummary& f) {
    return add("completed", f.completed_flows)
        .add("short", f.short_flows)
        .add("short_p99_ms", f.short_fct_p99_ms)
        .add("short_p50_ms", f.short_fct_p50_ms)
        .add("short_mean_ms", f.short_fct_mean_ms)
        .add("all_p99_ms", f.all_fct_p99_ms)
        .add("all_mean_ms", f.all_fct_mean_ms);
  }

  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

std::string sirius_line(const std::string& run, const sim::SiriusSimConfig& cfg,
                        const workload::Workload& w) {
  const sim::SiriusSimResult r = sim::SiriusSim(cfg, w).run();
  std::vector<std::int64_t> completion;
  for (const Time t : r.per_flow_completion) {
    completion.push_back(t.picoseconds());
  }
  std::vector<std::int64_t> curve;
  for (const stats::RecoveryBin& b : r.recovery_curve) {
    curve.push_back(b.start.picoseconds());
    curve.push_back(std::bit_cast<std::int64_t>(b.goodput_normalized));
  }
  const sim::FailoverStats& fo = r.failover;
  const stats::RecoverySummary& rec = fo.recovery;
  Line line(run);
  line.add_digest("fct", completion)
      .add(r.fct)
      .add("goodput", r.goodput_normalized)
      .add("queue_pk_kb", r.worst_node_queue_peak_kb)
      .add("reorder_pk_kb", r.worst_reorder_peak_kb)
      .add("slots", r.slots_simulated)
      .add("cells", r.cells_delivered)
      .add("incomplete", r.incomplete_flows)
      .add("rejected", r.rejected_flows)
      .add("end_ps", r.sim_end)
      .add("requests", r.requests_sent)
      .add("grants", r.grants_issued)
      .add("denied_q", r.grants_denied_q)
      .add("released", r.grants_released)
      .add("tx_relay", r.slots_tx_relay)
      .add("tx_first", r.slots_tx_first)
      .add("dropped", fo.cells_dropped)
      .add("retx", fo.cells_retransmitted)
      .add("retx_abandoned", fo.retx_abandoned)
      .add("duplicates", fo.duplicates_discarded)
      .add("aborted", fo.flows_aborted)
      .add("swaps", fo.schedule_swaps)
      .add("detect_rounds", fo.detection_rounds)
      .add("dissem_rounds", fo.dissemination_rounds)
      .add("detect_ps", fo.detection_latency)
      .add("dissem_ps", fo.dissemination_latency)
      .add("dip_floor", rec.dip_floor_frac)
      .add("dip_ps", rec.dip_width)
      .add("recover_ps", rec.time_to_recover)
      .add("baseline", rec.baseline)
      .add("recovered", rec.recovered)
      .add_digest("curve", curve);
  return line.str();
}

std::string esn_line(const std::string& run, std::int32_t oversub,
                     const sim::SiriusSimConfig& net,
                     const workload::Workload& w) {
  esn::EsnConfig cfg;
  cfg.racks = net.racks;
  cfg.servers_per_rack = net.servers_per_rack;
  cfg.server_rate = net.server_share();
  cfg.oversubscription = oversub;
  const esn::EsnSimResult r = esn::EsnFluidSim(cfg, w).run();
  Line line(run);
  line.add(r.fct)
      .add("goodput", r.goodput_normalized)
      .add("completed_flows", r.completed_flows)
      .add("end_ps", r.sim_end);
  return line.str();
}

sim::SiriusSimConfig net(std::int32_t racks) {
  sim::SiriusSimConfig cfg;
  cfg.racks = racks;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.seed = 5;
  return cfg;
}

workload::Workload make_wl(const sim::SiriusSimConfig& cfg, double load,
                           std::int64_t flows) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(2);
  g.seed = 21;
  return workload::generate(g);
}

TEST(RunGolden, ResultsMatchReference) {
  std::vector<std::string> got;

  const auto rg = net(64);
  const auto rg_wl = make_wl(rg, 0.6, 1200);
  got.push_back(sirius_line("rg_64rack", rg, rg_wl));

  auto ideal = net(32);
  ideal.ideal = true;
  const auto small_wl = make_wl(ideal, 0.6, 800);
  got.push_back(sirius_line("ideal_32rack", ideal, small_wl));

  auto direct = net(32);
  direct.routing = sim::RoutingMode::kDirect;
  got.push_back(sirius_line("direct_32rack", direct, small_wl));

  // Rack 5 fail-stops at 40 us and rejoins at 200 us; link 1->2 drops
  // 30 % of its bursts over 60-160 us.
  auto faulted = net(32);
  faulted.record_recovery_curve = true;
  faulted.faults.fail_rack(5, Time::us(40), Time::us(200));
  faulted.faults.grey_link(1, 2, 0.3, Time::us(60), Time::us(160));
  got.push_back(sirius_line("faulted_32rack", faulted, small_wl));

  got.push_back(esn_line("esn_32rack", 1, ideal, small_wl));
  got.push_back(esn_line("esn_osub_32rack", 3, ideal, small_wl));

  golden::expect_section(got, std::string(SIRIUS_GOLDEN_DIR) + "/run_v1.txt",
                         "all", "run results");
}

}  // namespace
}  // namespace sirius
