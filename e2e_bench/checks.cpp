#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "esn/fluid_sim.hpp"
#include "workload/generator.hpp"

namespace e2e {

using sirius::DataRate;
using sirius::DataSize;
using sirius::Time;
namespace sim = sirius::sim;
namespace workload = sirius::workload;

namespace {

template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return buf;
}

long long ll(std::int64_t v) { return static_cast<long long>(v); }

}  // namespace

std::int64_t expected_cells(const workload::Workload& w,
                            std::int32_t servers_per_rack,
                            std::int64_t cell_bytes) {
  std::int64_t cells = 0;
  for (const workload::Flow& f : w.flows) {
    if (f.src_server / servers_per_rack == f.dst_server / servers_per_rack) {
      continue;
    }
    cells += (f.size.in_bytes() + cell_bytes - 1) / cell_bytes;
  }
  return cells;
}

std::string check_cell_ledger(std::int64_t delivered, std::int64_t tx_first,
                              std::int64_t tx_relay, std::int64_t expected) {
  if (delivered != expected) {
    return fmt("cells_delivered %lld != %lld expected from the workload",
               ll(delivered), ll(expected));
  }
  if (tx_first != delivered) {
    return fmt("first-hop transmissions %lld != delivered cells %lld",
               ll(tx_first), ll(delivered));
  }
  if (tx_relay > delivered) {
    return fmt("relay transmissions %lld exceed delivered cells %lld",
               ll(tx_relay), ll(delivered));
  }
  return {};
}

std::string check_completions(const workload::Workload& w,
                              const std::vector<Time>& completion,
                              std::int64_t expected_complete) {
  if (completion.size() != w.flows.size()) {
    return fmt("%lld completion times for %lld flows", ll(static_cast<std::int64_t>(completion.size())),
               ll(static_cast<std::int64_t>(w.flows.size())));
  }
  std::int64_t complete = 0;
  for (const workload::Flow& f : w.flows) {
    const Time done = completion[static_cast<std::size_t>(f.id)];
    if (done.is_infinite()) continue;
    ++complete;
    const std::int64_t floor_ps = f.size.in_bytes() * kNicPsPerByte;
    if ((done - f.arrival).picoseconds() < floor_ps) {
      return fmt("flow %lld (%lld B) completed %lld ps after arrival, under "
                 "its %lld ps NIC serialisation time",
                 ll(f.id), ll(f.size.in_bytes()),
                 ll((done - f.arrival).picoseconds()), ll(floor_ps));
    }
  }
  if (complete != expected_complete) {
    return fmt("%lld flows completed, expected %lld", ll(complete),
               ll(expected_complete));
  }
  return {};
}

std::string check_fault_free(const workload::Workload& w,
                             const sim::SiriusSimResult& r,
                             std::int64_t expected) {
  if (r.incomplete_flows != 0 || r.rejected_flows != 0) {
    return fmt("%lld incomplete and %lld rejected flows in a fault-free run",
               ll(r.incomplete_flows), ll(r.rejected_flows));
  }
  std::string e = check_completions(
      w, r.per_flow_completion, static_cast<std::int64_t>(w.flows.size()));
  if (e.empty()) {
    e = check_cell_ledger(r.cells_delivered, r.slots_tx_first,
                          r.slots_tx_relay, expected);
  }
  return e;
}

std::string check_resumed(const sim::SiriusSimResult& a,
                          const sim::SiriusSimResult& b) {
  if (a.per_flow_completion != b.per_flow_completion) {
    return "resumed per-flow completion times differ from the straight run";
  }
  const std::pair<const char*, std::pair<std::int64_t, std::int64_t>> fields[] = {
      {"cells_delivered", {a.cells_delivered, b.cells_delivered}},
      {"rejected_flows", {a.rejected_flows, b.rejected_flows}},
      {"cells_dropped", {a.failover.cells_dropped, b.failover.cells_dropped}},
      {"cells_retransmitted",
       {a.failover.cells_retransmitted, b.failover.cells_retransmitted}},
      {"retx_abandoned", {a.failover.retx_abandoned, b.failover.retx_abandoned}},
      {"duplicates_discarded",
       {a.failover.duplicates_discarded, b.failover.duplicates_discarded}},
      {"flows_aborted", {a.failover.flows_aborted, b.failover.flows_aborted}},
      {"schedule_swaps", {a.failover.schedule_swaps, b.failover.schedule_swaps}},
      {"detection_rounds",
       {a.failover.detection_rounds, b.failover.detection_rounds}},
      {"dissemination_rounds",
       {a.failover.dissemination_rounds, b.failover.dissemination_rounds}},
  };
  for (const auto& [name, v] : fields) {
    if (v.first != v.second) {
      return fmt("resumed %s %lld != straight %lld", name, ll(v.second),
                 ll(v.first));
    }
  }
  return {};
}

std::string check_identical(const sim::SiriusSimResult& a,
                            const sim::SiriusSimResult& b) {
  std::string e = check_resumed(a, b);
  if (!e.empty()) return e;
  if (a.slots_simulated != b.slots_simulated ||
      a.slots_tx_first != b.slots_tx_first ||
      a.slots_tx_relay != b.slots_tx_relay ||
      a.requests_sent != b.requests_sent ||
      a.grants_issued != b.grants_issued ||
      a.grants_denied_q != b.grants_denied_q ||
      a.worst_node_queue_peak_kb != b.worst_node_queue_peak_kb ||
      a.worst_reorder_peak_kb != b.worst_reorder_peak_kb ||
      a.fct.short_fct_p99_ms != b.fct.short_fct_p99_ms ||
      a.goodput_normalized != b.goodput_normalized) {
    return "slot, transmission, cc or summary counters differ between the "
           "two runs";
  }
  return {};
}

std::string check_framed(const std::string& framed,
                         const std::string& payload) {
  const sirius::ckpt::LoadResult r = sirius::ckpt::parse(framed);
  if (!r.ok()) return "parse(frame(p)) rejected: " + r.message;
  if (r.payload != payload) return "parse(frame(p)) != p";
  return {};
}

std::string check_esn_incast(std::int32_t oversub) {
  constexpr std::int32_t kRacks = 16;
  constexpr std::int32_t kPerRack = 8;
  constexpr std::int32_t kFlows = 8;
  constexpr std::int64_t kBytes = 64'000;
  const DataRate rate = DataRate::gbps(50);
  const Time base = Time::us(2);

  workload::Workload w;
  w.servers = kRacks * kPerRack;
  w.server_rate = rate;
  w.offered_load = 0.5;
  w.mean_flow_size = DataSize::bytes(kBytes);
  for (std::int32_t i = 0; i < kFlows; ++i) {
    workload::Flow f;
    f.id = i;
    f.size = DataSize::bytes(kBytes);
    f.arrival = Time::us(1);
    if (oversub == 1) {
      // One server of each of racks 1..k towards server 0: the destination
      // NIC is the only shared constraint.
      f.src_server = (i + 1) * kPerRack;
      f.dst_server = 0;
    } else {
      // Every server of rack 0 towards racks 1..k: rack 0's uplink
      // (kPerRack NICs / oversub) is the only shared constraint.
      f.src_server = i;
      f.dst_server = (i + 1) * kPerRack;
    }
    w.flows.push_back(f);
  }
  // Max-min: k flows split the bottleneck equally.
  const double nic_bps = 50e9;
  const double bottleneck_bps =
      oversub == 1 ? nic_bps : nic_bps * kPerRack / oversub;
  const double share_bps = std::min(nic_bps, bottleneck_bps / kFlows);
  const double expect_ms =
      static_cast<double>(kBytes) * 8.0 / share_bps * 1e3 + base.to_ms();

  sirius::esn::EsnConfig cfg;
  cfg.racks = kRacks;
  cfg.servers_per_rack = kPerRack;
  cfg.server_rate = rate;
  cfg.oversubscription = oversub;
  cfg.base_latency = base;
  sirius::esn::EsnFluidSim sim(cfg, w);
  const sirius::esn::EsnSimResult r = sim.run();
  if (r.completed_flows != kFlows) {
    return fmt("incast (oversub %d): %lld of %d flows completed", oversub,
               ll(r.completed_flows), kFlows);
  }
  // One picosecond of time resolution per flow, well under 1e-6 ms.
  constexpr double kTolMs = 1e-6;
  if (std::fabs(r.fct.all_fct_mean_ms - expect_ms) > kTolMs ||
      std::fabs(r.fct.all_fct_p99_ms - expect_ms) > kTolMs) {
    return fmt("incast (oversub %d): FCT mean %.9f / p99 %.9f ms, max-min "
               "share gives %.9f ms",
               oversub, r.fct.all_fct_mean_ms, r.fct.all_fct_p99_ms, expect_ms);
  }
  return {};
}

std::vector<std::string> self_test() {
  std::vector<std::string> out;
  const auto expect = [&out](const char* what, bool fired) {
    if (!fired) out.push_back(std::string("check did not fire: ") + what);
  };
  const auto expect_clean = [&out](const char* what, const std::string& e) {
    if (!e.empty()) out.push_back(std::string(what) + " on clean input: " + e);
  };

  // A small real run with in-memory snapshots supplies the clean inputs.
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.seed = 7;
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_share();
  g.load = 0.6;
  g.flow_count = 300;
  g.seed = 7;
  g.max_flow_size = DataSize::megabytes(2);
  const workload::Workload w = workload::generate(g);
  const std::int64_t cells =
      expected_cells(w, cfg.servers_per_rack, cfg.slots.cell_size().in_bytes());

  std::vector<std::string> snaps;
  sim::SiriusSimConfig straight_cfg = cfg;
  straight_cfg.checkpoint_every = Time::us(10);
  straight_cfg.checkpoint_sink = [&snaps](std::int64_t, Time,
                                          const std::string& p) {
    snaps.push_back(p);
  };
  sim::SiriusSim straight_sim(straight_cfg, w);
  const sim::SiriusSimResult r = straight_sim.run();
  expect_clean("check_fault_free", check_fault_free(w, r, cells));
  if (snaps.empty()) {
    out.push_back("self-test run took no snapshot");
    return out;
  }

  // 1. A completion moved earlier than the NIC can serialise the flow.
  {
    sim::SiriusSimResult bad = r;
    const workload::Flow& f = w.flows.back();
    bad.per_flow_completion[static_cast<std::size_t>(f.id)] =
        f.arrival + Time::ps(f.size.in_bytes() * kNicPsPerByte - 1);
    expect("completion earlier than NIC serialisation",
           !check_fault_free(w, bad, cells).empty());
  }
  // 2. A delivered-cell count off by one.
  {
    sim::SiriusSimResult bad = r;
    bad.cells_delivered += 1;
    expect("delivered cells off by one",
           !check_fault_free(w, bad, cells).empty());
  }
  // 3. A resumed result that differs in one counter.
  {
    const std::string& mid = snaps[snaps.size() / 2];
    sim::SiriusSim resumed_sim(cfg, w);
    std::string err;
    if (!resumed_sim.restore_state(mid, &err)) {
      out.push_back("self-test restore failed: " + err);
    } else {
      const sim::SiriusSimResult resumed = resumed_sim.run();
      expect_clean("check_resumed", check_resumed(r, resumed));
      sim::SiriusSimResult bad = resumed;
      bad.failover.cells_retransmitted += 1;
      expect("resumed result differing in one counter",
             !check_resumed(r, bad).empty());
    }
  }
  // 4. A framed checkpoint with one flipped byte.
  {
    const std::string& p = snaps.front();
    std::string framed = sirius::ckpt::frame(p);
    expect_clean("check_framed", check_framed(framed, p));
    framed[framed.size() / 2] = static_cast<char>(framed[framed.size() / 2] ^ 0x01);
    expect("framed checkpoint with one flipped byte",
           !check_framed(framed, p).empty());
  }
  expect_clean("check_esn_incast(1)", check_esn_incast(1));
  expect_clean("check_esn_incast(3)", check_esn_incast(3));
  return out;
}

}  // namespace e2e
