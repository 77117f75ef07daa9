// Tests for the idealised ESN baselines (fluid + packet-level Clos).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "esn/fluid_sim.hpp"
#include "esn/max_min.hpp"
#include "esn/packet_clos_sim.hpp"
#include "workload/generator.hpp"

namespace sirius::esn {
namespace {

EsnConfig small_esn(std::int32_t oversub = 1) {
  EsnConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.server_rate = DataRate::gbps(50);
  cfg.oversubscription = oversub;
  return cfg;
}

workload::Workload explicit_flows(
    const EsnConfig& cfg,
    std::vector<std::tuple<std::int32_t, std::int32_t, std::int64_t,
                           std::int64_t>>
        specs) {
  workload::Workload w;
  w.servers = cfg.servers();
  w.server_rate = cfg.server_rate;
  FlowId id = 0;
  for (const auto& [src, dst, bytes, arrival_ns] : specs) {
    workload::Flow f;
    f.id = id++;
    f.src_server = src;
    f.dst_server = dst;
    f.size = DataSize::bytes(bytes);
    f.arrival = Time::ns(arrival_ns);
    w.flows.push_back(f);
  }
  return w;
}

workload::Workload synthetic(const EsnConfig& cfg, double load,
                             std::int64_t flows) {
  workload::GeneratorConfig g;
  g.servers = cfg.servers();
  g.server_rate = cfg.server_rate;
  g.load = load;
  g.flow_count = flows;
  g.max_flow_size = DataSize::megabytes(5);
  g.seed = 21;
  return workload::generate(g);
}

TEST(FluidSim, LoneFlowGetsLineRate) {
  const EsnConfig cfg = small_esn();
  // 1 MB at 50 Gbps = 160 us; plus the 2 us base latency.
  const auto w = explicit_flows(cfg, {{0, 12, 1'000'000, 0}});
  EsnFluidSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.completed_flows, 1);
  EXPECT_NEAR(r.fct.all_fct_mean_ms, 0.162, 0.002);
}

TEST(FluidSim, TwoFlowsToOneDestinationShare) {
  const EsnConfig cfg = small_esn();
  // Two senders to the same server: each gets 25 Gbps -> 1 MB in 320 us.
  const auto w = explicit_flows(
      cfg, {{0, 12, 1'000'000, 0}, {4, 12, 1'000'000, 0}});
  EsnFluidSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.completed_flows, 2);
  EXPECT_NEAR(r.fct.all_fct_mean_ms, 0.322, 0.004);
}

TEST(FluidSim, MaxMinRedistributesAfterBottleneck) {
  const EsnConfig cfg = small_esn();
  // Flow A: 0 -> 12 alone on its source. Flows B, C: 4 -> 12 and 4 -> 13:
  // B and C share source 4 (25 G each), then A gets the remaining 25 G of
  // destination 12's NIC. Exact max-min: A=25, B=25, C=25.
  const auto w = explicit_flows(cfg, {{0, 12, 500'000, 0},
                                      {4, 12, 500'000, 0},
                                      {4, 13, 500'000, 0}});
  EsnFluidSim sim(cfg, w);
  const auto r = sim.run();
  // All three at 25 Gbps: 500 KB in 160 us.
  EXPECT_NEAR(r.fct.all_fct_mean_ms, 0.162, 0.003);
}

TEST(FluidSim, OversubscriptionThrottlesInterRackOnly) {
  const EsnConfig osub = small_esn(4);
  // Four single-flow senders in rack 0 to four distinct remote servers:
  // rack uplink = 4 x 50 / 4 = 50 Gbps shared -> 12.5 Gbps each.
  const auto w = explicit_flows(osub, {{0, 8, 500'000, 0},
                                       {1, 12, 500'000, 0},
                                       {2, 16, 500'000, 0},
                                       {3, 20, 500'000, 0}});
  EsnFluidSim sim(osub, w);
  const auto r = sim.run();
  // 500 KB at 12.5 Gbps = 320 us.
  EXPECT_NEAR(r.fct.all_fct_mean_ms, 0.322, 0.005);

  // The same flows kept intra-rack are not throttled.
  const auto w2 = explicit_flows(osub, {{0, 1, 500'000, 0},
                                        {2, 3, 500'000, 0}});
  EsnFluidSim sim2(osub, w2);
  EXPECT_NEAR(sim2.run().fct.all_fct_mean_ms, 0.082, 0.003);
}

TEST(FluidSim, SyntheticLoadCompletes) {
  const EsnConfig cfg = small_esn();
  const auto w = synthetic(cfg, 0.5, 4'000);
  const double offered =
      static_cast<double>(w.total_bytes().in_bits()) /
      (static_cast<double>(cfg.server_rate.bits_per_sec()) * cfg.servers() *
       w.last_arrival().to_sec());
  EsnFluidSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.completed_flows, 4'000);
  EXPECT_GT(r.goodput_normalized, offered * 0.6);
  EXPECT_LE(r.goodput_normalized, 1.0);
}

TEST(FluidSim, OversubscribedLosesGoodputAtHighLoad) {
  // Nominal load 3 saturates the fabric despite the flow-size cap; the
  // 3:1 oversubscribed variant then silos inter-rack traffic (Fig. 9b).
  const auto w = synthetic(small_esn(), 3.0, 6'000);
  const double nb = EsnFluidSim(small_esn(1), w).run().goodput_normalized;
  const double os = EsnFluidSim(small_esn(3), w).run().goodput_normalized;
  EXPECT_GT(nb, os * 1.15);
}

// ---- MaxMinSolver: differential and property test -------------------------

// ESN constraint layout (as EsnFluidSim builds it): source NICs, destination
// NICs, rack uplinks, rack downlinks.
struct Fabric {
  std::int32_t racks;
  std::int32_t servers_per_rack;
  std::int32_t oversubscription;
  std::vector<double> capacity;
};

Fabric make_fabric(std::int32_t racks, std::int32_t spr, std::int32_t oversub) {
  const std::int32_t s = racks * spr;
  const double nic = 50e9;
  Fabric f{racks, spr, oversub,
           std::vector<double>(static_cast<std::size_t>(2 * s), nic)};
  f.capacity.resize(static_cast<std::size_t>(2 * s + 2 * racks),
                    nic * spr / oversub);
  return f;
}

FlowPath path_of(const Fabric& f, std::int32_t src, std::int32_t dst) {
  const std::int32_t s = f.racks * f.servers_per_rack;
  FlowPath p;
  p.constraints[p.n_constraints++] = src;
  p.constraints[p.n_constraints++] = s + dst;
  const std::int32_t src_rack = src / f.servers_per_rack;
  const std::int32_t dst_rack = dst / f.servers_per_rack;
  if (f.oversubscription > 1 && src_rack != dst_rack) {
    p.constraints[p.n_constraints++] = 2 * s + src_rack;
    p.constraints[p.n_constraints++] = 2 * s + f.racks + dst_rack;
  }
  return p;
}

bool crosses(const FlowPath& p, std::int32_t c) {
  return std::find(p.constraints, p.constraints + p.n_constraints, c) !=
         p.constraints + p.n_constraints;
}

// Plain progressive filling, no heap, O(C * A) per step: freeze the
// unfrozen flows of the constraint with the smallest fair share (smaller id
// on ties) at that share, in flow order.
std::vector<double> oracle_max_min(const std::vector<double>& capacity,
                                   const std::vector<FlowPath>& paths) {
  std::vector<double> cap = capacity;
  std::vector<std::int32_t> cnt(capacity.size(), 0);
  for (const FlowPath& p : paths) {
    for (std::int32_t k = 0; k < p.n_constraints; ++k) ++cnt[p.constraints[k]];
  }
  std::vector<double> rate(paths.size(), 0.0);
  std::vector<bool> frozen(paths.size(), false);
  for (;;) {
    std::int32_t best = -1;
    double share = 0.0;
    for (std::int32_t c = 0; c < static_cast<std::int32_t>(cap.size()); ++c) {
      if (cnt[c] == 0) continue;
      const double s = std::max(cap[c], 0.0) / cnt[c];
      if (best < 0 || s < share) {
        best = c;
        share = s;
      }
    }
    if (best < 0) return rate;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (frozen[i] || !crosses(paths[i], best)) continue;
      frozen[i] = true;
      rate[i] = share;
      for (std::int32_t k = 0; k < paths[i].n_constraints; ++k) {
        cap[paths[i].constraints[k]] -= share;
        --cnt[paths[i].constraints[k]];
      }
    }
  }
}

// Random instance; `shape` picks uniform pairs, a hot set of a few servers
// (many flows on one constraint pair), or k copies of a shift permutation
// (equal-capacity NICs with equal counts: exact ties everywhere).
std::vector<FlowPath> random_paths(const Fabric& f, Rng& rng, int shape) {
  const std::int32_t s = f.racks * f.servers_per_rack;
  const auto flows = static_cast<std::int32_t>(rng.between(0, 600));
  std::vector<FlowPath> paths;
  const auto hot = static_cast<std::int32_t>(rng.between(1, std::min(s, 4)));
  const auto shift = static_cast<std::int32_t>(rng.between(0, s - 1));
  for (std::int32_t i = 0; i < flows; ++i) {
    std::int32_t src = 0;
    std::int32_t dst = 0;
    if (shape == 0) {
      src = static_cast<std::int32_t>(rng.below(s));
      dst = static_cast<std::int32_t>(rng.below(s));
    } else if (shape == 1) {
      src = static_cast<std::int32_t>(rng.below(hot));
      dst = s - 1 - static_cast<std::int32_t>(rng.below(hot));
    } else {
      src = i % s;
      dst = (src + shift) % s;
    }
    paths.push_back(path_of(f, src, dst));
  }
  return paths;
}

// Checks `rates` against the oracle and the max-min certificate; returns
// the number of failed checks (each also reported through gtest).
int check_max_min(const std::vector<double>& capacity,
                  const std::vector<FlowPath>& paths,
                  const std::vector<double>& rates, const char* what) {
  int failures = 0;
  const std::vector<double> want = oracle_max_min(capacity, paths);
  EXPECT_EQ(rates.size(), paths.size()) << what;
  if (rates.size() != paths.size()) return 1;
  std::vector<double> load(capacity.size(), 0.0);
  std::vector<double> peak(capacity.size(), 0.0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    // Same float operations in the same order: bit-identical to the oracle,
    // which pins the tie order the golden run digests depend on.
    if (std::memcmp(&rates[i], &want[i], sizeof(double)) != 0) {
      ++failures;
      EXPECT_NEAR(rates[i], want[i], want[i] * 1e-9)
          << what << " flow " << i;
      EXPECT_EQ(rates[i], want[i]) << what << " flow " << i << " not exact";
    }
    for (std::int32_t k = 0; k < paths[i].n_constraints; ++k) {
      const auto c = static_cast<std::size_t>(paths[i].constraints[k]);
      load[c] += rates[i];
      peak[c] = std::max(peak[c], rates[i]);
    }
  }
  for (std::size_t c = 0; c < capacity.size(); ++c) {
    if (load[c] > capacity[c] * (1 + 1e-9)) {
      ++failures;
      ADD_FAILURE() << what << " constraint " << c << " over capacity: "
                    << load[c] << " > " << capacity[c];
    }
  }
  // Max-min certificate: every flow crosses a saturated constraint on
  // which no other flow gets more.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    bool bottleneck = false;
    for (std::int32_t k = 0; k < paths[i].n_constraints; ++k) {
      const auto c = static_cast<std::size_t>(paths[i].constraints[k]);
      bottleneck = bottleneck ||
                   (load[c] >= capacity[c] * (1 - 1e-9) &&
                    rates[i] >= peak[c] * (1 - 1e-9));
    }
    if (!bottleneck) {
      ++failures;
      ADD_FAILURE() << what << " flow " << i << " has no bottleneck";
    }
  }
  return failures;
}

TEST(MaxMinSolver, MatchesOracleOnRandomInstances) {
  Rng rng(20200811);
  int instances = 0;
  for (int shape = 0; shape < 3; ++shape) {
    for (const std::int32_t oversub : {1, 3}) {
      for (int rep = 0; rep < 40; ++rep) {
        const auto racks = static_cast<std::int32_t>(rng.between(1, 64));
        const auto spr = static_cast<std::int32_t>(rng.between(1, 8));
        const Fabric f = make_fabric(racks, spr, oversub);
        const std::vector<FlowPath> paths = random_paths(f, rng, shape);
        MaxMinSolver solver(f.capacity);
        std::vector<double> rates;
        solver.solve(paths, rates);
        const std::string what = "shape " + std::to_string(shape) +
                                 " oversub " + std::to_string(oversub) +
                                 " racks " + std::to_string(racks) + " x " +
                                 std::to_string(spr) + " flows " +
                                 std::to_string(paths.size());
        ASSERT_EQ(check_max_min(f.capacity, paths, rates, what.c_str()), 0);
        // Scratch reuse: a second solve over a different flow set.
        const std::vector<FlowPath> half(paths.begin(),
                                         paths.begin() + paths.size() / 2);
        solver.solve(half, rates);
        ASSERT_EQ(check_max_min(f.capacity, half, rates,
                                (what + " (re-solve)").c_str()),
                  0);
        ++instances;
      }
    }
  }
  EXPECT_EQ(instances, 240);
}

TEST(MaxMinSolver, EqualSharesOnSharedPair) {
  // Three flows on one (source, destination) pair plus one flow out of the
  // same source: the source NIC splits four ways, and the destination NIC's
  // spare capacity cannot be used.
  const Fabric f = make_fabric(2, 2, 1);
  const std::vector<FlowPath> paths = {path_of(f, 0, 3), path_of(f, 0, 3),
                                       path_of(f, 0, 3), path_of(f, 0, 2)};
  MaxMinSolver solver(f.capacity);
  std::vector<double> rates;
  solver.solve(paths, rates);
  for (const double r : rates) EXPECT_DOUBLE_EQ(r, 12.5e9);
  EXPECT_EQ(check_max_min(f.capacity, paths, rates, "shared pair"), 0);
}

TEST(FluidSim, GoodputCreditsEveryByteDeliveredInWindow) {
  // 300 staggered flows of odd sizes all finish well before a last 1-byte
  // arrival that closes the measurement window, so the window must credit
  // exactly their total, not lose a fraction of a byte per flow per event.
  const EsnConfig cfg = small_esn(3);
  std::vector<std::tuple<std::int32_t, std::int32_t, std::int64_t,
                         std::int64_t>>
      specs;
  Rng rng(7);
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < 300; ++i) {
    const auto src = static_cast<std::int32_t>(rng.below(cfg.servers()));
    const auto dst = static_cast<std::int32_t>(rng.below(cfg.servers()));
    const std::int64_t bytes = rng.between(1'001, 99'999);
    specs.emplace_back(src, dst, bytes, i * 700);
    total += bytes;
  }
  specs.emplace_back(0, 1, 1, 50'000'000);  // 50 us after the rest drained
  const auto w = explicit_flows(cfg, specs);
  const auto r = EsnFluidSim(cfg, w).run();
  ASSERT_EQ(r.completed_flows, 301);
  const double credited_bytes =
      r.goodput_normalized *
      static_cast<double>(cfg.server_rate.bits_per_sec()) * cfg.servers() *
      w.last_arrival().to_sec() / 8.0;
  EXPECT_NEAR(credited_bytes, static_cast<double>(total), 1.0);
}

TEST(PacketClos, SingleFlowMatchesSerialisation) {
  PacketClosConfig cfg;
  cfg.esn = small_esn();
  const auto w = explicit_flows(cfg.esn, {{0, 12, 150'000, 0}});
  PacketClosSim sim(cfg, w);
  const auto r = sim.run();
  EXPECT_EQ(r.completed_flows, 1);
  // 150 KB at 50 Gbps = 24 us store-and-forward dominated; plus per-hop
  // latency and pipelining slack, well under 40 us.
  EXPECT_LT(r.fct.all_fct_mean_ms, 0.040);
  EXPECT_GT(r.fct.all_fct_mean_ms, 0.024);
}

TEST(PacketClos, AgreesWithFluidOnSmallWorkload) {
  PacketClosConfig pc;
  pc.esn = small_esn();
  const auto w = synthetic(pc.esn, 0.4, 800);
  const auto fluid = EsnFluidSim(pc.esn, w).run();
  const auto pkt = PacketClosSim(pc, w).run();
  EXPECT_EQ(fluid.completed_flows, pkt.completed_flows);
  // The fluid model is the idealisation of the packet simulator: mean FCTs
  // agree within 35 % and goodput within 20 % on an underloaded network.
  EXPECT_NEAR(pkt.fct.all_fct_mean_ms, fluid.fct.all_fct_mean_ms,
              fluid.fct.all_fct_mean_ms * 0.35 + 0.01);
  EXPECT_NEAR(pkt.goodput_normalized, fluid.goodput_normalized,
              fluid.goodput_normalized * 0.2 + 0.02);
}

TEST(PacketClos, FairnessBetweenConcurrentFlows) {
  PacketClosConfig pc;
  pc.esn = small_esn();
  // Two equal flows from distinct sources to one destination, started
  // together, should finish together (round-robin interleaving).
  const auto w = explicit_flows(pc.esn, {{0, 12, 300'000, 0},
                                         {4, 12, 300'000, 0}});
  PacketClosSim sim(pc, w);
  const auto r = sim.run();
  EXPECT_EQ(r.completed_flows, 2);
  EXPECT_LT(r.fct.all_fct_p99_ms / r.fct.all_fct_mean_ms, 1.1);
}

}  // namespace
}  // namespace sirius::esn
