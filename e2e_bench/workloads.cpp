#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "checks.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/experiment.hpp"
#include "esn/fluid_sim.hpp"
#include "sim/sirius_sim.hpp"
#include "telemetry/hub.hpp"
#include "workload/generator.hpp"

namespace e2e {

namespace {

using sirius::DataSize;
using sirius::Time;
namespace core = sirius::core;
namespace esn = sirius::esn;
namespace sim = sirius::sim;
namespace telemetry = sirius::telemetry;
namespace wl = sirius::workload;
using telemetry::ProfScope;

constexpr std::int32_t kServersPerRack = 8;

/// §7 Poisson/Pareto flows with the generator's defaults, sizes capped at
/// 2 MB so one tail flow cannot set the length of a run. The seed drives
/// the workload only: the simulators keep their default seed (1), because
/// with faults the grey-loss draws decide how often a verdict flaps, and
/// that alone moved the transmit cost per slot up to 2x between seeds.
wl::GeneratorConfig generator(std::int32_t servers, sirius::DataRate share,
                              double load, std::int64_t flows,
                              std::uint64_t seed) {
  wl::GeneratorConfig g;
  g.servers = servers;
  g.server_rate = share;
  g.load = load;
  g.flow_count = flows;
  g.seed = seed;
  g.max_flow_size = DataSize::megabytes(2);
  return g;
}

wl::Workload generate(Tracer& t, const wl::GeneratorConfig& g, Layers& layers) {
  const Tracer::Open sp = t.begin("workload::generate");
  wl::Workload w = wl::generate(g);
  layers["workload.generate_ms"] += t.end(sp) * 1e3;
  return w;
}

/// A hub for one simulation: the default (disabled) hub for a bare pass,
/// the profiler on for a profiled one — what `sirius_cli run --profile`
/// attaches.
std::unique_ptr<telemetry::Hub> make_hub(bool profiled) {
  if (!profiled) return std::make_unique<telemetry::Hub>();
  telemetry::TelemetryConfig tc;
  tc.profile = true;
  return std::make_unique<telemetry::Hub>(tc);
}

std::int64_t counter(const telemetry::Hub& hub, const char* name) {
  const telemetry::Counter* c = hub.metrics().find_counter(name);
  return c == nullptr ? 0 : c->value();
}

std::uint64_t profiler_scope_calls(const telemetry::Profiler& p) {
  std::uint64_t calls = 0;
  for (std::size_t s = 0; s < telemetry::kProfScopeCount; ++s) {
    calls += p.stats(static_cast<ProfScope>(s)).calls;
  }
  return calls;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string note(const char* system, double fct99_short_ms, double goodput) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%-15s short-flow p99 FCT %.4f ms, goodput %.4f", system,
                fct99_short_ms, goodput);
  return buf;
}

/// Sums over the Sirius simulations of one pass, turned into the sim, cc,
/// node, ctrl, check and telemetry per-layer values.
struct SimTally {
  double run_s = 0.0;
  double slots = 0;
  double hops = 0;
  double delivered = 0;
  double uplink_visits = 0;
  double requests = 0;
  double grants = 0;
  double denied = 0;
  double queue_peak_kb = 0.0;
  double reorder_peak_kb = 0.0;
  // Profiler phase totals (profiled passes).
  double transmit_ns = 0, land_ns = 0, deliver_ns = 0, deliver_calls = 0;
  double epoch_ns = 0, epoch_calls = 0, failover_ns = 0, failover_calls = 0;
  double audit_ns = 0, scope_calls = 0;

  void add(const sim::SiriusSimResult& r, const sim::SiriusSimConfig& cfg,
           double seconds) {
    run_s += seconds;
    slots += static_cast<double>(r.slots_simulated);
    hops += static_cast<double>(r.slots_tx_first + r.slots_tx_relay);
    delivered += static_cast<double>(r.cells_delivered);
    uplink_visits += static_cast<double>(r.slots_simulated) * cfg.racks *
                     cfg.uplinks();
    requests += static_cast<double>(r.requests_sent);
    grants += static_cast<double>(r.grants_issued);
    denied += static_cast<double>(r.grants_denied_q);
    queue_peak_kb = std::max(queue_peak_kb, r.worst_node_queue_peak_kb);
    reorder_peak_kb = std::max(reorder_peak_kb, r.worst_reorder_peak_kb);
  }
  void add_profile(const telemetry::Profiler& p) {
    const auto ns = [&p](ProfScope s) {
      return static_cast<double>(p.stats(s).total_nanos);
    };
    const auto calls = [&p](ProfScope s) {
      return static_cast<double>(p.stats(s).calls);
    };
    transmit_ns += ns(ProfScope::kTransmit);
    land_ns += ns(ProfScope::kLandInject);
    deliver_ns += ns(ProfScope::kDeliver);
    deliver_calls += calls(ProfScope::kDeliver);
    epoch_ns += ns(ProfScope::kEpochCc);
    epoch_calls += calls(ProfScope::kEpochCc);
    failover_ns += ns(ProfScope::kFailover);
    failover_calls += calls(ProfScope::kFailover);
    audit_ns += ns(ProfScope::kAudit);
    scope_calls += static_cast<double>(profiler_scope_calls(p));
  }

  void emit(Layers& l, bool profiled) const {
    if (profiled) {
      l["sim.transmit_ns_per_slot"] = ratio(transmit_ns, slots);
      l["sim.land_ns_per_slot"] = ratio(land_ns, slots);
      l["sim.deliver_ns_per_cell"] = ratio(deliver_ns, deliver_calls);
      l["cc.epoch_ns_per_round"] = ratio(epoch_ns, epoch_calls);
      l["ctrl.failover_ns_per_round"] = ratio(failover_ns, failover_calls);
      l["check.audit_ns_per_slot"] = ratio(audit_ns, slots);
      l["telemetry.scope_calls"] += scope_calls;
      return;
    }
    l["sim.slots"] = slots;
    l["sim.cell_hops"] = hops;
    l["sim.cells_delivered"] = delivered;
    l["sim.ns_per_slot"] = ratio(run_s * 1e9, slots);
    l["sim.ns_per_cell_hop"] = ratio(run_s * 1e9, hops);
    l["sim.uplink_busy_ratio"] = ratio(hops, uplink_visits);
    l["cc.requests"] = requests;
    l["cc.grants"] = grants;
    l["cc.grants_denied_q"] = denied;
    l["cc.grant_ratio"] = ratio(grants, requests);
    l["node.queue_peak_kb"] = queue_peak_kb;
    l["node.reorder_peak_kb"] = reorder_peak_kb;
  }
};

/// Shared state of every workload: the guard on profiler scope calls.
class Base : public Workload {
 public:
  std::vector<std::string> guard_failures() const override {
    std::vector<std::string> out;
    if (profiled_passes_ > 0 && scope_calls_ == 0) {
      out.push_back("telemetry: profiled passes recorded zero scope calls");
    }
    return out;
  }

 protected:
  void note_profiled(std::uint64_t calls) {
    ++profiled_passes_;
    scope_calls_ += calls;
  }

  /// Failed flows of one simulation: all of them when a simulation-level
  /// check failed, else none (the checks cover completion).
  static void fail(Pass& p, std::int64_t flows, const char* what,
                   const std::string& e) {
    p.attempted += flows;
    if (e.empty()) return;
    p.errors.push_back(std::string(what) + ": " + e);
    p.failed += flows;
  }

 private:
  std::int64_t profiled_passes_ = 0;
  std::uint64_t scope_calls_ = 0;
};

// ---- rg_load_128: one request/grant Sirius simulation -------------------

class SlotLoop final : public Base {
 public:
  SlotLoop(std::int32_t racks, double load, std::int64_t flows,
           std::uint64_t seed) {
    cfg_.racks = racks;
    cfg_.servers_per_rack = kServersPerRack;
    gen_ = generator(cfg_.servers(), cfg_.server_share(), load, flows, seed);
  }

  void setup(Tracer& t, Layers& layers) override {
    w_ = generate(t, gen_, layers);
    expected_ = expected_cells(w_, cfg_.servers_per_rack,
                               cfg_.slots.cell_size().in_bytes());
    const double rss0 = current_rss_mb();
    const Tracer::Open sp = t.begin("sim::SiriusSim::SiriusSim");
    sim::SiriusSim s(cfg_, w_);
    layers["sim.construct_ms"] += t.end(sp) * 1e3;
    if (construct_rss_mb_ < 0.0) construct_rss_mb_ = current_rss_mb() - rss0;
    layers["sim.construct_rss_mb"] = construct_rss_mb_;
  }

  Pass warm_up(Tracer& t) override { return run(t, false, nullptr, true); }
  Pass pass(Tracer& t, bool profiled, Layers* layers) override {
    return run(t, profiled, layers, false);
  }

 private:
  Pass run(Tracer& t, bool profiled, Layers* layers, bool reference) {
    std::unique_ptr<telemetry::Hub> hub;
    sim::SiriusSimConfig cfg = cfg_;
    if (profiled) {
      hub = make_hub(true);
      cfg.telemetry = hub.get();
    }
    Tracer::Open sp = t.begin("sim::SiriusSim::SiriusSim");
    sim::SiriusSim s(cfg, w_);
    t.end(sp);
    sp = t.begin("sim::SiriusSim::run");
    sim::SiriusSimResult r = s.run();
    Pass p;
    p.run_s = t.end(sp);

    std::string e = check_fault_free(w_, r, expected_);
    if (e.empty() && !reference) e = check_identical(ref_, r);
    fail(p, static_cast<std::int64_t>(w_.flows.size()), "sirius", e);

    if (layers != nullptr) {
      SimTally tally;
      tally.add(r, cfg_, p.run_s);
      if (profiled) tally.add_profile(hub->profiler());
      tally.emit(*layers, profiled);
    }
    if (profiled) note_profiled(profiler_scope_calls(hub->profiler()));
    if (reference) {
      p.notes.push_back(
          note("sirius", r.fct.short_fct_p99_ms, r.goodput_normalized));
      ref_ = std::move(r);
    }
    return p;
  }

  sim::SiriusSimConfig cfg_;
  wl::GeneratorConfig gen_;
  wl::Workload w_;
  std::int64_t expected_ = 0;
  double construct_rss_mb_ = -1.0;
  sim::SiriusSimResult ref_;
};

// ---- fig09_point_64: the four §7 systems on one workload -----------------

class Fig09Point final : public Base {
 public:
  Fig09Point(std::int64_t flows, std::uint64_t seed) {
    ecfg_.racks = 64;
    ecfg_.servers_per_rack = kServersPerRack;
    ecfg_.flows = flows;
    // core::make_workload's parameters, plus the 2 MB size cap; the
    // simulators keep ExperimentConfig's default seed.
    gen_ = generator(ecfg_.servers(), ecfg_.server_share(), kLoad, flows, seed);
    gen_.mean_flow_size = ecfg_.mean_flow_size;
    ideal_.ideal = true;
  }

  void setup(Tracer& t, Layers& layers) override {
    w_ = generate(t, gen_, layers);
    const sim::SiriusSimConfig scfg = core::make_sirius_config(ecfg_, sirius_);
    expected_ = expected_cells(w_, scfg.servers_per_rack,
                               scfg.slots.cell_size().in_bytes());
    for (const core::SiriusVariant* v : {&sirius_, &ideal_}) {
      const double rss0 = current_rss_mb();
      const Tracer::Open sp = t.begin("sim::SiriusSim::SiriusSim");
      sim::SiriusSim s(core::make_sirius_config(ecfg_, *v), w_);
      layers["sim.construct_ms"] += t.end(sp) * 1e3;
      if (construct_rss_mb_ < 0.0) construct_rss_mb_ = current_rss_mb() - rss0;
    }
    layers["sim.construct_rss_mb"] = construct_rss_mb_;
    for (const std::int32_t oversub : {1, 3}) {
      const Tracer::Open sp = t.begin("esn::EsnFluidSim::EsnFluidSim");
      esn::EsnFluidSim s(esn_config(oversub), w_);
      t.end(sp);
    }
  }

  Pass warm_up(Tracer& t) override {
    // Direct runs give the per-flow results core::run_* does not return;
    // the timed passes must reproduce their summaries exactly.
    Pass p;
    const std::int64_t n = static_cast<std::int64_t>(w_.flows.size());
    sim_tally_ = SimTally{};
    int i = 0;
    for (const core::SiriusVariant* v : {&sirius_, &ideal_}) {
      telemetry::Hub hub;
      sim::SiriusSimConfig scfg = core::make_sirius_config(ecfg_, *v);
      scfg.telemetry = &hub;
      const Tracer::Open sp = t.begin("sim::SiriusSim::run");
      sim::SiriusSim s(scfg, w_);
      sim::SiriusSimResult r = s.run();
      t.end(sp);
      // The ideal mode counts its first-hop transmissions only as
      // sim.cells_injected; slots_tx_first stays 0 there, so the ledger
      // check reads the counter instead. The warning shows when the result
      // field starts to agree with it.
      if (v->ideal) {
        const std::int64_t injected = counter(hub, "sim.cells_injected");
        if (r.slots_tx_first != injected) {
          std::fprintf(stderr,
                       "warning: sirius-ideal slots_tx_first %lld != "
                       "sim.cells_injected %lld; the ledger check uses the "
                       "counter\n",
                       static_cast<long long>(r.slots_tx_first),
                       static_cast<long long>(injected));
        }
        r.slots_tx_first = injected;
      }
      fail(p, n, v->ideal ? "sirius-ideal" : "sirius",
           check_fault_free(w_, r, expected_));
      sim_tally_.add(r, scfg, 0.0);
      sirius_p99_[i++] = r.fct.short_fct_p99_ms;
      p.notes.push_back(note(v->ideal ? "sirius-ideal" : "sirius",
                             r.fct.short_fct_p99_ms, r.goodput_normalized));
    }
    i = 0;
    for (const std::int32_t oversub : {1, 3}) {
      const Tracer::Open sp = t.begin("esn::EsnFluidSim::run");
      esn::EsnFluidSim s(esn_config(oversub), w_);
      const esn::EsnSimResult r = s.run();
      t.end(sp);
      std::string e;
      if (r.completed_flows != n) {
        e = std::to_string(r.completed_flows) + " of " + std::to_string(n) +
            " flows completed";
      }
      fail(p, n, oversub == 1 ? "esn" : "esn-osub", e);
      esn_p99_[i++] = r.fct.short_fct_p99_ms;
      p.notes.push_back(note(oversub == 1 ? "esn" : "esn-osub",
                             r.fct.short_fct_p99_ms, r.goodput_normalized));
      fail(p, 8, "esn incast", check_esn_incast(oversub));
    }
    return p;
  }

  Pass pass(Tracer& t, bool profiled, Layers* layers) override {
    Pass p;
    const std::int64_t n = static_cast<std::int64_t>(w_.flows.size());
    SimTally tally = sim_tally_;
    tally.run_s = 0.0;
    std::uint64_t calls = 0;
    double sys_s[4] = {};
    int i = 0;
    for (const core::SiriusVariant* v : {&sirius_, &ideal_}) {
      auto hub = make_hub(profiled);
      const Tracer::Open sp = t.begin("core::run_sirius");
      const core::RunMetrics m = core::run_sirius(ecfg_, *v, w_, hub.get());
      sys_s[i] = t.end(sp);
      std::string e = check_cell_ledger(
          counter(*hub, "sim.cells_delivered"),
          counter(*hub, v->ideal ? "sim.cells_injected" : "sim.tx_first"),
          counter(*hub, "sim.tx_relay"), expected_);
      if (e.empty() && m.incomplete != 0) {
        e = std::to_string(m.incomplete) + " incomplete flows";
      }
      if (e.empty() && m.short_fct_p99_ms != sirius_p99_[i]) {
        e = "short-flow p99 differs from the reference run";
      }
      fail(p, n, v->ideal ? "sirius-ideal" : "sirius", e);
      tally.run_s += sys_s[i];
      if (profiled) {
        tally.add_profile(hub->profiler());
        calls += profiler_scope_calls(hub->profiler());
      }
      ++i;
    }
    double recomputes[2] = {};
    for (const std::int32_t oversub : {1, 3}) {
      auto hub = make_hub(profiled);
      const Tracer::Open sp = t.begin("core::run_esn");
      const core::RunMetrics m = core::run_esn(ecfg_, oversub, w_, hub.get());
      sys_s[i] = t.end(sp);
      std::string e;
      const std::int64_t done = counter(*hub, "esn.flows_completed");
      if (done != n) {
        e = std::to_string(done) + " of " + std::to_string(n) +
            " flows completed";
      } else if (m.short_fct_p99_ms != esn_p99_[i - 2]) {
        e = "short-flow p99 differs from the reference run";
      }
      fail(p, n, oversub == 1 ? "esn" : "esn-osub", e);
      recomputes[i - 2] =
          static_cast<double>(counter(*hub, "esn.rate_recomputes"));
      esn_recomputes_[i - 2] = static_cast<std::int64_t>(recomputes[i - 2]);
      if (profiled) {
        const std::uint64_t c = profiler_scope_calls(hub->profiler());
        calls += c;
        tally.scope_calls += static_cast<double>(c);
      }
      ++i;
    }
    for (const double s : sys_s) p.run_s += s;
    if (profiled) note_profiled(calls);
    if (layers != nullptr) {
      tally.emit(*layers, profiled);
      if (!profiled) {
        Layers& l = *layers;
        l["core.sirius_s"] = sys_s[0];
        l["core.sirius_ideal_s"] = sys_s[1];
        l["core.esn_s"] = sys_s[2];
        l["core.esn_osub_s"] = sys_s[3];
        l["esn.recomputes"] = recomputes[0];
        l["esn.ns_per_recompute"] = ratio(sys_s[2] * 1e9, recomputes[0]);
        l["esn.osub_recomputes"] = recomputes[1];
        l["esn.osub_ns_per_recompute"] = ratio(sys_s[3] * 1e9, recomputes[1]);
      }
    }
    return p;
  }

  std::vector<std::string> guard_failures() const override {
    std::vector<std::string> out = Base::guard_failures();
    if (esn_recomputes_[0] <= 0 || esn_recomputes_[1] <= 0) {
      out.push_back("esn: a baseline ran with zero rate recomputes");
    }
    return out;
  }

 private:
  static constexpr double kLoad = 0.8;

  /// The EsnConfig core::run_esn builds.
  esn::EsnConfig esn_config(std::int32_t oversub) const {
    esn::EsnConfig e;
    e.racks = ecfg_.racks;
    e.servers_per_rack = ecfg_.servers_per_rack;
    e.server_rate = ecfg_.server_share();
    e.oversubscription = oversub;
    return e;
  }

  core::ExperimentConfig ecfg_;
  core::SiriusVariant sirius_;
  core::SiriusVariant ideal_;
  wl::GeneratorConfig gen_;
  wl::Workload w_;
  std::int64_t expected_ = 0;
  double construct_rss_mb_ = -1.0;
  SimTally sim_tally_;
  double sirius_p99_[2] = {};
  double esn_p99_[2] = {};
  std::int64_t esn_recomputes_[2] = {-1, -1};
};

// ---- faults_ckpt_64: failover, in-memory checkpoints and a resume --------

class FaultsCkpt final : public Base {
 public:
  FaultsCkpt(std::int64_t flows, std::uint64_t seed) {
    cfg_.racks = 64;
    cfg_.servers_per_rack = kServersPerRack;
    cfg_.faults.fail_rack(2, Time::us(200), Time::us(900));
    cfg_.faults.grey_link(0, 1, 0.2, Time::us(100), Time::us(700));
    gen_ = generator(cfg_.servers(), cfg_.server_share(), 0.8, flows, seed);
  }

  void setup(Tracer& t, Layers& layers) override {
    w_ = generate(t, gen_, layers);
    for (int k = 0; k < 2; ++k) {  // the straight and the resumed sim
      const double rss0 = current_rss_mb();
      const Tracer::Open sp = t.begin("sim::SiriusSim::SiriusSim");
      sim::SiriusSim s(cfg_, w_);
      layers["sim.construct_ms"] += t.end(sp) * 1e3;
      if (construct_rss_mb_ < 0.0) construct_rss_mb_ = current_rss_mb() - rss0;
    }
    layers["sim.construct_rss_mb"] = construct_rss_mb_;
  }

  Pass warm_up(Tracer& t) override { return run(t, false, nullptr, true); }
  Pass pass(Tracer& t, bool profiled, Layers* layers) override {
    return run(t, profiled, layers, false);
  }

  std::vector<std::string> guard_failures() const override {
    std::vector<std::string> out = Base::guard_failures();
    if (min_snapshots_ <= 0) out.push_back("ckpt: a run took zero snapshots");
    if (ref_.failover.detection_rounds < 0) {
      out.push_back("ctrl: no in-band failure detection");
    }
    if (ref_.failover.schedule_swaps <= 0) {
      out.push_back("ctrl: no schedule swap");
    }
    return out;
  }

 private:
  struct Snapshot {
    Time now;
    std::string payload;
  };

  Pass run(Tracer& t, bool profiled, Layers* layers, bool reference) {
    Pass p;
    std::vector<Snapshot> snaps;
    std::unique_ptr<telemetry::Hub> hub_straight = make_hub(profiled);
    std::unique_ptr<telemetry::Hub> hub_resumed = make_hub(profiled);
    sim::SiriusSimConfig straight_cfg = cfg_;
    straight_cfg.telemetry = hub_straight.get();
    straight_cfg.checkpoint_every = Time::us(50);
    straight_cfg.checkpoint_sink = [&snaps](std::int64_t, Time now,
                                            const std::string& payload) {
      snaps.push_back(Snapshot{now, payload});
    };
    sim::SiriusSimConfig resumed_cfg = cfg_;
    resumed_cfg.telemetry = hub_resumed.get();

    Tracer::Open sp = t.begin("sim::SiriusSim::SiriusSim");
    sim::SiriusSim straight(straight_cfg, w_);
    t.end(sp);
    sp = t.begin("sim::SiriusSim::SiriusSim");
    sim::SiriusSim resumed(resumed_cfg, w_);
    t.end(sp);

    sp = t.begin("sim::SiriusSim::run");
    const sim::SiriusSimResult r = straight.run();
    const double straight_s = t.end(sp);

    const std::int64_t n = static_cast<std::int64_t>(w_.flows.size());
    const std::int64_t live =
        n - r.rejected_flows - r.failover.flows_aborted;
    std::string e;
    if (r.incomplete_flows != 0) {
      e = std::to_string(r.incomplete_flows) + " incomplete flows";
    } else {
      e = check_completions(w_, r.per_flow_completion, live);
    }
    if (e.empty() && !reference) e = check_identical(ref_, r);

    // Frame and parse every snapshot in memory (ckpt::save would fsync).
    double frame_s = 0.0;
    double parse_s = 0.0;
    double bytes = 0.0;
    for (const Snapshot& s : snaps) {
      sp = t.begin("ckpt::frame");
      const std::string framed = sirius::ckpt::frame(s.payload);
      frame_s += t.end(sp);
      sp = t.begin("ckpt::parse");
      const sirius::ckpt::LoadResult parsed = sirius::ckpt::parse(framed);
      parse_s += t.end(sp);
      bytes += static_cast<double>(s.payload.size());
      if (e.empty() && (!parsed.ok() || parsed.payload != s.payload)) {
        e = check_framed(framed, s.payload);
      }
    }
    min_snapshots_ = std::min(min_snapshots_,
                              static_cast<std::int64_t>(snaps.size()));
    fail(p, live, "straight", e);

    // Resume from the snapshot nearest the middle of the grey window.
    const Snapshot* pick = nullptr;
    for (const Snapshot& s : snaps) {
      if (s.now < Time::us(100) || s.now >= Time::us(700)) continue;
      if (pick == nullptr || std::llabs((s.now - Time::us(400)).picoseconds()) <
                                 std::llabs((pick->now - Time::us(400)).picoseconds())) {
        pick = &s;
      }
    }
    double restore_s = 0.0;
    double serialize_s = 0.0;
    double resumed_s = 0.0;
    std::string re;
    if (pick == nullptr) {
      re = "no snapshot inside the grey-link window";
    } else {
      std::string err;
      sp = t.begin("sim::SiriusSim::restore_state");
      const bool ok = resumed.restore_state(pick->payload, &err);
      restore_s = t.end(sp);
      if (!ok) {
        re = "restore_state failed: " + err;
      } else {
        sp = t.begin("sim::SiriusSim::checkpoint_state");
        const std::string again = resumed.checkpoint_state();
        serialize_s = t.end(sp);
        if (again != pick->payload) {
          re = "checkpoint_state after restore_state differs from the snapshot";
        }
        sp = t.begin("sim::SiriusSim::run");
        const sim::SiriusSimResult rr = resumed.run();
        resumed_s = t.end(sp);
        if (re.empty()) re = check_resumed(r, rr);
      }
    }
    fail(p, live, "resumed", re);
    p.run_s = straight_s + frame_s + parse_s + restore_s + serialize_s +
              resumed_s;

    if (layers != nullptr) {
      Layers& l = *layers;
      SimTally tally;
      tally.add(r, cfg_, straight_s);
      if (profiled) {
        tally.add_profile(hub_straight->profiler());
        tally.scope_calls +=
            static_cast<double>(profiler_scope_calls(hub_resumed->profiler()));
      }
      tally.emit(l, profiled);
      if (!profiled) {
        const double pick_bytes =
            pick == nullptr ? 0.0 : static_cast<double>(pick->payload.size());
        l["ckpt.snapshots"] = static_cast<double>(snaps.size());
        l["ckpt.bytes"] = bytes;
        l["ckpt.serialize_ns_per_byte"] = ratio(serialize_s * 1e9, pick_bytes);
        l["ckpt.frame_ns_per_byte"] = ratio(frame_s * 1e9, bytes);
        l["ckpt.parse_ns_per_byte"] = ratio(parse_s * 1e9, bytes);
        l["ckpt.restore_ns_per_byte"] = ratio(restore_s * 1e9, pick_bytes);
        l["ctrl.detection_rounds"] =
            static_cast<double>(r.failover.detection_rounds);
        l["ctrl.cells_dropped"] = static_cast<double>(r.failover.cells_dropped);
        l["ctrl.cells_retransmitted"] =
            static_cast<double>(r.failover.cells_retransmitted);
        l["ctrl.flows_rejected"] = static_cast<double>(r.rejected_flows);
        l["ctrl.flows_aborted"] = static_cast<double>(r.failover.flows_aborted);
        l["ctrl.schedule_swaps"] =
            static_cast<double>(r.failover.schedule_swaps);
      }
    }
    if (profiled) {
      note_profiled(profiler_scope_calls(hub_straight->profiler()) +
                    profiler_scope_calls(hub_resumed->profiler()));
    }
    if (reference) {
      p.notes.push_back(note("sirius-faults", r.fct.short_fct_p99_ms,
                             r.goodput_normalized));
      ref_ = r;
    }
    return p;
  }

  sim::SiriusSimConfig cfg_;
  wl::GeneratorConfig gen_;
  wl::Workload w_;
  double construct_rss_mb_ = -1.0;
  std::int64_t min_snapshots_ = INT64_MAX;
  sim::SiriusSimResult ref_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "rg_load_128", "fig09_point_64", "faults_ckpt_64"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "rg_load_128") {
    return std::make_unique<SlotLoop>(128, 0.8, 8'000, seed);
  }
  if (name == "fig09_point_64") return std::make_unique<Fig09Point>(1'500, seed);
  if (name == "faults_ckpt_64") {
    return std::make_unique<FaultsCkpt>(4'000, seed);
  }
  return nullptr;
}

}  // namespace e2e
