#include "esn/fluid_sim.hpp"

#include <algorithm>
#include <cassert>

namespace sirius::esn {
namespace {

constexpr double kEpsilonBits = 1.0;  // flows below this are complete

// Constraint capacities in bits/sec: source NICs [0, S), destination NICs
// [S, 2S), rack uplinks [2S, 2S + R), rack downlinks [2S + R, 2S + 2R).
std::vector<double> constraint_capacity(const EsnConfig& cfg) {
  const std::int32_t s = cfg.servers();
  const std::int32_t r = cfg.racks;
  const double nic = static_cast<double>(cfg.server_rate.bits_per_sec());
  std::vector<double> cap(static_cast<std::size_t>(2 * s), nic);
  cap.resize(static_cast<std::size_t>(2 * s + 2 * r),
             nic * cfg.servers_per_rack / cfg.oversubscription);
  return cap;
}

}  // namespace

EsnFluidSim::EsnFluidSim(EsnConfig cfg, const workload::Workload& workload)
    : cfg_(cfg),
      workload_(workload),
      solver_(constraint_capacity(cfg)),
      goodput_(cfg.servers(), cfg.server_rate),
      measure_end_(workload.last_arrival()) {
  assert(workload_.servers == cfg_.servers() &&
         "workload generated for a different server count");
  hub_ = cfg_.telemetry;
  if (hub_ == nullptr) {
    own_hub_ = std::make_unique<telemetry::Hub>();
    hub_ = own_hub_.get();
  }
  hub_->attach_nodes(cfg_.racks);
  telemetry::MetricsRegistry& m = hub_->metrics();
  c_completed_ = &m.counter("esn.flows_completed");
  c_recomputes_ = &m.counter("esn.rate_recomputes");
  g_active_ = &m.gauge("esn.active_flows");
}

std::int32_t EsnFluidSim::src_constraint(const workload::Flow& f) const {
  return f.src_server;
}
std::int32_t EsnFluidSim::dst_constraint(const workload::Flow& f) const {
  return cfg_.servers() + f.dst_server;
}
std::int32_t EsnFluidSim::rack_up_constraint(const workload::Flow& f) const {
  return 2 * cfg_.servers() + f.src_server / cfg_.servers_per_rack;
}
std::int32_t EsnFluidSim::rack_down_constraint(const workload::Flow& f) const {
  return 2 * cfg_.servers() + cfg_.racks +
         f.dst_server / cfg_.servers_per_rack;
}

EsnSimResult EsnFluidSim::run() {
  std::size_t next_arrival = 0;
  double now_sec = 0.0;
  const double measure_end_sec = measure_end_.to_sec();
  double rate_sum = 0.0;      // Σ rates_ of the current rate epoch
  double goodput_bits = 0.0;  // delivered within the measurement window

  while (next_arrival < workload_.flows.size() || !active_.empty()) {
    // Next event: earliest of next arrival and earliest completion.
    double t_event = 1e300;
    bool is_arrival = false;
    if (next_arrival < workload_.flows.size()) {
      t_event = workload_.flows[next_arrival].arrival.to_sec();
      is_arrival = true;
    }
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (rates_[i] <= 0.0) continue;
      const double done = now_sec + active_[i].remaining_bits / rates_[i];
      if (done < t_event) {
        t_event = done;
        is_arrival = false;
      }
    }
    assert(t_event < 1e299 && "stuck: no arrivals and no progressing flows");
    if (is_arrival) {
      t_event = workload_.flows[next_arrival].arrival.to_sec();
    }

    // Advance all active flows to t_event, crediting goodput within the
    // measurement window. Rates are constant over the epoch, so the window
    // delivers Σ rates × window bits, truncated to bytes once per run.
    const double dt = t_event - now_sec;
    if (dt > 0.0) {
      const double window = std::clamp(measure_end_sec - now_sec, 0.0, dt);
      for (std::size_t i = 0; i < active_.size(); ++i) {
        active_[i].remaining_bits -= rates_[i] * dt;
      }
      // sirius-lint: allow(float-reduction-order)
      goodput_bits += rate_sum * window;
      now_sec = t_event;
    } else {
      now_sec = std::max(now_sec, t_event);
    }

    // Retire completed flows.
    for (std::size_t i = 0; i < active_.size();) {
      if (active_[i].remaining_bits <= kEpsilonBits) {
        const auto& wf = workload_.flows[active_[i].wl_index];
        const Time fct =
            Time::from_sec(now_sec) - wf.arrival + cfg_.base_latency;
        fct_.record(wf.size, fct);
        c_completed_->inc();
        active_[i] = active_.back();
        active_.pop_back();
        paths_[i] = paths_.back();
        paths_.pop_back();
      } else {
        ++i;
      }
    }

    // Admit all arrivals at this instant.
    while (next_arrival < workload_.flows.size() &&
           workload_.flows[next_arrival].arrival.to_sec() <= now_sec + 1e-15) {
      const workload::Flow& wf = workload_.flows[next_arrival];
      active_.push_back(
          {next_arrival, static_cast<double>(wf.size.in_bits())});
      FlowPath p;
      p.constraints[p.n_constraints++] = src_constraint(wf);
      p.constraints[p.n_constraints++] = dst_constraint(wf);
      if (cfg_.oversubscription > 1 &&
          wf.src_server / cfg_.servers_per_rack !=
              wf.dst_server / cfg_.servers_per_rack) {
        p.constraints[p.n_constraints++] = rack_up_constraint(wf);
        p.constraints[p.n_constraints++] = rack_down_constraint(wf);
      }
      paths_.push_back(p);
      ++next_arrival;
    }

    {
      SIRIUS_PROFILE_SCOPE(hub_->profiler(),
                           telemetry::ProfScope::kEsnRates);
      solver_.solve(paths_, rates_);
    }
    rate_sum = 0.0;
    for (const double rate : rates_) {
      // Deterministic reduction: rates_ follows active_, whose order is a
      // function of the workload alone (arrival order, swap-remove on
      // completion), and events run in time order on one thread.
      // sirius-lint: allow(float-reduction-order)
      rate_sum += rate;
    }
    c_recomputes_->inc();
    if (hub_->metrics_enabled()) {
      g_active_->set(static_cast<double>(active_.size()));
      hub_->maybe_sample(Time::from_sec(now_sec));
    }
  }

  if (hub_->metrics_enabled()) {
    g_active_->set(static_cast<double>(active_.size()));
    hub_->sample(Time::from_sec(now_sec));
  }

  goodput_.deliver(
      DataSize::bytes(static_cast<std::int64_t>(goodput_bits / 8.0)));
  EsnSimResult r;
  r.fct = fct_.summarize();
  r.goodput_normalized = goodput_.normalized(measure_end_);
  r.completed_flows = r.fct.completed_flows;
  r.sim_end = Time::from_sec(now_sec);
  return r;
}

}  // namespace sirius::esn
