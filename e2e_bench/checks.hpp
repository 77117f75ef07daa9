// Output checks, computed independently of the simulator.
//
// Each check returns an empty string when the outputs hold and a one-line
// description of the first violation otherwise. The expected values come
// from the generated workload and first principles (cell arithmetic, NIC
// serialisation, max-min fair shares), never from the simulator's own
// bookkeeping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sirius_sim.hpp"
#include "workload/flow.hpp"

namespace e2e {

/// Server NIC rate the checks assume (SiriusSimConfig::server_nic and the
/// §7 channel rate): a byte takes 8 / 50 Gbps = 160 ps to serialise.
inline constexpr std::int64_t kNicPsPerByte = 160;

/// Σ⌈size / cell⌉ over the flows whose endpoints sit in different racks.
[[nodiscard]] std::int64_t expected_cells(const sirius::workload::Workload& w,
                                          std::int32_t servers_per_rack,
                                          std::int64_t cell_bytes);

/// Cell ledger of a fault-free Sirius run: delivered cells equal the
/// workload's inter-rack cells, every delivered cell left its source once
/// (first-hop transmissions == delivered) and at most once more through an
/// intermediate (relay transmissions <= delivered).
[[nodiscard]] std::string check_cell_ledger(std::int64_t delivered,
                                            std::int64_t tx_first,
                                            std::int64_t tx_relay,
                                            std::int64_t expected);

/// Completion times: no flow finishes sooner than its server NIC can
/// serialise it (completion - arrival >= size / 50 Gbps), and exactly
/// `expected_complete` flows finish at all.
[[nodiscard]] std::string check_completions(
    const sirius::workload::Workload& w,
    const std::vector<sirius::Time>& completion,
    std::int64_t expected_complete);

/// Everything a fault-free Sirius run must satisfy: every flow completes,
/// the NIC bound, and the cell ledger against `expected_cells`.
[[nodiscard]] std::string check_fault_free(
    const sirius::workload::Workload& w, const sirius::sim::SiriusSimResult& r,
    std::int64_t expected_cells);

/// A resumed run must reproduce the straight run: per-flow completion
/// times, delivered cells, rejected flows and every failover counter.
[[nodiscard]] std::string check_resumed(
    const sirius::sim::SiriusSimResult& straight,
    const sirius::sim::SiriusSimResult& resumed);

/// Two runs of the same simulation (bare and profiled) must agree
/// bit-for-bit on everything the result reports.
[[nodiscard]] std::string check_identical(const sirius::sim::SiriusSimResult& a,
                                          const sirius::sim::SiriusSimResult& b);

/// `framed` must parse back to exactly `payload`.
[[nodiscard]] std::string check_framed(const std::string& framed,
                                       const std::string& payload);

/// Incast on the idealised ESN baseline: k equal flows arrive together and
/// share one bottleneck — one destination server (oversub 1) or one rack's
/// uplink (oversub 3). Runs the instance and compares its completion time
/// with the max-min share computed here.
[[nodiscard]] std::string check_esn_incast(std::int32_t oversub);

/// Feeds every check above a doctored copy of real outputs and confirms it
/// fires (and that the clean outputs pass). Returns one line per check
/// that failed to behave; empty means the checker works.
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace e2e
