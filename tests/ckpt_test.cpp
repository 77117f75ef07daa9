// Checkpoint/restore tests: `sirius.ckpt.v1` framing and corruption
// rejection, full-simulator snapshot round-trips, and the determinism
// contract — a run resumed from a checkpoint taken *inside* a grey-link
// fault window is bit-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "common/time.hpp"
#include "sim/sirius_sim.hpp"
#include "workload/generator.hpp"
#include "golden.hpp"

namespace sirius {
namespace {

namespace fs = std::filesystem;

// ---- file framing ----------------------------------------------------------

TEST(CkptFrame, RoundTripPreservesPayload) {
  const std::string payload = "hello checkpoint \x00\x01\xff payload";
  const std::string file = ckpt::frame(payload);
  EXPECT_EQ(file.size(), payload.size() + 24);
  const ckpt::LoadResult r = ckpt::parse(file);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.payload, payload);
}

TEST(CkptFrame, SaveThenLoadRoundTrips) {
  const fs::path path = fs::temp_directory_path() / "sirius_ckpt_rt.ckpt";
  std::string error;
  ASSERT_TRUE(ckpt::save(path, "abc123", &error)) << error;
  const ckpt::LoadResult r = ckpt::load(path);
  ASSERT_TRUE(r.ok()) << r.message;
  EXPECT_EQ(r.payload, "abc123");
  fs::remove(path);
}

TEST(CkptFrame, MissingFileIsIoError) {
  const ckpt::LoadResult r =
      ckpt::load(fs::temp_directory_path() / "sirius_ckpt_nonexistent.ckpt");
  EXPECT_EQ(r.status, ckpt::LoadStatus::kIoError);
  EXPECT_FALSE(r.message.empty());
}

// Every corruption class is rejected with its own status and a non-empty
// one-line diagnostic; none of them may crash (asan/ubsan builds run this
// same binary).
TEST(CkptFrame, CorruptionMatrix) {
  const std::string good = ckpt::frame("determinism is a feature");

  EXPECT_EQ(ckpt::parse("").status, ckpt::LoadStatus::kEmptyFile);

  EXPECT_EQ(ckpt::parse(good.substr(0, 10)).status,
            ckpt::LoadStatus::kTruncatedHeader);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(ckpt::parse(bad_magic).status, ckpt::LoadStatus::kBadMagic);

  std::string bad_version = good;
  bad_version[8] = 0x7f;  // claims format version 127
  EXPECT_EQ(ckpt::parse(bad_version).status, ckpt::LoadStatus::kBadVersion);

  EXPECT_EQ(ckpt::parse(good.substr(0, good.size() - 1)).status,
            ckpt::LoadStatus::kTruncatedPayload);

  std::string flipped = good;
  flipped[24] = static_cast<char>(flipped[24] ^ 0x40);  // payload bit-flip
  EXPECT_EQ(ckpt::parse(flipped).status, ckpt::LoadStatus::kCrcMismatch);

  // Distinct classes produce distinct messages.
  const std::string m1 = ckpt::parse("").message;
  const std::string m2 = ckpt::parse(bad_magic).message;
  const std::string m3 = ckpt::parse(flipped).message;
  EXPECT_FALSE(m1.empty());
  EXPECT_NE(m1, m2);
  EXPECT_NE(m2, m3);
  EXPECT_NE(m1, m3);
}

// ---- simulator snapshots ---------------------------------------------------

sim::SiriusSimConfig small_net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 4;
  cfg.servers_per_rack = 2;
  cfg.base_uplinks = 2;
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
  g.seed = 33;
  return workload::generate(g);
}

TEST(CkptSim, FreshStateRoundTripsBitIdentical) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();
  ASSERT_FALSE(snap.empty());

  sim::SiriusSim b(cfg, w);
  std::string error;
  ASSERT_TRUE(b.restore_state(snap, &error)) << error;
  EXPECT_EQ(b.checkpoint_state(), snap);
}

TEST(CkptSim, RestoreRejectsGarbageWithoutCrashing) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim s(cfg, w);
  std::string error;
  EXPECT_FALSE(s.restore_state("this is not a checkpoint", &error));
  EXPECT_FALSE(error.empty());
}

TEST(CkptSim, RestoreRejectsEveryTruncation) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();

  sim::SiriusSim b(cfg, w);
  const std::size_t cuts[] = {0, 1, 7, snap.size() / 3, snap.size() - 1};
  for (const std::size_t cut : cuts) {
    std::string error;
    EXPECT_FALSE(b.restore_state(std::string_view(snap).substr(0, cut),
                                 &error))
        << "truncation at " << cut << " bytes was accepted";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CkptSim, RestoreSurvivesArbitraryByteFlips) {
  // Hostile-input sweep: flip one byte at a stride of positions across a
  // valid payload. Restore may accept (the flip hit a value with no
  // validation range, e.g. a statistic) or reject — but it must never
  // crash or read out of bounds. The target sim is reused on purpose: a
  // failed restore leaves it unfit to *run*, but always safe to restore
  // into again.
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();

  sim::SiriusSim b(cfg, w);
  for (std::size_t pos = 0; pos < snap.size(); pos += 211) {
    std::string mutated = snap;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xa5);
    std::string error;
    (void)b.restore_state(mutated, &error);
  }
}

TEST(CkptSim, RestoreRejectsMismatchedWorkload) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim a(cfg, w);
  const std::string snap = a.checkpoint_state();

  const auto w2 = make_wl(cfg, 0.3, 60);  // different workload
  sim::SiriusSim b(cfg, w2);
  std::string error;
  EXPECT_FALSE(b.restore_state(snap, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(CkptSim, RestoreRejectsFaultDynamismMismatch) {
  auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  sim::SiriusSim plain(cfg, w);

  auto faulted_cfg = cfg;
  faulted_cfg.faults.fail_rack(2, Time::us(60));
  sim::SiriusSim faulted(faulted_cfg, w);

  std::string error;
  EXPECT_FALSE(faulted.restore_state(plain.checkpoint_state(), &error));
  EXPECT_NE(error.find("fault"), std::string::npos) << error;
}

// Byte offset of the first in-flight cell in a payload's WIRE section
// (u64 bucket count, then per bucket a u64 cell count and 32-byte
// {cell, to} records), or npos when the ring is empty.
std::size_t first_in_flight_cell(const std::string& payload) {
  const auto u64_at = [&](std::size_t pos) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = v << 8 | static_cast<std::uint8_t>(payload[pos + i]);
    }
    return v;
  };
  std::size_t pos = payload.find("WIRE", payload.find("RXBF"));
  if (pos == std::string::npos) return pos;
  pos += 4;
  const std::uint64_t buckets = u64_at(pos);
  pos += 8;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const std::uint64_t cells = u64_at(pos);
    pos += 8;
    if (cells > 0) return pos;
  }
  return std::string::npos;
}

// A CRC-valid payload whose in-flight cell names a rack or a flow this run
// does not have is rejected by restore, before run() could index with it.
TEST(CkptSim, RestoreRejectsOutOfRangeCell) {
  auto cfg = small_net();
  const auto w = make_wl(cfg, 0.6, 200);
  std::string snap;
  cfg.checkpoint_every = Time::us(2);
  cfg.checkpoint_sink = [&snap](std::int64_t, Time, const std::string& p) {
    if (snap.empty() && first_in_flight_cell(p) != std::string::npos) {
      snap = p;
    }
  };
  sim::SiriusSim(cfg, w).run();
  ASSERT_FALSE(snap.empty()) << "no snapshot caught a cell in flight";
  const std::size_t cell = first_in_flight_cell(snap);

  std::string error;
  ASSERT_TRUE(sim::SiriusSim(cfg, w).restore_state(snap, &error)) << error;

  // Cell layout: i64 flow, then i32 seq, dst_node, dst_server, ...
  struct Field {
    const char* name;
    std::size_t offset;
  };
  for (const Field f : {Field{"dst_node", 12}, Field{"flow", 0}}) {
    std::string bad = snap;
    bad[cell + f.offset + 2] = 0x10;  // adds 2^20 to the field
    const ckpt::LoadResult framed = ckpt::parse(ckpt::frame(bad));
    ASSERT_TRUE(framed.ok()) << framed.message;
    sim::SiriusSim b(cfg, w);
    error.clear();
    EXPECT_FALSE(b.restore_state(framed.payload, &error))
        << "out-of-range " << f.name << " was accepted";
    EXPECT_FALSE(error.empty());
  }
}

// Likewise a schedule whose members include a rack this run does not have.
TEST(CkptSim, RestoreRejectsScheduleOutsideTheRacks) {
  const auto cfg = small_net();
  const auto w = make_wl(cfg, 0.3, 50);
  std::string snap = sim::SiriusSim(cfg, w).checkpoint_state();
  const std::size_t sched = snap.find("SCHD");
  ASSERT_NE(sched, std::string::npos);
  ASSERT_EQ(snap[sched + 4], 1) << "expected a member-list schedule";
  // u8 members, i32 uplinks, u64 member count, then i32 member ids.
  const std::size_t last = sched + 4 + 1 + 4 + 8 + 4 * (cfg.racks - 1);
  ASSERT_EQ(snap[last], cfg.racks - 1);
  snap[last + 1] = 0x04;  // the last member becomes rack 1024 + racks - 1
  std::string error;
  EXPECT_FALSE(sim::SiriusSim(cfg, w).restore_state(snap, &error));
  EXPECT_FALSE(error.empty());
}

// ---- the determinism contract ----------------------------------------------

struct Snap {
  std::int64_t slot = 0;
  Time at;
  std::string payload;
};

sim::SiriusSimConfig faulted_net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 8;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.seed = 7;
  cfg.record_recovery_curve = true;
  // Rack 3 fail-stops at 60 us; link 2->5 goes fully grey 100-160 us. The
  // restore point below lands inside that window, so the resumed run must
  // reproduce detector counters, retransmission timers and the Bernoulli
  // stream mid-episode.
  cfg.faults.fail_rack(3, Time::us(60));
  cfg.faults.grey_link(2, 5, 1.0, Time::us(100), Time::us(160));
  return cfg;
}

TEST(CkptDeterminism, ResumeMidGreyFaultIsBitIdentical) {
  auto cfg_a = faulted_net();
  const auto w = make_wl(cfg_a, 0.5, 400);

  std::vector<Snap> snaps_a;
  cfg_a.checkpoint_every = Time::us(25);
  cfg_a.checkpoint_sink = [&snaps_a](std::int64_t slot, Time at,
                                     const std::string& payload) {
    snaps_a.push_back({slot, at, payload});
  };
  sim::SiriusSim a(cfg_a, w);
  const auto ra = a.run();

  // Pick the snapshot inside the grey window.
  std::size_t idx = snaps_a.size();
  for (std::size_t i = 0; i < snaps_a.size(); ++i) {
    if (snaps_a[i].at >= Time::us(110) && snaps_a[i].at <= Time::us(150)) {
      idx = i;
      break;
    }
  }
  ASSERT_LT(idx, snaps_a.size())
      << "run ended before the grey window; grow the workload";

  auto cfg_b = faulted_net();
  std::vector<Snap> snaps_b;
  cfg_b.checkpoint_every = Time::us(25);
  cfg_b.checkpoint_sink = [&snaps_b](std::int64_t slot, Time at,
                                     const std::string& payload) {
    snaps_b.push_back({slot, at, payload});
  };
  sim::SiriusSim b(cfg_b, w);
  std::string error;
  ASSERT_TRUE(b.restore_state(snaps_a[idx].payload, &error)) << error;
  const auto rb = b.run();

  // The resumed run emits exactly the straight run's remaining
  // checkpoints, byte for byte — full simulator state (queues, RNG
  // streams, detectors, retx heap, telemetry) matches at every later
  // cadence point, not just at the end.
  ASSERT_EQ(snaps_b.size(), snaps_a.size() - idx - 1);
  for (std::size_t i = 0; i < snaps_b.size(); ++i) {
    EXPECT_EQ(snaps_b[i].slot, snaps_a[idx + 1 + i].slot);
    EXPECT_EQ(snaps_b[i].payload, snaps_a[idx + 1 + i].payload)
        << "state diverged by checkpoint at slot " << snaps_b[i].slot;
  }

  // And the end-of-run results agree exactly.
  EXPECT_EQ(rb.slots_simulated, ra.slots_simulated);
  EXPECT_EQ(rb.cells_delivered, ra.cells_delivered);
  EXPECT_EQ(rb.incomplete_flows, ra.incomplete_flows);
  EXPECT_EQ(rb.rejected_flows, ra.rejected_flows);
  EXPECT_EQ(rb.goodput_normalized, ra.goodput_normalized);
  EXPECT_EQ(rb.fct.short_fct_p99_ms, ra.fct.short_fct_p99_ms);
  EXPECT_EQ(rb.failover.cells_dropped, ra.failover.cells_dropped);
  EXPECT_EQ(rb.failover.cells_retransmitted,
            ra.failover.cells_retransmitted);
  EXPECT_EQ(rb.failover.schedule_swaps, ra.failover.schedule_swaps);
  EXPECT_EQ(rb.failover.detection_rounds, ra.failover.detection_rounds);
  ASSERT_EQ(rb.per_flow_completion.size(), ra.per_flow_completion.size());
  for (std::size_t i = 0; i < ra.per_flow_completion.size(); ++i) {
    EXPECT_EQ(rb.per_flow_completion[i], ra.per_flow_completion[i])
        << "flow " << i << " completion time diverged";
  }
}

TEST(CkptDeterminism, ForkReseedDivergesAndReproduces) {
  auto cfg = faulted_net();
  const auto w = make_wl(cfg, 0.5, 400);

  std::vector<Snap> snaps;
  cfg.checkpoint_every = Time::us(50);
  cfg.checkpoint_sink = [&snaps](std::int64_t slot, Time at,
                                 const std::string& payload) {
    snaps.push_back({slot, at, payload});
  };
  sim::SiriusSim(cfg, w).run();
  ASSERT_FALSE(snaps.empty());
  const std::string& base = snaps.front().payload;

  auto fork_cfg = faulted_net();
  auto fork = [&](std::uint64_t salt) {
    sim::SiriusSim s(fork_cfg, w);
    std::string error;
    EXPECT_TRUE(s.restore_state(base, &error)) << error;
    s.reseed_streams(salt);
    const auto r = s.run();
    return r;
  };

  const auto f1 = fork(1);
  const auto f1_again = fork(1);
  const auto f2 = fork(2);

  // Same salt: the fork is itself deterministic.
  EXPECT_EQ(f1.cells_delivered, f1_again.cells_delivered);
  EXPECT_EQ(f1.slots_simulated, f1_again.slots_simulated);
  EXPECT_EQ(f1.goodput_normalized, f1_again.goodput_normalized);
  // Different salts explore different futures from the same state. The
  // delivered-cell ledger is workload-fixed, so compare the schedule- and
  // rng-sensitive outcomes.
  EXPECT_TRUE(f1.slots_simulated != f2.slots_simulated ||
              f1.fct.short_fct_p99_ms != f2.fct.short_fct_p99_ms ||
              f1.goodput_normalized != f2.goodput_normalized);
}

// ---- golden payload bytes --------------------------------------------------

// Every snapshot of two canonical request/grant runs is pinned by length
// and FNV-1a-64 digest against tests/golden/ckpt_v1.txt, so a change to
// how the state is laid out (or to the state a run reaches) cannot pass
// unnoticed. A justified update replaces the file's section with the
// lines this test prints on mismatch, and says why in CHANGES.md.

// One "<run> <index> <slot> <bytes> <digest>" line per emitted snapshot.
std::vector<std::string> snapshot_lines(const std::string& run,
                                        sim::SiriusSimConfig cfg,
                                        const workload::Workload& w) {
  std::vector<std::string> lines;
  cfg.checkpoint_every = Time::us(25);
  cfg.checkpoint_sink = [&](std::int64_t slot, Time,
                            const std::string& payload) {
    std::ostringstream line;
    line << run << ' ' << lines.size() << ' ' << slot << ' '
         << payload.size() << ' ' << std::hex << std::setw(16)
         << std::setfill('0') << golden::fnv1a64(payload);
    lines.push_back(line.str());
  };
  sim::SiriusSim(cfg, w).run();
  return lines;
}

sim::SiriusSimConfig clean_net() {
  sim::SiriusSimConfig cfg;
  cfg.racks = 16;
  cfg.servers_per_rack = 4;
  cfg.base_uplinks = 4;
  cfg.seed = 11;
  return cfg;
}

TEST(CkptGolden, SnapshotBytesMatchReference) {
  const auto faulted = faulted_net();
  std::vector<std::string> got =
      snapshot_lines("faulted_8rack", faulted, make_wl(faulted, 0.5, 400));
  const auto clean = clean_net();
  for (std::string& line :
       snapshot_lines("clean_16rack", clean, make_wl(clean, 0.6, 600))) {
    got.push_back(std::move(line));
  }
  ASSERT_GT(got.size(), 10u) << "runs too short to pin anything";

  golden::expect_section(got, std::string(SIRIUS_GOLDEN_DIR) + "/ckpt_v1.txt",
                         "all", "sirius.ckpt.v1 snapshot bytes");
}

}  // namespace
}  // namespace sirius
