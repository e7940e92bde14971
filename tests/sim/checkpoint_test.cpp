// Checkpoint/restore exactness and fault-injection tests
// (sim/checkpoint.hpp):
//
//   - frame plumbing: round-trip, and every corruption class rejected
//     cleanly (truncation, bit-flips, wrong magic/version, bogus section
//     tables) — never UB, never a partial accept;
//   - identity validation: a frame restores only into a simulator with the
//     same core count / benchmark / machine fingerprint / seed and the full
//     config fingerprint, at any cycle (cycle 0 included);
//   - section validation: a re-checksummed frame whose payloads are
//     malformed (an inconsistent core window, a short per-core vector, a
//     truncated accounting section, a zero-stride power trace) is refused
//     at restore, before any run can act on it;
//   - the headline guarantee: a run restored from a checkpoint finishes
//     bit-identical — RunResult fields, serialized event-trace bytes and
//     the deterministic stats dump — to the uninterrupted run.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/branch_predictor.hpp"
#include "power/ptht.hpp"
#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "sync/bct_detector.hpp"
#include "sim/reporting.hpp"
#include "trace/trace.hpp"
#include "workloads/suite.hpp"

namespace ptb {
namespace {

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.name = "ckpt";
  p.iterations = 2;
  p.ops_per_iteration = 3000;
  p.imbalance = 0.2;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 10;
  p.hot_lock_frac = 0.5;
  return p;
}

TechniqueSpec base_spec() {
  return {"base", TechniqueKind::kNone, false, PtbPolicy::kToAll, 0.0};
}

TechniqueSpec ptb_spec() {
  return {"ptb+2l(dyn)", TechniqueKind::kTwoLevel, true, PtbPolicy::kDynamic,
          0.0};
}

// Bitwise comparison of every deterministic RunResult field.
void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.num_cores, b.num_cores);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.hit_max_cycles, b.hit_max_cycles);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.aopb, b.aopb);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.power.count(), b.power.count());
  EXPECT_EQ(a.power.mean(), b.power.mean());
  EXPECT_EQ(a.power.max(), b.power.max());
  EXPECT_EQ(a.power.variance(), b.power.variance());
  EXPECT_EQ(a.spin_energy, b.spin_energy);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.tokens_donated, b.tokens_donated);
  EXPECT_EQ(a.tokens_granted, b.tokens_granted);
  EXPECT_EQ(a.tokens_evaporated, b.tokens_evaporated);
  EXPECT_EQ(a.dvfs_transitions, b.dvfs_transitions);
  EXPECT_EQ(a.to_one_cycles, b.to_one_cycles);
  EXPECT_EQ(a.to_all_cycles, b.to_all_cycles);
  EXPECT_EQ(a.spin_gated_cycles, b.spin_gated_cycles);
  EXPECT_EQ(a.machine_fingerprint, b.machine_fingerprint);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    SCOPED_TRACE(i);
    const CoreResult& x = a.cores[i];
    const CoreResult& y = b.cores[i];
    EXPECT_EQ(x.finish_cycle, y.finish_cycle);
    EXPECT_EQ(x.committed, y.committed);
    EXPECT_EQ(x.flushes, y.flushes);
    for (std::uint32_t s = 0; s < kNumExecStates; ++s) {
      EXPECT_EQ(x.state_cycles[s], y.state_cycles[s]);
    }
    EXPECT_EQ(x.spin_energy, y.spin_energy);
    EXPECT_EQ(x.energy, y.energy);
    EXPECT_EQ(x.temp_mean, y.temp_mean);
    EXPECT_EQ(x.temp_std, y.temp_std);
  }
}

// --- frame plumbing ---------------------------------------------------------

std::string tiny_frame() {
  CheckpointHeader h;
  h.checkpoint_fp = 0x1111;
  h.machine_fp = 0x2222;
  h.config_fp = 0x3333;
  h.seed = 7;
  h.num_cores = 4;
  h.cycle = 42;
  h.benchmark = "fft";
  CheckpointWriter w(h);
  {
    ByteWriter& s = w.section(CkptSection::kCores);
    s.u64(0xdeadbeef);
  }
  {
    ByteWriter& s = w.section(CkptSection::kThermal);
    s.f64(1.5);
    s.str("tail");
  }
  return w.finish();
}

TEST(CheckpointFrame, RoundTripHeaderAndSections) {
  const std::string bytes = tiny_frame();
  CheckpointReader r;
  ASSERT_TRUE(r.parse(bytes)) << r.error();
  EXPECT_EQ(r.header().checkpoint_fp, 0x1111u);
  EXPECT_EQ(r.header().machine_fp, 0x2222u);
  EXPECT_EQ(r.header().config_fp, 0x3333u);
  EXPECT_EQ(r.header().seed, 7u);
  EXPECT_EQ(r.header().num_cores, 4u);
  EXPECT_EQ(r.header().cycle, 42u);
  EXPECT_EQ(r.header().benchmark, "fft");
  ASSERT_TRUE(r.has_section(CkptSection::kCores));
  ASSERT_TRUE(r.has_section(CkptSection::kThermal));
  EXPECT_FALSE(r.has_section(CkptSection::kMem));
  ByteReader cores(r.section(CkptSection::kCores));
  EXPECT_EQ(cores.u64(), 0xdeadbeefu);
  EXPECT_TRUE(cores.empty());
  ByteReader th(r.section(CkptSection::kThermal));
  EXPECT_EQ(th.f64(), 1.5);
  EXPECT_EQ(th.str(), "tail");
  EXPECT_TRUE(th.ok());
}

TEST(CheckpointFrame, FrameBytesAreDeterministic) {
  EXPECT_EQ(tiny_frame(), tiny_frame());
}

TEST(CheckpointFrame, EveryTruncationLengthRejected) {
  const std::string bytes = tiny_frame();
  CheckpointReader r;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(r.parse(std::string_view(bytes).substr(0, len)))
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_FALSE(r.error().empty());
  }
}

TEST(CheckpointFrame, EverySingleBitFlipRejected) {
  const std::string bytes = tiny_frame();
  // The magic/version/length words reject structurally; every payload bit
  // is caught by the FNV checksum. Appended garbage is a length mismatch.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mut = bytes;
      mut[i] = static_cast<char>(mut[i] ^ (1 << bit));
      CheckpointReader r;
      EXPECT_FALSE(r.parse(mut))
          << "accepted a frame with byte " << i << " bit " << bit
          << " flipped";
    }
  }
  CheckpointReader r;
  EXPECT_FALSE(r.parse(bytes + "x"));
}

TEST(CheckpointFrame, WrongMagicAndVersionDiagnosed) {
  std::string bytes = tiny_frame();
  {
    std::string mut = bytes;
    mut[0] = 'X';
    CheckpointReader r;
    ASSERT_FALSE(r.parse(mut));
    EXPECT_NE(r.error().find("magic"), std::string::npos) << r.error();
  }
  {
    std::string mut = bytes;
    mut[4] = static_cast<char>(kCheckpointVersion + 1);
    CheckpointReader r;
    ASSERT_FALSE(r.parse(mut));
    EXPECT_NE(r.error().find("version"), std::string::npos) << r.error();
  }
  {
    // A frame of the previous layout is refused by name, never misparsed.
    std::string mut = bytes;
    mut[4] = static_cast<char>(kCheckpointVersion - 1);
    CheckpointReader r;
    ASSERT_FALSE(r.parse(mut));
    EXPECT_NE(r.error().find("unsupported checkpoint version " +
                             std::to_string(kCheckpointVersion - 1)),
              std::string::npos)
        << r.error();
  }
}

TEST(CheckpointFrame, FileRoundTripAndMissingFile) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/ckpt_roundtrip.ptbc";
  const std::string bytes = tiny_frame();
  std::string err;
  ASSERT_TRUE(save_checkpoint_file(path, bytes, &err)) << err;
  std::string back;
  ASSERT_TRUE(load_checkpoint_file(path, back, &err)) << err;
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(load_checkpoint_file(dir + "/absent.ptbc", back, &err));
  EXPECT_EQ(err, "cannot open checkpoint '" + dir + "/absent.ptbc'");
}

// The FNV-1a identities that name files on disk: disk-cache run keys, warm
// checkpoint fingerprints and the frame checksum. Recorded before the hash
// loops were merged onto common/bytes.hpp fnv_mix; a change here orphans
// every existing cache entry and checkpoint.
TEST(CheckpointFrame, HashGoldensPinned) {
  EXPECT_EQ(DiskRunCache::run_key("fft", SimConfig{}), 0xbfd21798045f7f85ull);
  EXPECT_EQ(checkpoint_fingerprint(SimConfig{}, "fft", 0),
            0x35cf3747d7df32caull);
  EXPECT_EQ(checkpoint_checksum("PTBC"), 0x883b4a198ec5d78eull);
}

// --- identity validation ----------------------------------------------------

std::string capture_at(const WorkloadProfile& p, const SimConfig& cfg,
                       Cycle at, const RunOptions& base = {}) {
  CmpSimulator sim(cfg, p);
  std::string ckpt;
  RunOptions opts = base;
  opts.checkpoint_at = at;
  opts.checkpoint_out = &ckpt;
  sim.run(opts);
  return ckpt;
}

// Re-frames a capture with `tag`'s payload replaced (or added) by `body`
// (the frame is re-checksummed, so only the section loaders can catch the
// change).
std::string reframe(const CheckpointReader& in, CkptSection tag,
                    std::string_view body) {
  CheckpointWriter w(in.header());
  for (std::uint32_t k = 1;
       k <= static_cast<std::uint32_t>(CkptSection::kResPower); ++k) {
    const auto t = static_cast<CkptSection>(k);
    if (t != tag && !in.has_section(t)) continue;
    const std::string_view b = t == tag ? body : in.section(t);
    w.section(t).raw(b.data(), b.size());
  }
  return w.finish();
}

// Restores `tampered` (rejected as a bad payload) and, as a control, the
// untampered re-framed capture (accepted) into fresh simulators.
void expect_payload_rejected(const WorkloadProfile& p, const SimConfig& cfg,
                             const CheckpointReader& in, CkptSection tag,
                             std::string_view tampered) {
  std::string err;
  CmpSimulator control(cfg, p);
  ASSERT_TRUE(control.restore_checkpoint(reframe(in, tag, in.section(tag)),
                                         &err))
      << err;
  CmpSimulator sim(cfg, p);
  EXPECT_FALSE(sim.restore_checkpoint(reframe(in, tag, tampered), &err));
  EXPECT_NE(err.find("section payload rejected"), std::string::npos) << err;
}

TEST(CheckpointRestore, IdentityMismatchesRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const std::string ckpt = capture_at(p, cfg, 500);
  ASSERT_FALSE(ckpt.empty());

  std::string err;
  {  // different core count
    CmpSimulator sim(make_sim_config(8, ptb_spec()), p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("core count"), std::string::npos) << err;
  }
  {  // different benchmark
    WorkloadProfile q = p;
    q.name = "other";
    CmpSimulator sim(cfg, q);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("benchmark"), std::string::npos) << err;
  }
  {  // different machine
    SimConfig m = cfg;
    m.core.rob_entries *= 2;
    CmpSimulator sim(m, p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("machine"), std::string::npos) << err;
  }
  {  // different seed
    SimConfig s = cfg;
    s.seed = cfg.seed + 1;
    CmpSimulator sim(s, p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("seed"), std::string::npos) << err;
  }
  {  // mid-run frame under a different technique: config fp pinned
    CmpSimulator sim(make_sim_config(4, base_spec()), p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("config fingerprint"), std::string::npos) << err;
  }
}

TEST(CheckpointRestore, CorruptFrameRejectedWithDiagnostic) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  std::string ckpt = capture_at(p, cfg, 500);
  ASSERT_FALSE(ckpt.empty());
  ckpt[ckpt.size() / 2] ^= 0x10;  // payload bit-flip -> checksum
  CmpSimulator sim(cfg, p);
  std::string err;
  EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

// The trailer is a checksum, not a MAC: a re-checksummed frame whose core
// window is inconsistent with itself (here core 0's LSQ count no longer
// matches its in-flight memory ops) must fail the section loader.
TEST(CheckpointRestore, InconsistentCoreWindowRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const std::string ckpt = capture_at(p, cfg, 500);
  CheckpointReader in;
  ASSERT_TRUE(in.parse(ckpt)) << in.error();

  std::string cores(in.section(CkptSection::kCores));
  // Core 0's state opens the section: skip its predictor/PTHT/BCT prefix
  // to reach u64 head_seq, u32 rob_count, u32 lsq_count.
  ByteReader r(cores);
  GsharePredictor(cfg.core).load_state(r);
  Ptht(cfg.power.ptht_entries).load_state(r);
  BctDetector().load_state(r);
  ASSERT_TRUE(r.ok());
  ByteReader counts(std::string_view(cores).substr(cores.size() -
                                                   r.remaining() + 8));
  const std::uint32_t nrob = counts.u32();
  const std::uint32_t nlsq = counts.u32();
  ASSERT_GT(nrob, 0u);
  // Stays within [0, rob_count], so only the window check can catch it.
  const std::uint32_t bad = nlsq > 0 ? nlsq - 1 : nlsq + 1;
  const std::size_t at = cores.size() - r.remaining() + 12;
  for (int i = 0; i < 4; ++i) {
    cores[at + i] = static_cast<char>((bad >> (8 * i)) & 0xff);
  }
  expect_payload_rejected(p, cfg, in, CkptSection::kCores, cores);
}

// The loop state in kFrame holds one entry per core in every vector; a
// shorter est_ema would be indexed past its end by the resumed run.
TEST(CheckpointRestore, ShortFrameVectorRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const std::string ckpt = capture_at(p, cfg, 500);
  CheckpointReader in;
  ASSERT_TRUE(in.parse(ckpt)) << in.error();
  ByteReader r(in.section(CkptSection::kFrame));
  std::vector<double> vecs[5];  // freq_acc, est_ema, act_ema, eff, thermal
  for (std::vector<double>& v : vecs) r.f64_vec(v);
  std::vector<std::uint8_t> finished;
  r.u8_vec(finished);
  ASSERT_TRUE(r.ok() && r.empty());
  ASSERT_EQ(vecs[1].size(), 4u);
  vecs[1].resize(1);
  ByteWriter w;
  for (const std::vector<double>& v : vecs) w.f64_vec(v);
  w.u8_vec(finished);
  expect_payload_rejected(p, cfg, in, CkptSection::kFrame, w.data());
}

// A truncated accounting section would resume with its AoPB and power
// statistics zeroed.
TEST(CheckpointRestore, TruncatedAccountingRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const std::string ckpt = capture_at(p, cfg, 500);
  CheckpointReader in;
  ASSERT_TRUE(in.parse(ckpt)) << in.error();
  ASSERT_GT(in.section(CkptSection::kAcct).size(), 8u);
  expect_payload_rejected(p, cfg, in, CkptSection::kAcct,
                          in.section(CkptSection::kAcct).substr(0, 8));
}

// The CMP power trace's decimation stride is a divisor in TimeSeries::add.
TEST(CheckpointRestore, ZeroStridePowerTraceRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  RunOptions opts;
  opts.record_cmp_trace = true;
  const std::string ckpt = capture_at(p, cfg, 500, opts);
  CheckpointReader in;
  ASSERT_TRUE(in.parse(ckpt)) << in.error();
  // The payload opens with the CMP series: u64 max_points, u64 stride.
  std::string res(in.section(CkptSection::kResPower));
  ASSERT_GE(res.size(), 16u);
  ASSERT_EQ(res[8], 1);
  res[8] = 0;
  expect_payload_rejected(p, cfg, in, CkptSection::kResPower, res);
}

// A section for a component this config lacks is a rejected payload, not
// skipped: here PTB balancer wires framed into a no-control capture.
TEST(CheckpointRestore, SectionForAbsentComponentRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, base_spec());
  const std::string ckpt = capture_at(p, cfg, 500);
  const std::string other = capture_at(p, make_sim_config(4, ptb_spec()), 500);
  CheckpointReader in, donor;
  ASSERT_TRUE(in.parse(ckpt)) << in.error();
  ASSERT_TRUE(donor.parse(other)) << donor.error();
  ASSERT_FALSE(in.has_section(CkptSection::kBalancer));
  ASSERT_TRUE(donor.has_section(CkptSection::kBalancer));
  CmpSimulator sim(cfg, p);
  std::string err;
  EXPECT_FALSE(sim.restore_checkpoint(
      reframe(in, CkptSection::kBalancer,
              donor.section(CkptSection::kBalancer)),
      &err));
  EXPECT_NE(err.find("section payload rejected"), std::string::npos) << err;
}

// --- restore-vs-continuous exactness ----------------------------------------

// The hammer: capture at C, restore into a fresh simulator, and require
// the resumed run to be bit-identical to the uninterrupted run — results,
// trace bytes, stats dump. Run for both a PTB technique and the thrifty
// baseline (which gates cores off cross-core barrier state).
void restore_hammer(const TechniqueSpec& tech) {
  const WorkloadProfile p = small_profile();
  RunOptions opts;
  opts.trace_categories = kTraceAll;
  opts.stats = true;
  opts.stats_sample_every = 256;

  const SimConfig cfg = make_sim_config(4, tech);
  const RunResult full = CmpSimulator(cfg, p).run(opts);
  ASSERT_FALSE(full.hit_max_cycles);
  const Cycle mid = full.cycles / 2;
  const std::string ckpt = capture_at(p, cfg, mid, opts);
  ASSERT_FALSE(ckpt.empty());

  CmpSimulator sim(cfg, p);
  std::string err;
  ASSERT_TRUE(sim.restore_checkpoint(ckpt, &err)) << err;
  const RunResult resumed = sim.run(opts);
  expect_bit_identical(full, resumed);
  ASSERT_NE(full.trace, nullptr);
  ASSERT_NE(resumed.trace, nullptr);
  EXPECT_EQ(full.trace->serialize(), resumed.trace->serialize());
  ASSERT_NE(resumed.stats, nullptr);
  EXPECT_EQ(stats_json(full, /*include_volatile=*/false),
            stats_json(resumed, /*include_volatile=*/false));
}

TEST(CheckpointRestore, MidRunResumeBitIdenticalPtb) {
  restore_hammer(ptb_spec());
}

TEST(CheckpointRestore, MidRunResumeBitIdenticalThrifty) {
  restore_hammer({"thrifty", TechniqueKind::kThriftyBarrier, false,
                  PtbPolicy::kToAll, 0.0});
}

// A restored simulator consumes its carry: the frame only redirects the
// next run().
TEST(CheckpointRestore, CarryConsumedBySingleRun) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const RunResult full = CmpSimulator(cfg, p).run();
  const std::string ckpt = capture_at(p, cfg, full.cycles / 2);
  CmpSimulator sim(cfg, p);
  ASSERT_TRUE(sim.restore_checkpoint(ckpt));
  const RunResult resumed = sim.run();
  expect_bit_identical(full, resumed);
}

// --- cycle-0 frames ---------------------------------------------------------

// A cycle-0 frame (captured right after functional warmup) follows the
// same identity rule as any other: under another technique it is refused.
TEST(CheckpointRestore, CycleZeroFrameRefusedAcrossTechniques) {
  const WorkloadProfile p = small_profile();
  const std::string warm = capture_at(p, make_sim_config(4, base_spec()), 0);
  ASSERT_FALSE(warm.empty());

  for (const TechniqueSpec& tech :
       {ptb_spec(),
        TechniqueSpec{"dvfs", TechniqueKind::kDvfs, false, PtbPolicy::kToAll,
                      0.0}}) {
    SCOPED_TRACE(tech.label);
    CmpSimulator sim(make_sim_config(4, tech), p);
    std::string err;
    EXPECT_FALSE(sim.restore_checkpoint(warm, &err));
    EXPECT_NE(err.find("config fingerprint"), std::string::npos) << err;
  }
}

// Under its own config a cycle-0 frame resumes like any frame: the run
// from it is bit-identical to the run from scratch.
TEST(CheckpointRestore, CycleZeroFrameResumesBitIdentical) {
  const WorkloadProfile p = small_profile();
  for (const TechniqueSpec& tech : {base_spec(), ptb_spec()}) {
    SCOPED_TRACE(tech.label);
    const SimConfig cfg = make_sim_config(4, tech);
    const RunResult scratch = CmpSimulator(cfg, p).run();
    const std::string warm = capture_at(p, cfg, 0);
    ASSERT_FALSE(warm.empty());
    CmpSimulator sim(cfg, p);
    std::string err;
    ASSERT_TRUE(sim.restore_checkpoint(warm, &err)) << err;
    expect_bit_identical(scratch, sim.run());
  }
}

TEST(CheckpointFingerprint, ExcludesTechniqueIncludesCycle) {
  const SimConfig a = make_sim_config(4, base_spec());
  const SimConfig b = make_sim_config(4, ptb_spec());
  EXPECT_EQ(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(b, "fft", 0));
  EXPECT_NE(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(a, "fft", 1000));
  EXPECT_NE(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(a, "lu", 0));
  SimConfig c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(c, "fft", 0));
}

}  // namespace
}  // namespace ptb
