// ptb-lint: cycle-loop-file — FP reductions here must use
// deterministic_total() (see the fp-accum checker, tools/lint/checks.cpp).
#include "sim/cmp.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/assert.hpp"
#include "sim/checkpoint.hpp"
#include "sim/reporting.hpp"
#include "stats/dump.hpp"
#include "stats/stats.hpp"

namespace ptb {

namespace {
// NoC activity energy per flit-hop (tokens); part of the uncore share.
constexpr double kNocTokensPerFlitHop = 0.02;
// Spin-power detection threshold as a fraction of the local budget.
constexpr double kSpinThresholdFrac = 0.30;
// Spinner-gating threshold (between the spin plateau and busy power).
constexpr double kSpinGateThresholdFrac = 0.55;

// Wall-clock self-profiling (stats runs only). Timing every cycle would
// cost ~5 clock reads per cycle — far over the stats overhead budget —
// so one cycle in kSelfProfilePeriod is timed and scaled up. The readings
// feed only volatile stats (never a simulation decision, never a
// deterministic dump).
constexpr Cycle kSelfProfilePeriod = 64;
}  // namespace

// Volatile wall-clock readings only; the deterministic count of timed
// cycles is CycleFrame::prof_timed_cycles.
struct CmpSimulator::SelfProfile {
  double tick_s = 0.0;     // phase 1: core ticks (memory accesses
                           // included), power model, smoothing
  double power_s = 0.0;    // phase 2: reductions, NoC drain, global signal
  double control_s = 0.0;  // phases 3-3b: balancing + enforcement + gating
  double account_s = 0.0;  // phases 4-5: accounting, audit, sample
};

// The payloads of sections whose targets run() builds from its RunOptions
// (registry-owned histogram, sample buffer, tracer, result power traces),
// already checked by restore_checkpoint(); empty when the frame has none.
struct CmpSimulator::CheckpointCarry {
  Cycle cycle = 0;
  std::string hist;
  std::string samples;
  std::string tracer;
  std::string res_power;
};

void CycleFrame::reset(std::uint32_t n, double local_budget,
                       double global_budget) {
  freq_acc.assign(n, 0.0);
  est_ema.assign(n, 0.0);
  act_ema.assign(n, 0.0);
  eff_budget.assign(n, local_budget);
  thermal_acc.assign(n, 0.0);
  finished.assign(n, 0);
  acct = EnergyAccounting(global_budget);
  epoch_over = false;
  epoch_acc = 0.0;
  epoch_n = 0;
  spin_gated_cycles = 0;
  prof_timed_cycles = 0;
  states.assign(n, ExecState::kBusy);
  fetch_exact.assign(n, 0.0);
  fetch_est.assign(n, 0.0);
  rob_occ.assign(n, 0);
  active.assign(n, 0);
  gated.assign(n, 0);
  vdd.assign(n, 1.0);
  est_power.assign(n, 0.0);
  act_power.assign(n, 0.0);
}

CmpSimulator::CmpSimulator(const SimConfig& cfg,
                           const WorkloadProfile& profile)
    : cfg_(cfg), profile_(profile),
      energy_model_(BaseEnergyModel::shared(cfg_.power, cfg_.seed)),
      budgets_(cfg_), thermal_(cfg_.thermal, cfg_.num_cores) {
  PTB_ASSERT(cfg_.num_cores >= 1, "need at least one core");
  mesh_ = std::make_unique<Mesh>(cfg_.noc, cfg_.mesh_width(),
                                 cfg_.mesh_height());
  mem_ = std::make_unique<MemorySystem>(cfg_, *mesh_);
  const std::uint32_t locks = std::max<std::uint32_t>(1, profile.num_locks);
  sync_ = std::make_unique<SyncState>(locks, 1, cfg_.num_cores);
  trackers_.resize(cfg_.num_cores);
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    programs_.push_back(std::make_unique<SyntheticProgram>(
        profile_, i, cfg_.num_cores, *sync_, trackers_[i], cfg_.seed));
    cores_.push_back(std::make_unique<Core>(i, cfg_, *mem_, *sync_,
                                            *programs_[i], *energy_model_));
    enforcers_.push_back(
        std::make_unique<TwoLevelController>(cfg_, cfg_.technique));
  }
  if (cfg_.ptb.enabled) {
    if (cfg_.ptb.cluster_size > 0 &&
        cfg_.ptb.cluster_size < cfg_.num_cores) {
      clustered_ = std::make_unique<ClusteredBalancer>(
          cfg_.ptb, cfg_.num_cores, cfg_.ptb.cluster_size,
          budgets_.local_budget());
    } else {
      balancer_ = std::make_unique<PtbLoadBalancer>(
          cfg_.ptb, cfg_.num_cores, budgets_.local_budget());
    }
    selector_ = std::make_unique<DynamicPolicySelector>(
        cfg_.ptb, cfg_.num_cores,
        budgets_.local_budget() * kSpinThresholdFrac);
  }
  if (cfg_.technique == TechniqueKind::kThriftyBarrier) {
    thrifty_ = std::make_unique<ThriftyBarrierController>(cfg_.num_cores);
  } else if (cfg_.technique == TechniqueKind::kMeetingPoints) {
    meeting_ = std::make_unique<MeetingPointsController>(cfg_.num_cores);
  }
  if (cfg_.ptb.gate_spinners) {
    // The gating threshold sits between the spin plateau and busy power so
    // the first post-wake work burst (EMA-lifted) releases the gate.
    gate_detectors_.assign(
        cfg_.num_cores,
        SpinPowerDetector(budgets_.local_budget() * kSpinGateThresholdFrac,
                          64));
  }
  if (cfg_.audit_level != AuditLevel::kOff) {
    auditor_ = std::make_unique<InvariantAuditor>(cfg_);
  }
}

CmpSimulator::~CmpSimulator() = default;

void CmpSimulator::warm_caches() {
  DirectoryController& dir = mem_->directory();
  const std::uint32_t line = cfg_.l1d.line_bytes;
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    const SyntheticProgram& prog = *programs_[i];
    // Code (template + inlined sync routines) into the L1I.
    for (Addr a = prog.code_base();
         a < prog.code_base() + prog.code_bytes() + 0x8020; a += line) {
      dir.warm(i, a / line, /*instruction=*/true, /*exclusive=*/false);
    }
    // Private data: L2 always; L1D up to ~70% of capacity (avoid self-
    // eviction churn during warmup).
    const std::uint32_t l1_lines =
        cfg_.l1d.size_bytes / cfg_.l1d.line_bytes;
    const std::uint32_t l1_cap = l1_lines * 7 / 10;
    for (std::uint32_t j = 0; j < profile_.ws_private_lines; ++j) {
      const Addr l = (prog.private_base() + static_cast<Addr>(j) * line) /
                     line;
      dir.warm(j < l1_cap ? i : kNoCore, l, false, /*exclusive=*/true);
    }
  }
  // Shared data into the L2 only (L1 sharing emerges in the run).
  for (std::uint32_t j = 0; j < profile_.ws_shared_lines; ++j) {
    const Addr l =
        (SyntheticProgram::kSharedBase + static_cast<Addr>(j) * line) / line;
    dir.warm(kNoCore, l, false, false);
  }
  // Branch predictors learn each static branch's dominant direction.
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    programs_[i]->warm_predictor(cores_[i]->predictor());
  }
}

bool CmpSimulator::restore_checkpoint(std::string_view bytes,
                                      std::string* err) {
  const auto fail = [&](std::string m) {
    if (err != nullptr) *err = std::move(m);
    return false;
  };
  carry_.reset();
  CheckpointReader ck;
  if (!ck.parse(bytes)) return fail(ck.error());
  const CheckpointHeader& h = ck.header();
  const std::uint32_t n = cfg_.num_cores;
  if (h.num_cores != n) {
    return fail("checkpoint core count mismatch (" +
                std::to_string(h.num_cores) + " vs " + std::to_string(n) +
                ")");
  }
  if (h.benchmark != profile_.name) {
    return fail("checkpoint benchmark mismatch ('" + h.benchmark + "' vs '" +
                profile_.name + "')");
  }
  if (h.machine_fp != machine_fingerprint(cfg_)) {
    return fail("checkpoint machine fingerprint mismatch");
  }
  if (h.seed != cfg_.seed) return fail("checkpoint seed mismatch");
  if (h.config_fp != config_fingerprint(cfg_)) {
    return fail(
        "checkpoint config fingerprint mismatch: a frame resumes only under "
        "the exact config it was captured with");
  }

  // A section is present exactly when its target exists under this config,
  // and its payload must parse completely: anything else rejects the frame.
  const auto load = [&](CkptSection tag, bool present, auto&& fn) -> bool {
    if (ck.has_section(tag) != present) return false;
    if (!present) return true;
    ByteReader r(ck.section(tag));
    fn(r);
    return r.ok() && r.empty();
  };

  bool ok = true;
  ok = ok && load(CkptSection::kCores, true, [&](ByteReader& r) {
    for (auto& c : cores_) c->load_state(r);
  });
  ok = ok && load(CkptSection::kPrograms, true, [&](ByteReader& r) {
    for (auto& p : programs_) p->load_state(r);
  });
  ok = ok && load(CkptSection::kMem, true,
                  [&](ByteReader& r) { mem_->load_state(r); });
  ok = ok && load(CkptSection::kMesh, true,
                  [&](ByteReader& r) { mesh_->load_state(r); });
  ok = ok && load(CkptSection::kSync, true,
                  [&](ByteReader& r) { sync_->load_state(r); });
  ok = ok && load(CkptSection::kTrackers, true, [&](ByteReader& r) {
    for (SpinTracker& t : trackers_) t.load_state(r);
  });
  ok = ok && load(CkptSection::kBalancer, balancer_ != nullptr,
                  [&](ByteReader& r) { balancer_->load_state(r); });
  ok = ok && load(CkptSection::kClustered, clustered_ != nullptr,
                  [&](ByteReader& r) { clustered_->load_state(r); });
  ok = ok && load(CkptSection::kEnforcers, true, [&](ByteReader& r) {
    for (auto& e : enforcers_) e->load_state(r);
  });
  ok = ok && load(CkptSection::kSelector, selector_ != nullptr,
                  [&](ByteReader& r) { selector_->load_state(r); });
  ok = ok && load(CkptSection::kGates, !gate_detectors_.empty(),
                  [&](ByteReader& r) {
                    if (r.u64() != gate_detectors_.size()) return r.fail();
                    for (SpinPowerDetector& d : gate_detectors_) {
                      d.load_state(r);
                    }
                  });
  ok = ok && load(CkptSection::kThrifty, thrifty_ != nullptr,
                  [&](ByteReader& r) { thrifty_->load_state(r); });
  ok = ok && load(CkptSection::kMeeting, meeting_ != nullptr,
                  [&](ByteReader& r) { meeting_->load_state(r); });
  ok = ok && load(CkptSection::kThermal, true,
                  [&](ByteReader& r) { thermal_.load_state(r); });

  // The loop's carried state loads in place; run() resumes from frame_.
  CycleFrame& f = frame_;
  f.reset(n, budgets_.local_budget(), budgets_.global_budget());
  ok = ok && load(CkptSection::kFrame, true, [&](ByteReader& r) {
    for (std::vector<double>* v :
         {&f.freq_acc, &f.est_ema, &f.act_ema, &f.eff_budget,
          &f.thermal_acc}) {
      r.f64_vec(*v);
      if (v->size() != n) r.fail();
    }
    r.u8_vec(f.finished);
    if (f.finished.size() != n) r.fail();
  });
  ok = ok && load(CkptSection::kAcct, true,
                  [&](ByteReader& r) { f.acct.load_state(r); });
  ok = ok && load(CkptSection::kRun, true, [&](ByteReader& r) {
    f.epoch_over = r.boolean();
    f.epoch_acc = r.f64();
    f.epoch_n = r.u32();
    f.spin_gated_cycles = r.u64();
    f.prof_timed_cycles = r.u64();
    if (f.epoch_n >= cfg_.dvfs.window_cycles) r.fail();
  });

  // The rest stays staged as bytes until run() builds its targets from its
  // RunOptions. Each payload loads here into a target of the same shape,
  // so run() never applies one its loader would reject.
  auto carry = std::make_unique<CheckpointCarry>();
  carry->cycle = h.cycle;
  const auto stage = [&](CkptSection tag, std::string& out,
                         auto&& fn) -> bool {
    if (!ck.has_section(tag)) return true;
    ByteReader r(ck.section(tag));
    fn(r);
    if (!r.ok() || !r.empty()) return false;
    out = std::string(ck.section(tag));
    return true;
  };
  if (ck.has_section(CkptSection::kHist) ||
      ck.has_section(CkptSection::kSamples)) {
    // The histogram and the sample columns belong to the run's registry.
    StatsRegistry reg;
    const Cycle now = 0;
    const std::uint32_t finished_count = 0;
    const SelfProfile prof;
    Histogram& hist = register_run_stats(reg, now, finished_count, prof);
    ok = ok && stage(CkptSection::kHist, carry->hist,
                     [&](ByteReader& r) { hist.load_state(r); });
    ok = ok && stage(CkptSection::kSamples, carry->samples,
                     [&](ByteReader& r) { SampleBuffer(reg).load_state(r); });
  }
  ok = ok && stage(CkptSection::kTracer, carry->tracer, [&](ByteReader& r) {
    EventTracer(0, cfg_.trace.buffer_events).load_state(r);
  });
  ok = ok && stage(CkptSection::kResPower, carry->res_power,
                   [&](ByteReader& r) {
                     TimeSeries t;
                     t.load_state(r);
                     // run() records either no per-core series or n.
                     const std::uint64_t k = r.u64();
                     if (k != 0 && k != n) r.fail();
                     for (std::uint64_t i = 0; r.ok() && i < k; ++i) {
                       t.load_state(r);
                     }
                   });
  if (!ok) {
    return fail("checkpoint section payload rejected (corrupt or "
                "incompatible with this configuration)");
  }
  carry_ = std::move(carry);
  return true;
}

RunResult CmpSimulator::run(const RunOptions& opts) {
  const std::uint32_t n = cfg_.num_cores;

  // Event tracing (src/trace): allocated only for traced runs; every
  // collaborator holds a raw pointer (null = one-branch no-op per emit
  // site, the audit-hook pattern). Detached again before returning so the
  // pointers never outlive this local recorder.
  std::unique_ptr<EventTracer> tracer;
  if (opts.trace_categories != 0) {
    tracer = std::make_unique<EventTracer>(opts.trace_categories,
                                           cfg_.trace.buffer_events);
  }
  const auto wire_tracer = [&](EventTracer* t) {
    if (balancer_) balancer_->set_tracer(t);
    if (clustered_) clustered_->set_tracer(t);
    if (selector_) selector_->set_tracer(t);
    sync_->set_tracer(t);
    for (CoreId i = 0; i < n; ++i) {
      trackers_[i].set_tracer(t, i);
      enforcers_[i]->set_tracer(t, i);
    }
  };
  if (tracer) wire_tracer(tracer.get());

  // A restored checkpoint already contains post-warmup (or later) state,
  // and restore_checkpoint() loaded the loop's carried state into frame_.
  const bool resuming = carry_ != nullptr;
  if (cfg_.functional_warmup && !resuming) warm_caches();
  RunResult res;
  res.benchmark = profile_.name;
  res.num_cores = n;
  res.budget = budgets_.global_budget();
  res.peak_power = budgets_.peak_power();
  res.cores.resize(n);
  if (opts.record_core_traces) {
    res.core_power_traces.assign(n, TimeSeries(1 << 12));
  }

  // All loop state lives in the simulator-owned CycleFrame: reset()
  // reuses capacity across runs and the loop below never allocates.
  CycleFrame& f = frame_;
  if (!resuming) {
    f.reset(n, budgets_.local_budget(), budgets_.global_budget());
  }
  std::uint32_t finished_count = 0;

  // Commit charging concentrates an instruction's energy into one cycle;
  // physically the pipeline spreads it over several. A short exponential
  // smoothing (tau ~ 8 cycles) models that spreading for both the actual
  // power curve and the PTHT control estimate.
  constexpr double kEmaAlpha = 1.0 / 8.0;

  const double wire_overhead =
      cfg_.ptb.enabled ? (1.0 + cfg_.power.ptb_wire_overhead_frac) : 1.0;

  const bool ptb_active = balancer_ != nullptr || clustered_ != nullptr;
  // One technique kind per run, so enforcer activity is uniform; inactive
  // enforcers (kNone / CMP-level baselines) no-op their tick and pin both
  // ratios at 1.0, letting the loop skip the calls wholesale.
  const bool enforcers_active = enforcers_[0]->active();
  // The PTHT estimate is pure control/observability input. When nothing
  // consumes it — no balancer, no budget enforcer, no spinner gating, no
  // tracer, no auditor — skip the whole estimate path: the per-op PTHT
  // lookups at fetch, the second power-model evaluation and its EMA. Every
  // consumer below is gated on the same conditions, so results are
  // unchanged byte for byte.
  const bool est_needed = ptb_active || enforcers_active ||
                          !gate_detectors_.empty() || tracer != nullptr ||
                          auditor_ != nullptr;
  for (CoreId i = 0; i < n; ++i) cores_[i]->set_estimate_fetch(est_needed);

  Cycle now = 0;

  // Stats registry (src/stats): pull-based. Registration binds the
  // components' existing counters (and the loop's now / finished_count) —
  // the loop below does no extra bookkeeping for them. Local to the run so
  // the bound sources always outlive it.
  const bool stats_on = opts.stats || opts.stats_sample_every > 0;
  std::unique_ptr<StatsRegistry> stats;
  Histogram* power_hist = nullptr;
  SelfProfile prof;
  if (stats_on) {
    stats = std::make_unique<StatsRegistry>();
    power_hist = &register_run_stats(*stats, now, finished_count, prof);
  }
  std::unique_ptr<SampleBuffer> samples;
  if (stats && opts.stats_sample_every > 0) {
    samples = std::make_unique<SampleBuffer>(*stats);
  }

  // --- checkpoint capture (sim/checkpoint.hpp) ---
  // Runs at the top of a cycle-loop body: the strongest quiescent point —
  // the previous cycle completed, so every byte of live state is reachable
  // through the components and the locals above.
  const auto capture_checkpoint = [&]() -> std::string {
    CheckpointHeader h;
    h.checkpoint_fp = checkpoint_fingerprint(cfg_, profile_.name, now);
    h.machine_fp = machine_fingerprint(cfg_);
    h.config_fp = config_fingerprint(cfg_);
    h.seed = cfg_.seed;
    h.num_cores = n;
    h.cycle = now;
    h.benchmark = profile_.name;
    CheckpointWriter cw(h);
    {
      ByteWriter& w = cw.section(CkptSection::kCores);
      for (CoreId i = 0; i < n; ++i) cores_[i]->save_state(w);
    }
    {
      ByteWriter& w = cw.section(CkptSection::kPrograms);
      for (CoreId i = 0; i < n; ++i) programs_[i]->save_state(w);
    }
    mem_->save_state(cw.section(CkptSection::kMem));
    mesh_->save_state(cw.section(CkptSection::kMesh));
    sync_->save_state(cw.section(CkptSection::kSync));
    {
      ByteWriter& w = cw.section(CkptSection::kTrackers);
      for (CoreId i = 0; i < n; ++i) trackers_[i].save_state(w);
    }
    if (balancer_) balancer_->save_state(cw.section(CkptSection::kBalancer));
    if (clustered_) {
      clustered_->save_state(cw.section(CkptSection::kClustered));
    }
    {
      ByteWriter& w = cw.section(CkptSection::kEnforcers);
      for (CoreId i = 0; i < n; ++i) enforcers_[i]->save_state(w);
    }
    if (selector_) selector_->save_state(cw.section(CkptSection::kSelector));
    if (!gate_detectors_.empty()) {
      ByteWriter& w = cw.section(CkptSection::kGates);
      w.u64(gate_detectors_.size());
      for (const SpinPowerDetector& d : gate_detectors_) d.save_state(w);
    }
    if (thrifty_) thrifty_->save_state(cw.section(CkptSection::kThrifty));
    if (meeting_) meeting_->save_state(cw.section(CkptSection::kMeeting));
    thermal_.save_state(cw.section(CkptSection::kThermal));
    {
      ByteWriter& w = cw.section(CkptSection::kFrame);
      w.f64_vec(f.freq_acc);
      w.f64_vec(f.est_ema);
      w.f64_vec(f.act_ema);
      w.f64_vec(f.eff_budget);
      w.f64_vec(f.thermal_acc);
      w.u8_vec(f.finished);
    }
    f.acct.save_state(cw.section(CkptSection::kAcct));
    {
      ByteWriter& w = cw.section(CkptSection::kRun);
      w.boolean(f.epoch_over);
      w.f64(f.epoch_acc);
      w.u32(f.epoch_n);
      w.u64(f.spin_gated_cycles);
      // The self-profile *cycle count* is deterministic (its cadence is a
      // pure function of `now`) and feeds a sample-buffer column, so it is
      // carried; the wall-clock seconds stay volatile and uncarried.
      w.u64(f.prof_timed_cycles);
    }
    if (power_hist) power_hist->save_state(cw.section(CkptSection::kHist));
    if (samples) samples->save_state(cw.section(CkptSection::kSamples));
    if (tracer) tracer->save_state(cw.section(CkptSection::kTracer));
    if (opts.record_cmp_trace || opts.record_core_traces) {
      ByteWriter& w = cw.section(CkptSection::kResPower);
      res.cmp_power_trace.save_state(w);
      w.u64(res.core_power_traces.size());
      for (const TimeSeries& t : res.core_power_traces) t.save_state(w);
    }
    return cw.finish();
  };

  // --- resume from a restored checkpoint ---
  // restore_checkpoint() loaded the components and frame_ and checked the
  // staged payloads; each lands here when this run built its target (a
  // run with other RunOptions than the captured one keeps its fresh
  // state). Consumed so a later run() on this simulator starts fresh.
  if (resuming) {
    now = carry_->cycle;
    for (CoreId i = 0; i < n; ++i) {
      if (f.finished[i] != 0) {
        ++finished_count;
        res.cores[i].finish_cycle = cores_[i]->finish_cycle;
      }
    }
    const auto apply = [](const std::string& bytes, auto&& fn) {
      if (bytes.empty()) return;
      ByteReader r(bytes);
      fn(r);
    };
    if (power_hist) {
      apply(carry_->hist, [&](ByteReader& r) { power_hist->load_state(r); });
    }
    if (samples) {
      apply(carry_->samples, [&](ByteReader& r) { samples->load_state(r); });
    }
    if (tracer) {
      apply(carry_->tracer, [&](ByteReader& r) { tracer->load_state(r); });
    }
    if (opts.record_cmp_trace || opts.record_core_traces) {
      apply(carry_->res_power, [&](ByteReader& r) {
        res.cmp_power_trace.load_state(r);
        if (r.u64() == res.core_power_traces.size()) {
          for (TimeSeries& t : res.core_power_traces) t.load_state(r);
        }
      });
    }
    carry_.reset();
  }

  using ProfClock = std::chrono::steady_clock;  // lint:allowed-wallclock
  const auto prof_lap = [](ProfClock::time_point t0, double& acc) {
    const auto t1 = ProfClock::now();
    acc += std::chrono::duration<double>(t1 - t0).count() *
           static_cast<double>(kSelfProfilePeriod);
    return t1;
  };

  for (; now < cfg_.max_cycles && finished_count < n; ++now) {
    // Checkpoint capture: top of the loop body, before the cycle executes,
    // so a restored run replays `checkpoint_at` onward (checkpoint.hpp).
    if (now == opts.checkpoint_at && opts.checkpoint_out != nullptr) {
      *opts.checkpoint_out = capture_checkpoint();
    }
    // Stamp the cycle once; emit sites then need no cycle parameter.
    if (tracer) tracer->begin_cycle(now);

    const bool prof_cycle = stats_on && now % kSelfProfilePeriod == 0;
    ProfClock::time_point pt{};
    if (prof_cycle) {
      ++f.prof_timed_cycles;
      pt = ProfClock::now();
    }

    // --- 1. cores tick in index order: gate (frequency scaling, DVFS
    //        stalls, sleep states), tick, activity snapshot ---
    for (CoreId i = 0; i < n; ++i) {
      Core& core = *cores_[i];

      // Baseline controllers (prior art; Section II.C).
      bool asleep = false;
      double freq_ratio = 1.0;
      double vdd_ratio = 1.0;
      bool stalled = false;
      if (enforcers_active) {
        const TwoLevelController& enf = *enforcers_[i];
        freq_ratio = enf.freq_ratio();
        vdd_ratio = enf.vdd_ratio();
        stalled = enf.stalled(now);
      }
      if (thrifty_ && !f.finished[i]) {
        asleep = thrifty_->tick(i, now, trackers_[i].state(),
                                sync_->barrier_episodes,
                                core.rob_occupancy() == 0);
      }
      if (meeting_ && !f.finished[i]) {
        meeting_->tick(i, now, trackers_[i].state());
        const DvfsMode& m = kDvfsModes[meeting_->mode_for(i)];
        freq_ratio = m.freq_ratio;
        vdd_ratio = m.vdd_ratio;
      }

      bool active = false;
      if (!f.finished[i] && !stalled && !asleep) {
        f.freq_acc[i] += freq_ratio;
        if (f.freq_acc[i] >= 1.0) {
          f.freq_acc[i] -= 1.0;
          active = true;
        }
      }
      f.active[i] = active ? 1 : 0;
      f.vdd[i] = vdd_ratio;
      if (active) core.tick(now);

      f.gated[i] = (!active || core.idle()) ? 1 : 0;
      // Actual power: exact base tokens of the instructions entering the
      // pipeline this cycle plus the (small) ROB residency component.
      // Front-end attribution makes the fetch-throttling techniques act
      // on the power curve within a few cycles, as in the paper.
      f.rob_occ[i] = core.rob_occupancy();
      f.fetch_exact[i] = active ? core.fetch_tokens_exact() : 0.0;
      // Control estimate: PTHT tokens of the instructions being fetched
      // (residency folded into the stored values, III.B).
      f.fetch_est[i] = active ? core.fetch_tokens_estimated() : 0.0;

      if (!f.finished[i] && core.finished()) {
        f.finished[i] = 1;
        ++finished_count;
        core.finish_cycle = now;
        res.cores[i].finish_cycle = now;
      }
    }

    // Batched power model + smoothing over all cores.
    const CoreActivityBatch batch{f.fetch_exact.data(), f.fetch_est.data(),
                                  f.rob_occ.data(),     f.active.data(),
                                  f.gated.data(),       f.vdd.data()};
    core_cycle_power_batch(cfg_.power, batch, n, wire_overhead,
                           f.act_power.data(),
                           est_needed ? f.est_power.data() : nullptr);
    for (CoreId i = 0; i < n; ++i) {
      f.act_ema[i] += kEmaAlpha * (f.act_power[i] - f.act_ema[i]);
      f.act_power[i] = f.act_ema[i];
    }
    if (est_needed) {
      for (CoreId i = 0; i < n; ++i) {
        f.est_ema[i] += kEmaAlpha * (f.est_power[i] - f.est_ema[i]);
        f.est_power[i] = f.est_ema[i];
      }
    }
    // Per-core accounting that only reads this core's smoothed power.
    for (CoreId i = 0; i < n; ++i) {
      trackers_[i].attribute_cycle(f.act_power[i]);
      f.thermal_acc[i] += f.act_power[i];
      if (opts.record_core_traces) {
        res.core_power_traces[i].add(static_cast<double>(now),
                                     f.act_power[i]);
      }
    }
    if ((now + 1) % ThermalModel::kStepCycles == 0) {
      for (CoreId i = 0; i < n; ++i) {
        thermal_.step(i, f.thermal_acc[i] /
                             static_cast<double>(ThermalModel::kStepCycles));
        f.thermal_acc[i] = 0.0;
      }
    }

    if (prof_cycle) pt = prof_lap(pt, prof.tick_s);

    // CMP-wide totals use the one canonical FP reduction order.
    double total_act = deterministic_total(f.act_power.data(), n);
    const double total_est =
        est_needed ? deterministic_total(f.est_power.data(), n) : 0.0;
    // NoC activity energy (uncore); the flit hops drained here are the ones
    // this cycle's memory accesses routed.
    total_act += static_cast<double>(mesh_->drain_flit_hops()) *
                 kNocTokensPerFlitHop;

    // --- 2. global over-budget signal ---
    if (tracer && now % cfg_.trace.budget_sample_every == 0) {
      // Deficit of the *control* signal (the PTHT estimate the balancer and
      // enforcers act on); negative while under budget.
      tracer->emit(TraceEventType::kBudgetSample, kNoCore, 0,
                   total_est - budgets_.global_budget());
    }
    const bool global_over_now = total_est > budgets_.global_budget();
    // Without PTB's dedicated wire layer, the "CMP over the global budget"
    // condition is only observable at power-monitor epochs (one DVFS
    // window): the enforcement flag is re-evaluated from the previous
    // epoch's average. PTB's load-balancer aggregates tokens every cycle,
    // giving it (and the techniques under it) a per-cycle global signal — a
    // key reason it matches the budget so much more accurately (Sections
    // III.E, IV.A).
    f.epoch_acc += total_est;
    if (++f.epoch_n >= cfg_.dvfs.window_cycles) {
      f.epoch_over =
          (f.epoch_acc / f.epoch_n) > budgets_.global_budget();
      f.epoch_acc = 0.0;
      f.epoch_n = 0;
    }
    const bool global_over = ptb_active ? global_over_now : f.epoch_over;

    if (prof_cycle) pt = prof_lap(pt, prof.power_s);

    // --- 3. PTB balancing ---
    if (ptb_active) {
      PtbPolicy policy = cfg_.ptb.policy;
      if (policy == PtbPolicy::kDynamic) {
        if (cfg_.ptb.dynamic_uses_ground_truth) {
          for (CoreId i = 0; i < n; ++i) f.states[i] = trackers_[i].state();
          policy = selector_->select(f.states);
        } else {
          policy = selector_->select_heuristic(now, f.est_power);
        }
      }
      if (clustered_) {
        clustered_->cycle(now, f.est_power.data(), budgets_.global_budget(),
                          policy, f.eff_budget.data());
      } else {
        balancer_->cycle(now, f.est_power.data(), global_over, policy,
                         f.eff_budget.data());
      }
    }

    // --- 3. local enforcement ---
    if (enforcers_active) {
      for (CoreId i = 0; i < n; ++i) {
        enforcers_[i]->tick(now, f.est_power[i], f.eff_budget[i], global_over,
                            cfg_.ptb.relax_threshold, *cores_[i]);
      }
    }

    // --- 3b. spinner gating (future-work extension) ---
    if (!gate_detectors_.empty()) {
      for (CoreId i = 0; i < n; ++i) {
        const bool spinning = gate_detectors_[i].tick(f.est_power[i]);
        if (spinning && !f.finished[i] &&
            now % cfg_.ptb.spin_gate_period >= 2) {
          // Duty-cycled fetch gate: the spin loop still polls during the
          // 2-cycle window at the start of each period.
          cores_[i]->set_fetch_limit(0);
          ++f.spin_gated_cycles;
        } else if (cfg_.technique != TechniqueKind::kTwoLevel) {
          // Release the gate ourselves: only the 2-level enforcer manages
          // the fetch limit per cycle.
          cores_[i]->set_fetch_limit(cfg_.core.fetch_width);
        }
      }
    }

    if (prof_cycle) pt = prof_lap(pt, prof.control_s);

    // --- 4. accounting (the per-core spin/thermal attribution already ran
    //        in phase 1; only CMP-level totals remain) ---
    f.acct.record_cycle(total_act);
    if (power_hist) power_hist->add(total_act);
    if (opts.record_cmp_trace) {
      res.cmp_power_trace.add(static_cast<double>(now), total_act);
    }

    // --- 5. invariant audit (off the results path; read-only) ---
    if (auditor_) audit_cycle(now, f.acct, total_act, f.eff_budget.data());

    if (samples && (now + 1) % opts.stats_sample_every == 0) {
      samples->sample(now);
    }
    if (prof_cycle) prof_lap(pt, prof.account_s);
  }

  if (auditor_) {
    // The periodic scan can miss the tail of the run; always close with a
    // full coherence sweep so short runs are audited end-to-end too.
    if (auditor_->level() == AuditLevel::kFull) {
      auditor_->check_coherence(now, *mem_);
    }
    PTB_ASSERTF(auditor_->clean(), "invariant audit failed: %s",
                auditor_->report().summary().c_str());
    res.audit_checks = auditor_->checks_run();
  }
  res.machine_fingerprint = machine_fingerprint(cfg_);

  res.cycles = now;
  res.hit_max_cycles = (finished_count < n);
  res.energy = f.acct.energy();
  res.aopb = f.acct.aopb();
  res.power = f.acct.power_stat();
  res.spin_gated_cycles = f.spin_gated_cycles;
  for (CoreId i = 0; i < n; ++i) {
    CoreResult& c = res.cores[i];
    c.committed = cores_[i]->committed;
    c.flushes = cores_[i]->flushes;
    for (std::uint32_t s = 0; s < kNumExecStates; ++s) {
      c.state_cycles[s] =
          trackers_[i].cycles_in(static_cast<ExecState>(s));
    }
    c.spin_energy = trackers_[i].spin_power();
    c.energy = trackers_[i].total_power();
    c.temp_mean = thermal_.history(i).mean();
    c.temp_std = thermal_.history(i).stddev();
    res.spin_energy += c.spin_energy;
    res.total_committed += c.committed;
    res.dvfs_transitions += enforcers_[i]->dvfs().transitions;
  }
  if (balancer_) {
    res.tokens_donated = balancer_->tokens_donated;
    res.tokens_granted = balancer_->tokens_granted;
    res.tokens_evaporated = balancer_->tokens_evaporated;
  } else if (clustered_) {
    res.tokens_donated = clustered_->tokens_donated();
    res.tokens_granted = clustered_->tokens_granted();
  }
  if (selector_) {
    res.to_one_cycles = selector_->to_one_cycles;
    res.to_all_cycles = selector_->to_all_cycles;
  }
  if (thrifty_) res.barrier_sleep_cycles = thrifty_->sleep_cycles;
  if (meeting_) res.meeting_point_episodes = meeting_->episodes;
  const DirectoryController& dir = mem_->directory();
  res.owner_forwards = dir.owner_forwards;
  res.writebacks = dir.writebacks;
  res.dram_accesses = dir.dram().accesses;
  res.dram_row_hits = dir.dram().row_hits;
  if (tracer) {
    std::uint32_t wire_latency = 0;
    if (balancer_) wire_latency = balancer_->wire_latency();
    else if (clustered_) wire_latency = clustered_->wire_latency();
    res.trace = std::make_shared<EventTrace>(
        tracer->finish(n, now, wire_latency));
    wire_tracer(nullptr);
  }
  if (stats) {
    StatsDump d = StatsDump::snapshot(*stats, samples.get(),
                                      opts.stats_sample_every);
    d.bench = profile_.name;
    d.num_cores = n;
    d.cycles = now;
    d.config_fingerprint = config_fingerprint(cfg_);
    res.stats = std::make_shared<const StatsDump>(std::move(d));
  }
  return res;
}

Histogram& CmpSimulator::register_run_stats(
    StatsRegistry& reg, const Cycle& now, const std::uint32_t& finished_count,
    const SelfProfile& prof) {
  const std::uint32_t n = cfg_.num_cores;
  const CycleFrame& f = frame_;
  const EnergyAccounting& acct = f.acct;
  reg.counter_fn("sim.cycles", "global cycles simulated",
                 [&now] { return static_cast<double>(now); });
  reg.counter_fn("sim.finished_cores", "cores whose program completed",
                 [&finished_count] {
                   return static_cast<double>(finished_count);
                 });
  reg.formula("sim.energy.total", "total CMP energy (tokens)",
              [&acct] { return acct.energy(); }, 1);
  reg.formula("sim.energy.aopb",
              "energy above the global budget (tokens)",
              [&acct] { return acct.aopb(); }, 1);
  reg.formula("sim.energy.aopb_frac", "AoPB / total energy",
              [&acct] {
                return acct.energy() > 0.0 ? acct.aopb() / acct.energy()
                                           : 0.0;
              },
              6);
  reg.formula("sim.power.mean", "mean per-cycle CMP power",
              [&acct] { return acct.power_stat().mean(); });
  reg.formula("sim.power.max", "peak observed per-cycle CMP power",
              [&acct] { return acct.power_stat().max(); });
  reg.formula("sim.power.stddev", "per-cycle CMP power stddev",
              [&acct] { return acct.power_stat().stddev(); });
  Histogram& power_hist = reg.distribution(
      "sim.power.dist", "per-cycle CMP power distribution", 0.0,
      budgets_.peak_power(), 64);
  budgets_.register_stats(reg, "sim.budget");
  energy_model_->register_stats(reg, "power.model");
  mesh_->register_stats(reg, "noc");
  mem_->register_stats(reg, "mem");
  for (CoreId i = 0; i < n; ++i) {
    const std::string p = "core." + std::to_string(i);
    cores_[i]->register_stats(reg, p);
    trackers_[i].register_stats(reg, p + ".spin");
    enforcers_[i]->register_stats(reg, p + ".enforcer");
  }
  if (balancer_) balancer_->register_stats(reg, "ptb.balancer");
  if (clustered_) clustered_->register_stats(reg, "ptb");
  thermal_.register_stats(reg, "thermal");
  // Wall-clock self-profiling: volatile (machine-dependent), so excluded
  // from deterministic dumps and the sample buffer.
  reg.gauge_fn("sim.self.tick_seconds",
               "wall-clock spent in core ticks + power model (sampled, "
               "scaled)",
               [&prof] { return prof.tick_s; }, 6, /*is_volatile=*/true);
  reg.gauge_fn("sim.self.power_seconds",
               "wall-clock spent in CMP-wide reductions (sampled, scaled)",
               [&prof] { return prof.power_s; }, 6, /*is_volatile=*/true);
  reg.gauge_fn("sim.self.control_seconds",
               "wall-clock spent in balancing/enforcement (sampled, "
               "scaled)",
               [&prof] { return prof.control_s; }, 6, /*is_volatile=*/true);
  reg.gauge_fn("sim.self.account_seconds",
               "wall-clock spent in accounting/audit (sampled, scaled)",
               [&prof] { return prof.account_s; }, 6, /*is_volatile=*/true);
  reg.counter_fn("sim.self.timed_cycles",
                 "cycles actually timed by the self-profiler",
                 [&f] { return static_cast<double>(f.prof_timed_cycles); });
  return power_hist;
}

void CmpSimulator::audit_cycle(Cycle now, const EnergyAccounting& acct,
                               double total_act, const double* eff_budget) {
  InvariantAuditor& aud = *auditor_;
  if (balancer_) {
    aud.check_balancer(now, *balancer_, eff_budget, cfg_.num_cores);
  } else if (clustered_) {
    for (std::uint32_t k = 0; k < clustered_->num_clusters(); ++k) {
      const PtbLoadBalancer& b = clustered_->cluster(k);
      aud.check_balancer(now, b, eff_budget + clustered_->cluster_begin(k),
                         b.num_cores());
    }
  }
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    aud.check_core(now, i, *cores_[i]);
    aud.check_enforcer(now, i, *enforcers_[i], *cores_[i]);
  }
  aud.check_accounting(now, acct, total_act);
  if (aud.coherence_scan_due(now)) aud.check_coherence(now, *mem_);
  // Fail fast: a violated invariant poisons every later cycle, so abort at
  // the first dirty cycle with the full per-class digest.
  PTB_ASSERTF(aud.clean(), "invariant audit failed at cycle %llu: %s",
              static_cast<unsigned long long>(now),
              aud.report().summary().c_str());
}

}  // namespace ptb
