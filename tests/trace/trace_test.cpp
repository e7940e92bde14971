// Tests for the event-trace subsystem (src/trace): ring/serialization
// units, exporter structure, and end-to-end consistency of the analyzers
// against the RunResult counters of the run that produced the trace.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/run_pool.hpp"
#include "sim/trace_export.hpp"
#include "sync/spin_tracker.hpp"
#include "trace/analysis.hpp"
#include "trace/export.hpp"

namespace ptb {
namespace {

TraceEvent ev(Cycle cycle, TraceEventType t, std::uint32_t core,
              std::uint64_t arg, double value) {
  TraceEvent e;
  e.cycle = cycle;
  e.type = t;
  e.core = core;
  e.arg = arg;
  e.value = value;
  return e;
}

// --- units ------------------------------------------------------------------

TEST(TraceRing, KeepsNewestAndCountsDrops) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.push(ev(i, TraceEventType::kDonate, 0, i, double(i)));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> kept = ring.in_order();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[i].cycle, 6u + i);  // oldest kept -> newest
    EXPECT_EQ(kept[i].arg, 6u + i);
  }
}

TEST(TraceRing, NoDropsBelowCapacity) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.push(ev(i, TraceEventType::kGrant, 1, 0, 1.0));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.in_order().front().cycle, 0u);
  EXPECT_EQ(ring.in_order().back().cycle, 4u);
}

TEST(TraceCategories, ParseAndRenderRoundTrip) {
  std::uint32_t mask = 0;
  ASSERT_TRUE(parse_trace_categories("token,dvfs,sync", mask));
  EXPECT_EQ(mask, trace_category_bit(TraceCategory::kToken) |
                      trace_category_bit(TraceCategory::kDvfs) |
                      trace_category_bit(TraceCategory::kSync));
  // Render -> parse is the identity on any mask.
  std::uint32_t back = 0;
  ASSERT_TRUE(parse_trace_categories(trace_categories_string(mask), back));
  EXPECT_EQ(back, mask);

  ASSERT_TRUE(parse_trace_categories("all", mask));
  EXPECT_EQ(mask, kTraceAll);
  EXPECT_EQ(trace_categories_string(kTraceAll), "all");

  mask = 0xdead;
  EXPECT_FALSE(parse_trace_categories("token,bogus", mask));
  EXPECT_FALSE(parse_trace_categories("", mask));
  EXPECT_EQ(mask, 0xdeadu);  // untouched on failure
}

TEST(TraceCategories, EveryEventTypeMapsToItsCategory) {
  for (std::uint32_t t = 0; t < kNumTraceEventTypes; ++t) {
    const TraceCategory c =
        trace_event_category(static_cast<TraceEventType>(t));
    EXPECT_LT(static_cast<std::uint32_t>(c), kNumTraceCategories);
    EXPECT_STRNE(trace_event_name(static_cast<TraceEventType>(t)), "");
  }
}

TEST(EventTracer, MaskFiltersCategories) {
  EventTracer tracer(trace_category_bit(TraceCategory::kToken), 16);
  EXPECT_TRUE(tracer.enabled(TraceCategory::kToken));
  EXPECT_FALSE(tracer.enabled(TraceCategory::kDvfs));
  tracer.begin_cycle(7);
  tracer.emit(TraceEventType::kDonate, 2, 0, 1.5);
  tracer.emit(TraceEventType::kDvfsTransition, 2, 1, 0.0);  // masked out
  const EventTrace t = tracer.finish(4, 100, 3);
  const auto& token = t.logs[static_cast<std::size_t>(TraceCategory::kToken)];
  const auto& dvfs = t.logs[static_cast<std::size_t>(TraceCategory::kDvfs)];
  ASSERT_EQ(token.events.size(), 1u);
  EXPECT_EQ(token.events[0].cycle, 7u);
  EXPECT_EQ(token.events[0].core, 2u);
  EXPECT_DOUBLE_EQ(token.events[0].value, 1.5);
  EXPECT_EQ(dvfs.events.size(), 0u);
  EXPECT_EQ(dvfs.emitted, 0u);  // masked emits are not even counted
  EXPECT_EQ(t.num_cores, 4u);
  EXPECT_EQ(t.end_cycle, 100u);
  EXPECT_EQ(t.wire_latency, 3u);
}

EventTrace small_trace() {
  EventTracer tracer(kTraceAll, 32);
  tracer.begin_cycle(0);
  tracer.emit(TraceEventType::kPolicySwitch, kNoCore, 0x0ff00u | 0, 2.0);
  tracer.emit(TraceEventType::kDonate, 1, 0, 2.25);
  tracer.begin_cycle(3);
  tracer.emit(TraceEventType::kGrant, 0, 0, 2.0);
  tracer.emit(TraceEventType::kEvaporate, kNoCore, 0, 0.25);
  tracer.emit(TraceEventType::kDvfsTransition, 1, (0u << 8) | 2u, 10.0);
  tracer.begin_cycle(5);
  tracer.emit(TraceEventType::kLockAcquire, 0, 7, 0.0);
  return tracer.finish(2, 10, 3);
}

TEST(EventTrace, SerializeRoundTrip) {
  const EventTrace t = small_trace();
  const std::string bytes = t.serialize();
  EventTrace back;
  ASSERT_TRUE(EventTrace::deserialize(bytes, back));
  EXPECT_EQ(back.num_cores, t.num_cores);
  EXPECT_EQ(back.categories, t.categories);
  EXPECT_EQ(back.end_cycle, t.end_cycle);
  EXPECT_EQ(back.wire_latency, t.wire_latency);
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
    ASSERT_EQ(back.logs[c].events.size(), t.logs[c].events.size());
    EXPECT_EQ(back.logs[c].emitted, t.logs[c].emitted);
    EXPECT_EQ(back.logs[c].dropped, t.logs[c].dropped);
    for (std::size_t i = 0; i < t.logs[c].events.size(); ++i) {
      EXPECT_EQ(back.logs[c].events[i].cycle, t.logs[c].events[i].cycle);
      EXPECT_EQ(back.logs[c].events[i].type, t.logs[c].events[i].type);
      EXPECT_EQ(back.logs[c].events[i].core, t.logs[c].events[i].core);
      EXPECT_EQ(back.logs[c].events[i].arg, t.logs[c].events[i].arg);
      EXPECT_DOUBLE_EQ(back.logs[c].events[i].value,
                       t.logs[c].events[i].value);
    }
  }
  // Byte-stable: re-serializing the round-tripped trace is the identity.
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(EventTrace, RejectsCorruptInput) {
  const EventTrace t = small_trace();
  const std::string bytes = t.serialize();
  EventTrace out;
  out.num_cores = 77;  // sentinel: must stay untouched on failure

  std::string bad = bytes;
  bad[0] = 'X';  // magic
  EXPECT_FALSE(EventTrace::deserialize(bad, out));

  bad = bytes;
  bad[8] = char(0xee);  // version
  EXPECT_FALSE(EventTrace::deserialize(bad, out));

  EXPECT_FALSE(EventTrace::deserialize(bytes.substr(0, 10), out));
  EXPECT_FALSE(
      EventTrace::deserialize(bytes.substr(0, bytes.size() - 1), out));
  EXPECT_FALSE(EventTrace::deserialize(bytes + "x", out));
  EXPECT_FALSE(EventTrace::deserialize("", out));
  EXPECT_EQ(out.num_cores, 77u);
}

TEST(EventTrace, MergedSortsByCycleStably) {
  const EventTrace t = small_trace();
  const std::vector<TraceEvent> m = t.merged();
  ASSERT_EQ(m.size(), t.total_events());
  for (std::size_t i = 1; i < m.size(); ++i)
    EXPECT_LE(m[i - 1].cycle, m[i].cycle);
  // Ties keep category-major order: the cycle-0 policy event (category
  // kPolicy) sorts after the cycle-0 donate (category kToken).
  EXPECT_EQ(m[0].type, TraceEventType::kDonate);
  EXPECT_EQ(m[1].type, TraceEventType::kPolicySwitch);
}

// --- end-to-end: traced simulation runs -------------------------------------

WorkloadProfile sync_heavy_profile() {
  WorkloadProfile p;
  p.name = "traced";
  p.iterations = 3;
  p.ops_per_iteration = 4000;
  p.imbalance = 0.25;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 12;
  p.hot_lock_frac = 0.5;
  return p;
}

SimConfig traced_cfg(std::uint32_t cores, PtbPolicy policy) {
  TechniqueSpec t{"t", TechniqueKind::kTwoLevel, true, policy, 0.0};
  SimConfig cfg = make_sim_config(cores, t);
  cfg.max_cycles = 2'000'000;
  return cfg;
}

RunOptions traced_opts(std::uint32_t mask = kTraceAll) {
  RunOptions opts;
  opts.trace_categories = mask;
  return opts;
}

TEST(TraceEndToEnd, TokenSumsMatchRunCounters) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToAll), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->total_dropped(), 0u) << "grow TraceConfig for this test";
  const TokenTotals tt = token_totals(*r.trace);
  EXPECT_NEAR(tt.donated, r.tokens_donated, 1e-6);
  EXPECT_NEAR(tt.granted, r.tokens_granted, 1e-6);
  EXPECT_NEAR(tt.evaporated, r.tokens_evaporated, 1e-6);
  EXPECT_GT(tt.donated, 0.0);
  // Conservation: every donated token is granted or evaporates.
  EXPECT_NEAR(tt.donated, tt.granted + tt.evaporated, 1e-6);
}

TEST(TraceEndToEnd, FlowMatrixConservesTokens) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToOne), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->total_dropped(), 0u);
  const TokenFlowMatrix m = token_flow_matrix(*r.trace);
  ASSERT_EQ(m.num_cores, 4u);
  double flow_sum = 0.0;
  for (double f : m.flow) {
    EXPECT_GE(f, 0.0);
    flow_sum += f;
  }
  double evap_sum = 0.0;
  for (double e : m.evaporated_by_donor) evap_sum += e;
  EXPECT_DOUBLE_EQ(m.unattributed, 0.0);
  EXPECT_NEAR(flow_sum, m.total_granted, 1e-6);
  EXPECT_NEAR(evap_sum, m.total_evaporated, 1e-6);
  EXPECT_NEAR(m.total_granted, r.tokens_granted, 1e-6);
  EXPECT_NEAR(m.total_donated, r.tokens_donated, 1e-6);
}

TEST(TraceEndToEnd, PolicyResidencyMatchesSelectorCounters) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kDynamic), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->total_dropped(), 0u);
  const PolicyResidency pr = policy_residency(*r.trace);
  EXPECT_EQ(pr.to_all_cycles, r.to_all_cycles);
  EXPECT_EQ(pr.to_one_cycles, r.to_one_cycles);
  EXPECT_EQ(pr.to_all_cycles + pr.to_one_cycles, r.cycles);
}

TEST(TraceEndToEnd, DvfsResidencyAccountsEveryCycle) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToAll), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->total_dropped(), 0u);
  const DvfsResidency d = dvfs_residency(*r.trace);
  ASSERT_EQ(d.mode_cycles.size(), 4u);
  EXPECT_EQ(d.transitions, r.dvfs_transitions);
  for (std::uint32_t c = 0; c < 4; ++c) {
    Cycle total = 0;
    for (Cycle m : d.mode_cycles[c]) total += m;
    EXPECT_EQ(total, r.cycles) << "core " << c;
  }
}

TEST(TraceEndToEnd, SpinTimelineIsWellFormed) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToAll), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  const std::vector<SpinInterval> tl = spin_timeline(*r.trace);
  ASSERT_FALSE(tl.empty());  // a lock-heavy profile spins
  std::map<std::uint32_t, Cycle> last_end;
  Cycle prev_begin = 0;
  for (const SpinInterval& iv : tl) {
    EXPECT_LT(iv.core, 4u);
    EXPECT_LE(iv.begin, iv.end);
    EXPECT_LE(iv.end, r.cycles);
    EXPECT_GE(iv.begin, prev_begin);  // sorted by begin
    prev_begin = iv.begin;
    // One of the spin ExecStates, never kBusy.
    EXPECT_TRUE(iv.state == static_cast<std::uint64_t>(ExecState::kLockAcq) ||
                iv.state == static_cast<std::uint64_t>(ExecState::kLockRel) ||
                iv.state == static_cast<std::uint64_t>(ExecState::kBarrier))
        << iv.state;
    // Per-core intervals never overlap (a core is in one state at a time).
    auto it = last_end.find(iv.core);
    if (it != last_end.end()) {
      EXPECT_GE(iv.begin, it->second);
    }
    last_end[iv.core] = iv.end;
  }
}

TEST(TraceEndToEnd, SyncEventsMatchSyncCounters) {
  const WorkloadProfile p = sync_heavy_profile();
  CmpSimulator sim(traced_cfg(4, PtbPolicy::kToAll), p);
  const RunResult r = sim.run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  ASSERT_EQ(r.trace->total_dropped(), 0u);
  const auto& log =
      r.trace->logs[static_cast<std::size_t>(TraceCategory::kSync)];
  std::uint64_t acquires = 0, releases = 0, barrier_releases = 0;
  for (const TraceEvent& e : log.events) {
    if (e.type == TraceEventType::kLockAcquire) ++acquires;
    if (e.type == TraceEventType::kLockRelease) ++releases;
    if (e.type == TraceEventType::kBarrierRelease) ++barrier_releases;
  }
  EXPECT_EQ(acquires, sim.sync().acquisitions);
  EXPECT_EQ(releases, acquires);  // every acquired lock is released
  EXPECT_EQ(barrier_releases, sim.sync().barrier_episodes);
  EXPECT_GT(acquires, 0u);
}

TEST(TraceEndToEnd, TracingNeverChangesResults) {
  const WorkloadProfile p = sync_heavy_profile();
  const SimConfig cfg = traced_cfg(4, PtbPolicy::kDynamic);
  RunOptions plain;
  plain.record_cmp_trace = true;
  RunOptions traced = plain;
  traced.trace_categories = kTraceAll;
  const RunResult a = CmpSimulator(cfg, p).run(plain);
  const RunResult b = CmpSimulator(cfg, p).run(traced);
  EXPECT_EQ(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  // Byte-identical exports, not just equal headline numbers.
  EXPECT_EQ(run_summary_kv(a), run_summary_kv(b));
  EXPECT_EQ(power_trace_csv(a), power_trace_csv(b));
}

TEST(TraceEndToEnd, RingOverflowDropsOldestButKeepsAnalyzersSane) {
  WorkloadProfile p = sync_heavy_profile();
  SimConfig cfg = traced_cfg(4, PtbPolicy::kToAll);
  cfg.trace.buffer_events = 64;  // force overflow on the token ring
  const RunResult r = CmpSimulator(cfg, p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  const auto& token =
      r.trace->logs[static_cast<std::size_t>(TraceCategory::kToken)];
  EXPECT_EQ(token.events.size(), 64u);
  EXPECT_GT(token.dropped, 0u);
  EXPECT_EQ(token.emitted, token.events.size() + token.dropped);
  // The analyzers must still work on a truncated trace; grants whose
  // donors were overwritten go to `unattributed`, never to a wrong core.
  const TokenFlowMatrix m = token_flow_matrix(*r.trace);
  double flow_sum = 0.0;
  for (double f : m.flow) flow_sum += f;
  for (double e : m.evaporated_by_donor) flow_sum += e;
  EXPECT_NEAR(flow_sum + m.unattributed,
              m.total_granted + m.total_evaporated, 1e-6);
}

TEST(TraceEndToEnd, CategoryMaskLimitsRecording) {
  const WorkloadProfile p = sync_heavy_profile();
  const std::uint32_t mask = trace_category_bit(TraceCategory::kToken);
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToAll), p).run(traced_opts(mask));
  ASSERT_NE(r.trace, nullptr);
  EXPECT_EQ(r.trace->categories, mask);
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
    if (c == static_cast<std::uint32_t>(TraceCategory::kToken)) {
      EXPECT_GT(r.trace->logs[c].emitted, 0u);
    } else {
      EXPECT_EQ(r.trace->logs[c].emitted, 0u);
    }
  }
}

// The determinism hammer: the serialized trace bytes are a pure function of
// (profile, config, seed) — byte-identical across RunPool worker counts,
// like the results themselves (run_pool_test.cpp).
TEST(TraceEndToEnd, TraceBytesIdenticalAcrossJobs) {
  const WorkloadProfile p = sync_heavy_profile();
  const SimConfig cfg = traced_cfg(4, PtbPolicy::kDynamic);
  auto batch = [&](unsigned jobs) {
    RunPool pool(jobs);
    for (int i = 0; i < 6; ++i) {
      pool.submit([&] { return run_one(p, cfg, traced_opts()); });
    }
    std::vector<std::string> bytes;
    for (const RunResult& r : pool.wait_all()) {
      EXPECT_NE(r.trace, nullptr);
      bytes.push_back(r.trace->serialize());
    }
    return bytes;
  };
  const std::vector<std::string> one = batch(1);
  const std::vector<std::string> four = batch(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "task " << i;
    EXPECT_EQ(one[i], one[0]) << "same inputs, same trace";
  }
}

// --- exporters and remaining analyzers --------------------------------------

TEST(TraceExporters, ChromeJsonStructure) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kDynamic), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  const std::string json = trace_chrome_json(*r.trace);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"balancer\""), std::string::npos);
  EXPECT_NE(json.find("\"core 0\""), std::string::npos);
  EXPECT_NE(json.find("\"core 3\""), std::string::npos);
  // Every spin slice that opens ("B") also closes ("E").
  auto count = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
      ++n;
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_GT(count("\"ph\":\"C\""), 0u);  // budget/DVFS counter tracks
  // Balanced braces/brackets => structurally parseable.
  EXPECT_EQ(count("{"), count("}"));
  EXPECT_EQ(count("["), count("]"));
}

TEST(TraceExporters, CsvOneRowPerKeptEvent) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToAll), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  const std::string csv = trace_csv(*r.trace);
  std::size_t rows = 0;
  std::size_t pos = 0;
  std::string first;
  while (pos < csv.size()) {
    const std::size_t nl = csv.find('\n', pos);
    const std::string line = csv.substr(pos, nl - pos);
    if (rows == 0) first = line;
    if (rows > 0) {
      EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5) << line;
    }
    ++rows;
    pos = nl + 1;
  }
  EXPECT_EQ(first, "cycle,category,event,core,arg,value");
  EXPECT_EQ(rows - 1, r.trace->total_events());
}

TEST(TraceAnalysis, DeficitHistogramCountsAllSamples) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kToAll), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  const DeficitHistogram h = deficit_histogram(*r.trace, 8);
  ASSERT_EQ(h.counts.size(), 8u);
  std::uint64_t total = 0;
  for (std::uint64_t c : h.counts) total += c;
  EXPECT_EQ(total, h.samples);
  EXPECT_GT(h.samples, 0u);
  EXPECT_LE(h.min, h.mean);
  EXPECT_LE(h.mean, h.max);
  EXPECT_GE(h.over_budget_frac, 0.0);
  EXPECT_LE(h.over_budget_frac, 1.0);
}

TEST(TraceAnalysis, RenderersProduceNonEmptyText) {
  const WorkloadProfile p = sync_heavy_profile();
  const RunResult r =
      CmpSimulator(traced_cfg(4, PtbPolicy::kDynamic), p).run(traced_opts());
  ASSERT_NE(r.trace, nullptr);
  EXPECT_NE(render_summary(*r.trace).find("tokens:"), std::string::npos);
  EXPECT_NE(render_flows(*r.trace).find("donor"), std::string::npos);
  EXPECT_NE(render_dvfs(*r.trace).find("stall"), std::string::npos);
  EXPECT_FALSE(render_spin(*r.trace, kNoCore).empty());
  EXPECT_NE(render_deficit(*r.trace).find("samples="), std::string::npos);
}

}  // namespace
}  // namespace ptb
