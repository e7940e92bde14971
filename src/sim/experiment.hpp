// Experiment harness: builds configurations for the paper's technique
// matrix, runs and memoizes benchmarks, and normalizes results against the
// no-control base case exactly as the paper's figures do.
//
// Threading & determinism: every entry point in this header is
// deterministic for a given (profile, config, seed) triple — the simulator
// itself is a single-threaded cycle loop, and the grid helpers only read
// results through the run function they are given, so where and when a
// run was simulated never changes any number. Everything here runs on the
// calling thread; only BaseRunCache::get may be called from pool workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/thread_annotations.hpp"
#include "sim/cmp.hpp"
#include "sim/run_pool.hpp"
#include "workloads/phases.hpp"

namespace ptb {

/// One column of the paper's figures.
struct TechniqueSpec {
  std::string label;   // "DVFS", "DFS", "2Level", "PTB+2Level", ...
  TechniqueKind kind = TechniqueKind::kNone;
  bool ptb = false;
  PtbPolicy policy = PtbPolicy::kToAll;
  double relax = 0.0;  // relaxed-accuracy threshold (Section IV.C)
};

/// The four techniques of Figures 9-12. `ptb_policy` selects the PTB column
/// flavor; pass PtbPolicy::kDynamic for the dynamic selector. Pure; safe
/// from any thread.
std::vector<TechniqueSpec> standard_techniques(PtbPolicy ptb_policy);

/// The three naive-split techniques of Figure 2 (no PTB). Pure.
std::vector<TechniqueSpec> naive_techniques();

/// The normalization reference: no power control at all.
TechniqueSpec base_technique();

/// Build a full simulator config for one run. Pure apart from the process-
/// wide defaults below (audit level, sample windows).
SimConfig make_sim_config(std::uint32_t cores, const TechniqueSpec& tech,
                          std::uint64_t seed = 1);

/// Process-wide audit level stamped into every config make_sim_config
/// builds (default kOff). ptb-figures sets it from --audit; since
/// audit_level never changes results (and is outside the fingerprint),
/// this is a diagnostic knob, not an experiment parameter. Not
/// thread-safe: set it before submitting work to a RunPool.
void set_default_audit_level(AuditLevel level);

/// Figure-style normalization vs the no-control base case.
struct Normalized {
  double energy_pct = 0.0;    // 100 * (E - E_base) / E_base
  double aopb_pct = 0.0;      // 100 * AoPB / AoPB_base
  double slowdown_pct = 0.0;  // 100 * (cycles - cycles_base) / cycles_base
};

/// Machine-identity policy for normalize(). By default a run may only be
/// normalized against a base from the same simulated machine (the
/// machine_fingerprint recorded in each RunResult must match). Ablations
/// that deliberately compare a modified machine against the stock base
/// (e.g. the PTHT-capacity sweep) opt out with kAllow; the same-workload
/// check still applies.
enum class CrossMachine { kForbid, kAllow };

/// Pure; safe from any thread.
Normalized normalize(const RunResult& base, const RunResult& r,
                     CrossMachine cross = CrossMachine::kForbid);

/// Convenience single-run entry point. Runs on the calling thread; each
/// call constructs a private CmpSimulator, so concurrent calls from pool
/// workers never share simulator state.
RunResult run_one(const WorkloadProfile& profile, const SimConfig& cfg,
                  const RunOptions& opts = {});

/// A (benchmark x technique) grid of normalized results — the in-memory
/// form of one paper figure (rendered by sim/reporting.hpp as text or
/// JSON).
struct FigureGrid {
  std::vector<std::string> row_labels;        // benchmarks (plus "Avg.")
  std::vector<std::string> technique_labels;  // columns
  // grid[row][col]
  std::vector<std::vector<Normalized>> grid;

  /// Appends an average row over the existing rows.
  void append_average();
};

/// Run memo: run_one(profile, cfg) once per (config_fingerprint(cfg),
/// profile.name) key, for every figure of one ptb-figures process. An
/// explicit object, never a process-global: a fresh memo (or run_one)
/// always simulates. Observe-only knobs (audit_level, trace, RunOptions)
/// are outside the key, so observed runs bypass the memo.
///
/// Thread-safety contract: get() and find() may be called concurrently
/// from any number of pool workers. Each key is simulated exactly once —
/// concurrent requests for a missing key block until the single
/// computation finishes (per-entry std::call_once under a map guarded by a
/// mutex; std::map's reference stability keeps returned references valid
/// for the memo's lifetime).
class BaseRunCache {
 public:
  const RunResult& get(const WorkloadProfile& profile, const SimConfig& cfg);

  /// The finished result for (profile, cfg), or null when get() has not
  /// computed it yet. Never simulates.
  const RunResult* find(const WorkloadProfile& profile,
                        const SimConfig& cfg) const;

  /// The no-control base run at (cores, seed).
  const RunResult& get(const WorkloadProfile& profile, std::uint32_t cores,
                       std::uint64_t seed = 1) {
    return get(profile, make_sim_config(cores, base_technique(), seed));
  }

  /// Number of simulations actually executed (cache misses); used by the
  /// tests to assert the once-per-key guarantee.
  std::size_t computed() const { return computed_.load(); }

 private:
  struct Entry {
    std::once_flag once;
    RunResult result;
    std::atomic<bool> done{false};  // set once `result` is written
  };
  using Key = std::pair<std::uint64_t, std::string>;

  // mu_ guards cache_ lookup/insert only, never the runs: get() drops the
  // lock before the per-entry call_once (std::map node stability keeps the
  // Entry pointer valid). Entry::result is *not* GUARDED_BY(mu_) — its
  // happens-before edge is the once_flag (for get) or the done flag (for
  // find), which -Wthread-safety cannot model; TSan covers those edges
  // (tests/sim/run_pool_test.cpp exercises both).
  mutable Mutex mu_;
  std::map<Key, Entry> cache_ PTB_GUARDED_BY(mu_);
  std::atomic<std::size_t> computed_{0};
};

/// The canonical on-disk/over-the-wire artifact of one simulation run:
/// the RunResult scalar summary plus (when the run carried a stats
/// registry) the deterministic StatsDump JSON — schema v1, the same
/// document ptb-figures' --stats flag writes. Artifacts are a pure
/// function of (benchmark, config, seed): two runs of the same request
/// serialize to byte-identical payloads, which is what lets the serve
/// daemon answer repeat queries from DiskRunCache below and prove the
/// cache honest with a byte compare.
struct RunArtifact {
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::string benchmark;
  std::uint32_t num_cores = 0;
  std::uint64_t key = 0;  // DiskRunCache::run_key of (benchmark, cfg)
  std::uint64_t config_fingerprint = 0;
  std::uint64_t machine_fingerprint = 0;
  std::uint64_t cycles = 0;
  bool hit_max_cycles = false;
  double energy = 0.0;
  double aopb = 0.0;
  double budget = 0.0;
  double peak_power = 0.0;
  double spin_energy = 0.0;
  std::uint64_t total_committed = 0;
  /// run_summary_kv(result) — the flat key=value rendering every bench
  /// prints; carried verbatim so a cached answer matches a live one.
  std::string summary_kv;
  /// StatsDump::to_json(include_volatile=false) of the run's registry;
  /// empty when the producing run had stats off.
  std::string stats_json;

  /// Builds the artifact for a finished run. `cfg` must be the config the
  /// run was executed with (the fingerprints are recomputed from it).
  static RunArtifact from_result(const std::string& benchmark,
                                 const SimConfig& cfg, const RunResult& r);

  /// Canonical JSON payload bytes (deterministic member order, locale-
  /// pinned numbers). This is what DiskRunCache stores and the serve
  /// daemon returns.
  std::string to_payload() const;
  /// Strict parse of to_payload output; false (out untouched) on
  /// malformed or schema-mismatched payloads.
  static bool parse(std::string_view payload, RunArtifact& out);
};

/// Persistent, content-addressed run cache: RunArtifact payloads on disk,
/// one file per run key (the config-fingerprint-derived run_key), written
/// atomically (temp file + rename) and framed with a little-endian
/// magic/version/length/key header plus an FNV-1a payload checksum — a
/// truncated, bit-flipped or foreign file fails validation and reads as a
/// miss (the caller re-simulates and the next store overwrites the bad
/// entry). In front of the disk sits a byte-bounded in-process LRU of
/// payloads that already passed that validation, so a repeat hit is a
/// memory lookup instead of a re-read and re-parse.
///
/// Thread-safety: all methods may be called concurrently from any thread.
/// Loads and stores race benignly through the filesystem (rename is
/// atomic, so a reader sees either the old complete entry or the new
/// one); the memory tier is behind one mutex; the counters are atomics.
class DiskRunCache {
 public:
  /// Byte cap of the memory tier (payload bytes): about 90 of the
  /// largest, 16-core artifacts (~90 KB each).
  static constexpr std::size_t kMemoryTierBytes = std::size_t{8} << 20;

  /// Opens (and creates, including parents) the cache directory. Aborts
  /// if the directory cannot be created — a service without its cache
  /// directory cannot meet its contract.
  explicit DiskRunCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Content address of one run: FNV-1a over the artifact schema version,
  /// config_fingerprint(cfg) and the benchmark name. Everything that can
  /// change a result byte is inside config_fingerprint; observe-only
  /// knobs (audit/trace) stay out, so a request answered
  /// from cache is indistinguishable from a re-run.
  static std::uint64_t run_key(std::string_view benchmark,
                               const SimConfig& cfg);

  /// Loads the payload for `key`: from the memory tier when this process
  /// already verified it, else from disk. False on miss *or* on a corrupt
  /// entry (bad magic/version/length/key/checksum or an artifact that does
  /// not parse or names another key) — corrupt entries bump the corrupt
  /// counter and are unlinked so the slot heals on the next store. A disk
  /// entry that passes every check enters the memory tier; both paths
  /// count in hits(), the tier path also in memory_hits().
  bool load(std::uint64_t key, std::string& payload) const;

  /// Atomically persists `payload` under `key` (write temp + rename).
  /// Returns false when the directory is not writable. Does not fill the
  /// memory tier: only a verified disk read does.
  bool store(std::uint64_t key, std::string_view payload) const;

  std::string path_for(std::uint64_t key) const;

  /// Size quota in bytes over every file in the directory (.run
  /// artifacts, plus any ckpt-*.ptbc image written by
  /// store_warm_checkpoint or left by an older build); 0 (default) =
  /// unbounded. When a publish pushes the directory total over the
  /// quota, entries are evicted oldest-first (last write time, filename
  /// tie-break for determinism) until the total fits — the just-published
  /// entry included when the quota is smaller than it. Evicted keys leave
  /// the memory tier too, read as misses and simply re-simulate. Not
  /// thread-safe: set at construction time, before the cache is shared.
  void set_max_bytes(std::uint64_t max_bytes) { max_bytes_ = max_bytes; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  // Warm-checkpoint images (sim/checkpoint.hpp), addressed by cycle-0
  // checkpoint_fingerprint and stored beside the .run artifacts as
  // ckpt-<hex16>.ptbc. Same corrupt-rejecting contract as load/store: a
  // truncated or bit-flipped image fails the frame checksum (or the
  // fingerprint cross-check), is counted, unlinked and read as a miss.
  bool load_warm_checkpoint(std::uint64_t ckpt_fp, std::string& frame) const;
  bool store_warm_checkpoint(std::uint64_t ckpt_fp,
                             std::string_view frame) const;
  std::string warm_checkpoint_path(std::uint64_t ckpt_fp) const;

  std::uint64_t hits() const { return hits_.load(); }
  /// The subset of hits() answered from the memory tier.
  std::uint64_t memory_hits() const { return memory_hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t corrupt() const { return corrupt_.load(); }
  std::uint64_t stores() const { return stores_.load(); }
  std::uint64_t warm_hits() const { return warm_hits_.load(); }
  std::uint64_t warm_misses() const { return warm_misses_.load(); }
  std::uint64_t warm_stores() const { return warm_stores_.load(); }
  std::uint64_t evicted() const { return evicted_.load(); }

 private:
  /// Oldest-first eviction down to max_bytes_; called after every publish.
  void enforce_quota() const;

  // Memory tier: verified payloads, most recently used first, indexed by
  // run key; tier_bytes_ sums the payload sizes (<= kMemoryTierBytes).
  using TierList = std::list<std::pair<std::uint64_t, std::string>>;
  bool tier_get(std::uint64_t key, std::string& payload) const;
  void tier_put(std::uint64_t key, std::string_view payload) const;
  void tier_drop(std::uint64_t key) const;

  std::string dir_;
  std::uint64_t max_bytes_ = 0;
  mutable Mutex tier_mu_;
  mutable TierList tier_ PTB_GUARDED_BY(tier_mu_);
  mutable std::unordered_map<std::uint64_t, TierList::iterator> tier_index_
      PTB_GUARDED_BY(tier_mu_);
  mutable std::size_t tier_bytes_ PTB_GUARDED_BY(tier_mu_) = 0;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> memory_hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> corrupt_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
  mutable std::atomic<std::uint64_t> warm_hits_{0};
  mutable std::atomic<std::uint64_t> warm_misses_{0};
  mutable std::atomic<std::uint64_t> warm_stores_{0};
  mutable std::atomic<std::uint64_t> evicted_{0};
};

/// Host-side stage hooks for cached_run_payload, used by the serve plane to
/// time each stage as a span. Hooks observe only: a null observer (the
/// default) costs one pointer test, and the payload bytes are identical
/// either way (tests/serve proves it).
struct RunObserver {
  std::function<void(std::string_view stage)> stage_enter;
  std::function<void(std::string_view stage)> stage_exit;
};

/// Convenience get-or-run on top of DiskRunCache: answers from the cache
/// when the artifact for (benchmark, cfg) is present and valid, otherwise
/// simulates on the calling thread (run_one with a stats registry, so the
/// artifact carries the StatsDump) and persists the result. `hit` reports
/// which path was taken. A non-null `observer` brackets the pipeline's
/// host-level stages — "cache_probe" around the cache lookup, then on a
/// miss "simulate" (run_one), "serialize" and "cache_publish"; counters
/// and bytes are the same with or without it.
std::string cached_run_payload(const DiskRunCache& cache,
                               const WorkloadProfile& profile,
                               const SimConfig& cfg, bool& hit,
                               const RunObserver* observer = nullptr);

/// Where the grid helpers get one run's result: (profile, config) ->
/// result. The returned reference must stay valid while the helper runs
/// (BaseRunCache::get and BenchContext::run in bench/ both qualify).
using RunFn = std::function<const RunResult&(const WorkloadProfile&,
                                             const SimConfig&)>;

/// Runs every suite benchmark under each technique at `cores`, normalized
/// against the base runs, reading each run through `run`. Rows/columns
/// follow suite/`techs` order, so the grid depends only on the results
/// `run` returns. Returns the grid without the average row.
FigureGrid run_suite_grid(std::uint32_t cores,
                          const std::vector<TechniqueSpec>& techs,
                          const RunFn& run);

/// Average of each technique column over the whole suite at `cores` (no
/// per-benchmark rows — for the scaling figures). Same contract as
/// run_suite_grid.
std::vector<Normalized> run_suite_averages(
    std::uint32_t cores, const std::vector<TechniqueSpec>& techs,
    const RunFn& run);

/// Multi-seed replication: runs (benchmark, technique) under several seeds,
/// each normalized against its own-seed base run, and aggregates the
/// normalized metrics in seed order. Used to put error bars on the
/// headline results.
struct ReplicatedResult {
  RunningStat energy_pct;
  RunningStat aopb_pct;
  RunningStat slowdown_pct;
};

ReplicatedResult run_replicated(const WorkloadProfile& profile,
                                std::uint32_t cores,
                                const TechniqueSpec& tech,
                                std::uint32_t num_seeds, const RunFn& run,
                                std::uint64_t first_seed = 1);

}  // namespace ptb
