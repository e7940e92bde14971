// DiskRunCache + RunArtifact (declared in sim/experiment.hpp beside
// BaseRunCache): the persistent, content-addressed run cache behind the
// ptb-serve daemon.
//
// On-disk format (frame v2), written with the shared little-endian codec
// (common/bytes.hpp) in its corrupt-rejecting idiom: a 24-byte frame header
// [magic "PTBR" | u32 format version | u64 payload length | u64 run key],
// the RunArtifact JSON payload bytes, then a u64 FNV-1a checksum of the
// payload (checkpoint_checksum, the PTBC frame's hash). Every field is
// checked on read — wrong magic, foreign version (v1 entries of older
// builds included), short/long payload, checksum mismatch, an unparseable
// artifact or one naming another key all reject the entry (it is counted,
// unlinked, and reads as a miss), so a truncated write or a bit flip is
// never served; the caller re-simulates and the overwrite heals the slot.
// Writes publish through common/file.hpp's write_file (unique temp file
// beside the entry, then rename()), so readers only ever see complete
// entries.
//
// Memory tier: payloads that passed those checks in this process sit in a
// byte-bounded LRU (kMemoryTierBytes) keyed by run key, so a repeat hit
// skips the file read, the checksum and the artifact parse. Stores do not
// fill it and quota eviction empties the evicted keys out of it.
#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/file.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "sim/trace_export.hpp"
#include "stats/dump.hpp"

namespace ptb {

namespace {

constexpr char kMagic[4] = {'P', 'T', 'B', 'R'};
constexpr std::uint32_t kFrameVersion = 2;

}  // namespace

// ---------------------------------------------------------------------------
// RunArtifact
// ---------------------------------------------------------------------------

RunArtifact RunArtifact::from_result(const std::string& benchmark,
                                     const SimConfig& cfg,
                                     const RunResult& r) {
  RunArtifact a;
  a.benchmark = benchmark;
  a.num_cores = r.num_cores;
  a.key = DiskRunCache::run_key(benchmark, cfg);
  // Qualified: the unqualified names would resolve to the data members.
  a.config_fingerprint = ptb::config_fingerprint(cfg);
  a.machine_fingerprint = ptb::machine_fingerprint(cfg);
  a.cycles = r.cycles;
  a.hit_max_cycles = r.hit_max_cycles;
  a.energy = r.energy;
  a.aopb = r.aopb;
  a.budget = r.budget;
  a.peak_power = r.peak_power;
  a.spin_energy = r.spin_energy;
  a.total_committed = r.total_committed;
  a.summary_kv = run_summary_kv(r);
  a.stats_json = r.stats ? r.stats->to_json(/*include_volatile=*/false)
                         : std::string();
  return a;
}

std::string RunArtifact::to_payload() const {
  std::string out = "{";
  out += "\"schema_version\":" + std::to_string(kSchemaVersion) + ",";
  out += "\"benchmark\":\"" + json::escape(benchmark) + "\",";
  out += "\"num_cores\":" + std::to_string(num_cores) + ",";
  out += "\"key\":\"" + hex16(key) + "\",";
  out += "\"config_fingerprint\":\"" + hex16(config_fingerprint) + "\",";
  out += "\"machine_fingerprint\":\"" + hex16(machine_fingerprint) + "\",";
  out += "\"cycles\":" + std::to_string(cycles) + ",";
  out += std::string("\"hit_max_cycles\":") +
         (hit_max_cycles ? "true" : "false") + ",";
  out += "\"energy\":" + format_g17(energy) + ",";
  out += "\"aopb\":" + format_g17(aopb) + ",";
  out += "\"budget\":" + format_g17(budget) + ",";
  out += "\"peak_power\":" + format_g17(peak_power) + ",";
  out += "\"spin_energy\":" + format_g17(spin_energy) + ",";
  out += "\"total_committed\":" + std::to_string(total_committed) + ",";
  out += "\"summary_kv\":\"" + json::escape(summary_kv) + "\",";
  out += "\"stats_json\":\"" + json::escape(stats_json) + "\"";
  out += "}";
  return out;
}

bool RunArtifact::parse(std::string_view payload, RunArtifact& out) {
  json::Value doc;
  std::string err;
  if (!json::parse(payload, doc, err) || !doc.is_object()) return false;

  RunArtifact a;
  std::uint32_t schema = 0;
  const json::Value* v = doc.find("schema_version");
  if (v == nullptr || !v->as_u32(schema) || schema != kSchemaVersion)
    return false;

  const auto str = [&](const char* k, std::string& dst) {
    const json::Value* m = doc.find(k);
    if (m == nullptr || !m->is_string()) return false;
    dst = m->as_string();
    return true;
  };
  const auto hex = [&](const char* k, std::uint64_t& dst) {
    std::string s;
    return str(k, s) && parse_hex16(s, dst);
  };
  const auto u64 = [&](const char* k, std::uint64_t& dst) {
    const json::Value* m = doc.find(k);
    return m != nullptr && m->as_u64(dst);
  };
  const auto f64 = [&](const char* k, double& dst) {
    const json::Value* m = doc.find(k);
    if (m == nullptr || !m->is_number()) return false;
    dst = m->as_double();
    return true;
  };

  std::uint64_t cores = 0;
  const json::Value* b = doc.find("hit_max_cycles");
  if (!str("benchmark", a.benchmark) || !u64("num_cores", cores) ||
      cores > 0xffffffffull || !hex("key", a.key) ||
      !hex("config_fingerprint", a.config_fingerprint) ||
      !hex("machine_fingerprint", a.machine_fingerprint) ||
      !u64("cycles", a.cycles) || b == nullptr || !b->is_bool() ||
      !f64("energy", a.energy) || !f64("aopb", a.aopb) ||
      !f64("budget", a.budget) || !f64("peak_power", a.peak_power) ||
      !f64("spin_energy", a.spin_energy) ||
      !u64("total_committed", a.total_committed) ||
      !str("summary_kv", a.summary_kv) ||
      !str("stats_json", a.stats_json)) {
    return false;
  }
  a.num_cores = static_cast<std::uint32_t>(cores);
  a.hit_max_cycles = b->as_bool();
  out = std::move(a);
  return true;
}

// ---------------------------------------------------------------------------
// DiskRunCache
// ---------------------------------------------------------------------------

DiskRunCache::DiskRunCache(std::string dir) : dir_(std::move(dir)) {
  PTB_ASSERT(!dir_.empty(), "cache directory must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PTB_ASSERTF(!ec && std::filesystem::is_directory(dir_),
              "cannot create cache directory '%s'", dir_.c_str());
}

std::uint64_t DiskRunCache::run_key(std::string_view benchmark,
                                    const SimConfig& cfg) {
  std::uint64_t h = kFnvBasis;
  fnv_mix_value(h, RunArtifact::kSchemaVersion);
  fnv_mix_value(h, config_fingerprint(cfg));
  fnv_mix(h, benchmark.data(), benchmark.size());
  return h;
}

std::string DiskRunCache::path_for(std::uint64_t key) const {
  return dir_ + "/" + hex16(key) + ".run";
}

bool DiskRunCache::load(std::uint64_t key, std::string& payload) const {
  if (tier_get(key, payload)) {
    memory_hits_.fetch_add(1);
    hits_.fetch_add(1);
    return true;
  }
  const std::string path = path_for(key);
  std::string raw;
  if (!read_file(path, raw)) {
    misses_.fetch_add(1);
    return false;
  }
  const auto corrupt = [&] {
    corrupt_.fetch_add(1);
    std::error_code ec;
    std::filesystem::remove(path, ec);  // heal the slot on the next store
    return false;
  };
  ByteReader r(raw);
  if (r.raw(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic)) ||
      r.u32() != kFrameVersion) {
    return corrupt();
  }
  const std::uint64_t len = r.u64();
  if (r.u64() != key || !r.ok() || r.remaining() < sizeof(std::uint64_t) ||
      r.remaining() - sizeof(std::uint64_t) != len) {
    return corrupt();
  }
  const std::string_view body = r.raw(len);
  if (r.u64() != checkpoint_checksum(body)) return corrupt();
  // The checksum proves the bytes are the ones stored; the payload must
  // also still be a valid artifact for this very key.
  RunArtifact a;
  if (!RunArtifact::parse(body, a) || a.key != key) return corrupt();
  payload = std::string(body);
  tier_put(key, body);
  hits_.fetch_add(1);
  return true;
}

bool DiskRunCache::store(std::uint64_t key, std::string_view payload) const {
  ByteWriter w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFrameVersion);
  w.u64(payload.size());
  w.u64(key);
  w.raw(payload.data(), payload.size());
  w.u64(checkpoint_checksum(payload));
  if (!write_file(path_for(key), w.data())) return false;
  stores_.fetch_add(1);
  enforce_quota();
  return true;
}

// ---------------------------------------------------------------------------
// Memory tier
// ---------------------------------------------------------------------------

bool DiskRunCache::tier_get(std::uint64_t key, std::string& payload) const {
  MutexLock lock(tier_mu_);
  const auto it = tier_index_.find(key);
  if (it == tier_index_.end()) return false;
  tier_.splice(tier_.begin(), tier_, it->second);  // most recent first
  payload = it->second->second;
  return true;
}

void DiskRunCache::tier_put(std::uint64_t key,
                            std::string_view payload) const {
  MutexLock lock(tier_mu_);
  // Two readers can verify one key concurrently; the second finds it here.
  if (tier_index_.count(key) != 0) return;
  tier_.emplace_front(key, std::string(payload));
  tier_index_.emplace(key, tier_.begin());
  tier_bytes_ += payload.size();
  while (tier_bytes_ > kMemoryTierBytes) {
    tier_bytes_ -= tier_.back().second.size();
    tier_index_.erase(tier_.back().first);
    tier_.pop_back();
  }
}

void DiskRunCache::tier_drop(std::uint64_t key) const {
  MutexLock lock(tier_mu_);
  const auto it = tier_index_.find(key);
  if (it == tier_index_.end()) return;
  tier_bytes_ -= it->second->second.size();
  tier_.erase(it->second);
  tier_index_.erase(it);
}

// ---------------------------------------------------------------------------
// Warm-checkpoint images
// ---------------------------------------------------------------------------

std::string DiskRunCache::warm_checkpoint_path(std::uint64_t ckpt_fp) const {
  return dir_ + "/ckpt-" + hex16(ckpt_fp) + ".ptbc";
}

bool DiskRunCache::load_warm_checkpoint(std::uint64_t ckpt_fp,
                                        std::string& frame) const {
  const std::string path = warm_checkpoint_path(ckpt_fp);
  std::string raw;
  if (!read_file(path, raw)) {
    warm_misses_.fetch_add(1);
    return false;
  }
  // Full frame validation up front (magic/version/length/checksum) plus
  // the address cross-check: the image must be the cycle-0 frame of the
  // very fingerprint it is filed under. Anything else is corruption (or a
  // foreign file) — count, unlink, heal on the next store.
  CheckpointReader ck;
  if (!ck.parse(raw) || ck.header().checkpoint_fp != ckpt_fp ||
      ck.header().cycle != 0) {
    corrupt_.fetch_add(1);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    warm_misses_.fetch_add(1);
    return false;
  }
  frame = std::move(raw);
  warm_hits_.fetch_add(1);
  return true;
}

bool DiskRunCache::store_warm_checkpoint(std::uint64_t ckpt_fp,
                                         std::string_view frame) const {
  std::string err;
  if (!save_checkpoint_file(warm_checkpoint_path(ckpt_fp), frame, &err)) {
    return false;
  }
  warm_stores_.fetch_add(1);
  enforce_quota();
  return true;
}

// ---------------------------------------------------------------------------
// Size quota
// ---------------------------------------------------------------------------

void DiskRunCache::enforce_quota() const {
  if (max_bytes_ == 0) return;
  namespace fs = std::filesystem;
  struct Entry {
    fs::file_time_type mtime;
    std::string name;  // tie-break -> deterministic eviction order
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (ec) return;  // directory races with concurrent eviction: give up
    const std::string name = de.path().filename().string();
    // Only our published entries participate: .run artifacts and
    // ckpt-*.ptbc images. In-flight temp files (*.tmp.*) are someone's
    // pending publish, never reaped here.
    const bool is_run = name.size() == 20 && name.ends_with(".run");
    const bool is_ckpt =
        name.size() == 26 && name.starts_with("ckpt-") &&
        name.ends_with(".ptbc");
    if (!is_run && !is_ckpt) continue;
    std::error_code sec;
    const std::uint64_t size = de.file_size(sec);
    const fs::file_time_type mtime = de.last_write_time(sec);
    if (sec) continue;  // vanished under us (concurrent eviction)
    total += size;
    entries.push_back(Entry{mtime, name, size});
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    std::error_code rec;
    if (std::filesystem::remove(dir_ + "/" + e.name, rec) && !rec) {
      total -= e.size;
      evicted_.fetch_add(1);
      // An evicted key must read as a miss in this process too.
      std::uint64_t key = 0;
      if (e.name.ends_with(".run") &&
          parse_hex16(std::string_view(e.name).substr(0, 16), key)) {
        tier_drop(key);
      }
    }
  }
}

std::string cached_run_payload(const DiskRunCache& cache,
                               const WorkloadProfile& profile,
                               const SimConfig& cfg, bool& hit,
                               const RunObserver* observer) {
  // load bumps hit/miss/corrupt, store bumps stores + quota enforcement;
  // the stage hooks only bracket those calls, so the payload bytes do not
  // depend on the observer.
  const auto begin = [&](const char* stage) {
    if (observer != nullptr && observer->stage_enter) {
      observer->stage_enter(stage);
    }
  };
  const auto end = [&](const char* stage) {
    if (observer != nullptr && observer->stage_exit) {
      observer->stage_exit(stage);
    }
  };
  const std::uint64_t key = DiskRunCache::run_key(profile.name, cfg);
  std::string payload;
  begin("cache_probe");
  const bool loaded = cache.load(key, payload);
  end("cache_probe");
  if (loaded) {
    hit = true;
    return payload;
  }
  hit = false;
  begin("simulate");
  RunOptions opts;
  opts.stats = true;  // the artifact carries the StatsDump JSON
  const RunResult r = run_one(profile, cfg, opts);
  end("simulate");
  begin("serialize");
  payload = RunArtifact::from_result(profile.name, cfg, r).to_payload();
  end("serialize");
  begin("cache_publish");
  cache.store(key, payload);
  end("cache_publish");
  return payload;
}

}  // namespace ptb
