// Direct-call layer probes of the traced run: the energy-model build, the
// checkpoint capture/restore path and DiskRunCache on one (fft, 16 cores,
// seed) identity, and the request/artifact codecs on the serve workload's
// own bodies. Each times a few repetitions of one public call and reports
// the median.
#include <filesystem>

#include "perfbench.hpp"
#include "power/power_model.hpp"
#include "serve/config_json.hpp"
#include "sim/checkpoint.hpp"
#include "sim/trace_export.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 3;
constexpr int kCacheReps = 5;
constexpr int kCodecRounds = 7;

double mib(std::size_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

}  // namespace

void setup_sim_workload(const Options& o) {
  // The only lazy set-up a sweep/single run pays before its first
  // measured operation: the seed's k-means energy model, shared by every
  // later simulator of the process.
  ptb::BaseEnergyModel::shared(reference_config(o.seed).power, o.seed);
}

void probe_energy_model(const Options& o, Report& r) {
  const auto t0 = Clock::now();
  setup_sim_workload(o);
  r.layer("power", "power.energy_model_ms", ms_since(t0), "ms", 1,
          "probe: first BaseEnergyModel::shared", "setup_s @ sweep/single");
}

void probe_checkpoint_layers(const Options& o, Report& r) {
  const ptb::SimConfig cfg = reference_config(o.seed);
  const ptb::WorkloadProfile& prof = reference_profile();
  const char* const source = "probe: fft/16 cores, direct calls";
  const char* const moves_miss = "op_p90_ms, sim_mcps @ serve";

  std::vector<double> warm_ms;
  for (int k = 0; k < kReps; ++k) {
    ptb::CmpSimulator sim(cfg, prof);
    const auto t0 = Clock::now();
    sim.warm_caches();
    warm_ms.push_back(ms_since(t0));
  }

  // A cycle-0 frame, captured on the way through one full run.
  std::string frame;
  ptb::RunOptions capture;
  capture.checkpoint_at = 0;
  capture.checkpoint_out = &frame;
  ptb::RunResult direct;
  {
    ptb::CmpSimulator sim(cfg, prof);
    direct = sim.run(capture);
  }
  ++r.attempted;
  if (frame.empty()) {
    r.fail("checkpoint probe: no cycle-0 frame captured");
    return;
  }

  std::vector<double> restore_ms;
  for (int k = 0; k < kReps; ++k) {
    ptb::CmpSimulator sim(cfg, prof);
    std::string err;
    const auto t0 = Clock::now();
    const bool ok = sim.restore_checkpoint(frame, &err);
    restore_ms.push_back(ms_since(t0));
    if (k > 0) continue;
    ++r.attempted;
    if (!ok) {
      r.fail("checkpoint probe: restore rejected: " + err);
    } else if (ptb::run_summary_kv(sim.run()) != ptb::run_summary_kv(direct)) {
      r.fail("checkpoint probe: restored run differs from the direct run");
    }
  }

  const std::string dir = o.work_dir + "/probe-cache";
  std::vector<double> store_ms, load_ms, wstore_ms, wload_ms;
  {
    ptb::DiskRunCache cache(dir);
    bool hit = false;
    const std::string payload = ptb::cached_run_payload(cache, prof, cfg, hit);
    const std::uint64_t key = ptb::DiskRunCache::run_key(prof.name, cfg);
    const std::uint64_t fp = ptb::checkpoint_fingerprint(cfg, prof.name, 0);
    for (int k = 0; k < kCacheReps; ++k) {
      auto t0 = Clock::now();
      const bool stored = cache.store(key, payload);
      store_ms.push_back(ms_since(t0));
      std::string back;
      t0 = Clock::now();
      const bool loaded = cache.load(key, back);
      load_ms.push_back(ms_since(t0));
      ++r.attempted;
      if (!stored || !loaded || back != payload) {
        r.fail("disk cache probe: artifact did not round-trip");
      }
    }
    for (int k = 0; k < kReps; ++k) {
      auto t0 = Clock::now();
      const bool stored = cache.store_warm_checkpoint(fp, frame);
      wstore_ms.push_back(ms_since(t0));
      std::string back;
      t0 = Clock::now();
      const bool loaded = cache.load_warm_checkpoint(fp, back);
      wload_ms.push_back(ms_since(t0));
      ++r.attempted;
      if (!stored || !loaded || back != frame) {
        r.fail("disk cache probe: warm image did not round-trip");
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  r.layer("sim", "ckpt.warmup_ms", median(warm_ms), "ms", warm_ms.size(),
          source, moves_miss);
  r.layer("sim", "ckpt.restore_ms", median(restore_ms), "ms", restore_ms.size(),
          source, moves_miss);
  r.layer("sim", "ckpt.frame_mb", mib(frame.size()), "MiB", 1, source,
          moves_miss);
  r.layer("sim", "diskcache.load_ms", median(load_ms), "ms", load_ms.size(),
          source, "op_p50_ms @ serve");
  r.layer("sim", "diskcache.store_ms", median(store_ms), "ms", store_ms.size(),
          source, moves_miss);
  r.layer("sim", "diskcache.warm_store_ms", median(wstore_ms), "ms",
          wstore_ms.size(), source, moves_miss);
  r.layer("sim", "diskcache.warm_load_ms", median(wload_ms), "ms",
          wload_ms.size(), source, moves_miss);
}

void probe_codec_layers(const std::vector<std::string>& bodies,
                        const std::vector<std::string>& artifacts, Report& r) {
  const char* const source = "probe: the serve run's own bodies";
  std::vector<double> req_us, art_us;
  for (int round = 0; round < kCodecRounds; ++round) {
    auto t0 = Clock::now();
    for (const std::string& body : bodies) {
      ptb::json::Value doc;
      ptb::serve::RunRequest req;
      std::string err;
      if (!ptb::json::parse(body, doc, err) ||
          !ptb::serve::parse_run_request(doc, req, err)) {
        if (round == 0) r.fail("codec probe: request body rejected: " + err);
      }
    }
    req_us.push_back(ms_since(t0) * 1000.0 / static_cast<double>(bodies.size()));
    t0 = Clock::now();
    for (const std::string& payload : artifacts) {
      ptb::RunArtifact a;
      if (!ptb::RunArtifact::parse(payload, a) && round == 0) {
        r.fail("codec probe: artifact rejected");
      }
    }
    art_us.push_back(ms_since(t0) * 1000.0 /
                     static_cast<double>(artifacts.size()));
  }
  r.attempted += bodies.size() + artifacts.size();
  r.layer("serve", "codec.request_parse_us", median(req_us), "us",
          bodies.size(), source, "op_p50_ms @ serve");
  r.layer("sim", "codec.artifact_parse_us", median(art_us), "us",
          artifacts.size(), source, "op_p50_ms @ serve");
}

}  // namespace perfbench
