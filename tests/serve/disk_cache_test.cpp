// DiskRunCache + RunArtifact (sim/experiment.hpp, sim/disk_cache.cpp): the
// persistent content-addressed store behind ptb-serve. The cases pin the
// contract the daemon's byte-identity guarantee rests on:
//   - a cached answer is byte-identical to a live re-simulation;
//   - a truncated or bit-flipped entry is rejected (counted, unlinked) and
//     transparently re-simulated — corrupt bytes are never served;
//   - concurrent readers/writers of one key race benignly (the TSan preset
//     chews on the hammer case).
#include "sim/experiment.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/cmp.hpp"
#include "sim/reporting.hpp"
#include "sim/trace_export.hpp"
#include "workloads/phases.hpp"

namespace ptb {
namespace {

// Small but non-trivial: lock contention so the artifact carries real
// spin/energy numbers, ~milliseconds per simulation.
WorkloadProfile fast_profile() {
  WorkloadProfile p;
  p.name = "cachetest";
  p.iterations = 3;
  p.ops_per_iteration = 4000;
  p.imbalance = 0.25;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 12;
  p.hot_lock_frac = 0.5;
  return p;
}

SimConfig fast_config() {
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.max_cycles = 50000;
  return cfg;
}

std::string temp_cache_dir(const char* tag) {
  // TempDir() outlives the process: wipe the slot so a "fresh cache" case
  // stays fresh on re-runs. The pid keeps concurrent test processes (two
  // build trees running ctest at once) out of each other's slots.
  const std::string dir = testing::TempDir() + "/ptb_disk_cache_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

void corrupt_file_at(const std::string& path, std::size_t offset,
                     char byte) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

// XORs one byte so the corruption is guaranteed to change the file
// (corrupt_file_at with a fixed byte is a no-op when it already matches).
void flip_byte_at(const std::string& path, std::size_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  char b = 0;
  ASSERT_EQ(std::fread(&b, 1, 1, f), 1u);
  b = static_cast<char>(b ^ 0x01);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&b, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(RunArtifact, PayloadParseRoundTrip) {
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  RunOptions opts;
  opts.stats = true;
  const RunResult r = run_one(p, cfg, opts);
  const RunArtifact a = RunArtifact::from_result(p.name, cfg, r);
  EXPECT_EQ(a.key, DiskRunCache::run_key(p.name, cfg));
  EXPECT_EQ(a.config_fingerprint, config_fingerprint(cfg));
  EXPECT_FALSE(a.stats_json.empty()) << "stats-enabled run lost its dump";

  RunArtifact back;
  ASSERT_TRUE(RunArtifact::parse(a.to_payload(), back));
  // Canonical emission: re-serializing the parsed artifact reproduces the
  // payload byte for byte.
  EXPECT_EQ(back.to_payload(), a.to_payload());
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.summary_kv, run_summary_kv(r));

  RunArtifact junk;
  EXPECT_FALSE(RunArtifact::parse("not json", junk));
  EXPECT_FALSE(RunArtifact::parse("{\"schema_version\":999}", junk));
}

TEST(DiskRunCache, MissThenHitIsByteIdentical) {
  const DiskRunCache cache(temp_cache_dir("roundtrip"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();

  bool hit = true;
  const std::string first = cached_run_payload(cache, p, cfg, hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);

  const std::string second = cached_run_payload(cache, p, cfg, hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second, first) << "cached payload differs from live run";

  // And the cached bytes really are a fresh simulation's bytes.
  RunOptions opts;
  opts.stats = true;
  const RunResult r = run_one(p, cfg, opts);
  EXPECT_EQ(RunArtifact::from_result(p.name, cfg, r).to_payload(), first);
}

TEST(DiskRunCache, DifferentConfigsGetDifferentAddresses) {
  const WorkloadProfile p = fast_profile();
  SimConfig a = fast_config();
  SimConfig b = fast_config();
  b.seed = 99;  // fingerprinted field -> new address
  EXPECT_NE(DiskRunCache::run_key(p.name, a),
            DiskRunCache::run_key(p.name, b));
  EXPECT_NE(DiskRunCache::run_key("fft", a),
            DiskRunCache::run_key("radix", a));
}

TEST(DiskRunCache, TruncatedEntryRejectedAndResimulated) {
  const DiskRunCache cache(temp_cache_dir("truncated"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  const std::uint64_t key = DiskRunCache::run_key(p.name, cfg);

  bool hit = true;
  const std::string good = cached_run_payload(cache, p, cfg, hit);
  ASSERT_FALSE(hit);

  // Simulate a crashed writer published by a buggy rename: chop the file
  // mid-payload. The length field no longer matches -> corrupt, unlinked.
  const std::string path = cache.path_for(key);
  std::filesystem::resize_file(path, 24 + good.size() / 2);
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  EXPECT_EQ(cache.corrupt(), 1u);
  EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt entry not healed";

  // The service path transparently re-simulates and re-stores.
  const std::string again = cached_run_payload(cache, p, cfg, hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(again, good);
  EXPECT_TRUE(cache.load(key, payload));
  EXPECT_EQ(payload, good);
}

TEST(DiskRunCache, BitFlipAndForeignFileRejected) {
  const DiskRunCache cache(temp_cache_dir("bitflip"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  const std::uint64_t key = DiskRunCache::run_key(p.name, cfg);

  bool hit = true;
  cached_run_payload(cache, p, cfg, hit);
  const std::string path = cache.path_for(key);

  // Payload-level bit flip: framing is intact, so only the artifact-parse
  // backstop can catch it. '\0' mid-JSON is unparseable by construction.
  corrupt_file_at(path, 24 + 5, '\0');
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  EXPECT_EQ(cache.corrupt(), 1u);

  // Foreign magic: refill the slot, then stamp a wrong magic byte.
  cached_run_payload(cache, p, cfg, hit);
  corrupt_file_at(path, 0, 'X');
  EXPECT_FALSE(cache.load(key, payload));
  EXPECT_EQ(cache.corrupt(), 2u);

  // A key mismatch (entry filed under the wrong address) is also corrupt.
  cached_run_payload(cache, p, cfg, hit);
  std::filesystem::rename(path, cache.path_for(key ^ 1));
  EXPECT_FALSE(cache.load(key ^ 1, payload));
  EXPECT_EQ(cache.corrupt(), 3u);
}

TEST(DiskRunCache, ConcurrentReadersAndWritersOneKey) {
  // The benign-race contract: rename is atomic, so under any interleaving
  // of loads and stores a reader sees a miss or one complete, valid
  // payload — never torn bytes. TSan runs this test too (tests tier).
  const DiskRunCache cache(temp_cache_dir("hammer"));
  const std::uint64_t key = 0x1234abcd5678ef90ull;

  // A synthetic-but-valid artifact payload (load() parses the payload, so
  // raw junk would read as corrupt, not as a hit).
  RunArtifact a;
  a.benchmark = "hammer";
  a.num_cores = 2;
  a.key = key;
  a.summary_kv = "cycles=1";
  const std::string payload = a.to_payload();
  {
    RunArtifact check;
    ASSERT_TRUE(RunArtifact::parse(payload, check));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::atomic<int> torn{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads * 2);
  for (int w = 0; w < kThreads; ++w) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(cache.store(key, payload));
      }
    });
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::string got;
        if (cache.load(key, got) && got != payload) torn.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(torn.load(), 0) << "reader observed torn cache bytes";
  std::string got;
  EXPECT_TRUE(cache.load(key, got));
  EXPECT_EQ(got, payload);
}

TEST(DiskRunCache, QuotaEvictsOldestPublishedEntriesFirst) {
  DiskRunCache cache(temp_cache_dir("quota"));
  namespace fs = std::filesystem;

  // Four same-size synthetic artifacts under distinct keys; ages are
  // pinned explicitly so (mtime, name) eviction order is deterministic
  // regardless of how fast the stores land.
  const auto payload_for = [](std::uint64_t key) {
    RunArtifact a;
    a.benchmark = "quota";
    a.num_cores = 2;
    a.key = key;  // load() cross-checks the embedded key
    a.summary_kv = "pad=" + std::string(1000, 'x');
    return a.to_payload();  // fixed-width key -> same size for every key
  };
  const std::uint64_t k1 = 0xa000000000000001ull;
  const std::uint64_t k2 = 0xa000000000000002ull;
  const std::uint64_t k3 = 0xa000000000000003ull;
  const std::uint64_t k4 = 0xa000000000000004ull;
  ASSERT_TRUE(cache.store(k1, payload_for(k1)));  // quota 0 = unbounded
  ASSERT_TRUE(cache.store(k2, payload_for(k2)));
  ASSERT_TRUE(cache.store(k3, payload_for(k3)));
  const std::uint64_t entry = fs::file_size(cache.path_for(k1));
  const auto now = fs::last_write_time(cache.path_for(k3));
  fs::last_write_time(cache.path_for(k1), now - std::chrono::minutes(3));
  fs::last_write_time(cache.path_for(k2), now - std::chrono::minutes(2));
  fs::last_write_time(cache.path_for(k3), now - std::chrono::minutes(1));

  // Room for three and a half entries: publishing the fourth must evict
  // exactly the oldest (k1) and nothing else.
  cache.set_max_bytes(3 * entry + entry / 2);
  ASSERT_TRUE(cache.store(k4, payload_for(k4)));
  EXPECT_FALSE(fs::exists(cache.path_for(k1))) << "oldest entry survived";
  EXPECT_TRUE(fs::exists(cache.path_for(k2)));
  EXPECT_TRUE(fs::exists(cache.path_for(k3)));
  EXPECT_TRUE(fs::exists(cache.path_for(k4)));
  EXPECT_EQ(cache.evicted(), 1u);

  // Shrink the quota to a single entry: the next publish keeps only
  // itself (k4's pinned age makes it older than the fresh k5).
  fs::last_write_time(cache.path_for(k4), now - std::chrono::seconds(30));
  cache.set_max_bytes(entry + entry / 2);
  const std::uint64_t k5 = 0xa000000000000005ull;
  ASSERT_TRUE(cache.store(k5, payload_for(k5)));
  EXPECT_FALSE(fs::exists(cache.path_for(k2)));
  EXPECT_FALSE(fs::exists(cache.path_for(k3)));
  EXPECT_FALSE(fs::exists(cache.path_for(k4)));
  EXPECT_TRUE(fs::exists(cache.path_for(k5)));
  EXPECT_EQ(cache.evicted(), 4u);

  // Evicted keys are plain misses — the read path re-simulates, it never
  // errors.
  std::string got;
  EXPECT_FALSE(cache.load(k2, got));
  EXPECT_TRUE(cache.load(k5, got));
  EXPECT_EQ(got, payload_for(k5));
}

TEST(DiskRunCache, WarmCheckpointRoundTripRejectsCorruptAndForeign) {
  const DiskRunCache cache(temp_cache_dir("warm"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();

  // A genuine cycle-0 warm frame.
  std::string frame;
  RunOptions opts;
  opts.checkpoint_at = 0;
  opts.checkpoint_out = &frame;
  CmpSimulator sim(cfg, p);
  (void)sim.run(opts);
  ASSERT_FALSE(frame.empty());
  const std::uint64_t fp = checkpoint_fingerprint(cfg, p.name, 0);

  std::string got;
  EXPECT_FALSE(cache.load_warm_checkpoint(fp, got));
  EXPECT_EQ(cache.warm_misses(), 1u);
  ASSERT_TRUE(cache.store_warm_checkpoint(fp, frame));
  EXPECT_EQ(cache.warm_stores(), 1u);
  ASSERT_TRUE(cache.load_warm_checkpoint(fp, got));
  EXPECT_EQ(got, frame) << "warm image not byte-identical";
  EXPECT_EQ(cache.warm_hits(), 1u);

  // Filed under the wrong fingerprint: the embedded checkpoint_fp check
  // rejects it, counts it corrupt and heals the slot by unlinking.
  std::filesystem::rename(cache.warm_checkpoint_path(fp),
                          cache.warm_checkpoint_path(fp ^ 1));
  EXPECT_FALSE(cache.load_warm_checkpoint(fp ^ 1, got));
  EXPECT_EQ(cache.corrupt(), 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.warm_checkpoint_path(fp ^ 1)));

  // A bit flip mid-frame fails the frame checksum: corrupt, unlinked,
  // and the next lookup is a clean miss.
  ASSERT_TRUE(cache.store_warm_checkpoint(fp, frame));
  flip_byte_at(cache.warm_checkpoint_path(fp), frame.size() / 2);
  EXPECT_FALSE(cache.load_warm_checkpoint(fp, got));
  EXPECT_EQ(cache.corrupt(), 2u);
  EXPECT_FALSE(std::filesystem::exists(cache.warm_checkpoint_path(fp)));
}

}  // namespace
}  // namespace ptb
