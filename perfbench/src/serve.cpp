// `serve`: the real ptb-serve daemon over loopback. Each set-up starts a
// daemon on a fresh cache directory and preloads a hot set of 32 run keys;
// then two client threads run a closed loop, each as its own tenant,
// posting `POST /v1/run?wait=1`. One request in eight is a fresh 16-core
// miss (one per benchmark per pass, varying the technique/PTB policy and
// budget_fraction); half of the misses reuse a (benchmark, seed) identity
// the hot set already warmed, so they restore its warm image, and half
// bring a new seed, so they capture one. Every other request is a hit
// drawn from the hot set.
//
// Checks: every response is a 200 whose body parses as a RunArtifact of
// the requested run with the expected cache disposition, and every hit
// returns exactly the bytes its key returned on the miss that created it.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "perfbench.hpp"
#include "serve/http.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

constexpr unsigned kClients = 2;
constexpr std::size_t kHotKeys = 32;
constexpr std::size_t kBlock = 8;            // one miss per block of 8
constexpr std::size_t kBlocksPerClient = 7;  // 14 misses per pass
constexpr int kSetups = 3;
constexpr double kStartTimeoutMs = 60000.0;
constexpr double kStopTimeoutMs = 60000.0;

// The technique columns a request may ask for (JSON fragments).
const char* const kTechniques[] = {
    "\"technique\":\"none\"",
    "\"technique\":\"dvfs\"",
    "\"technique\":\"dfs\"",
    "\"technique\":\"two_level\"",
    "\"technique\":\"two_level\",\"ptb\":{\"enabled\":true,\"policy\":\"to_one\"}",
    "\"technique\":\"two_level\",\"ptb\":{\"enabled\":true,\"policy\":\"to_all\"}",
};
constexpr std::uint32_t kNumTechniques = 6;

struct RunSpec {
  std::string bench;
  std::uint32_t cores = 16;
  std::string body;
};

RunSpec make_spec(const std::string& bench, std::uint32_t cores,
                  std::uint64_t seed, std::uint32_t tech, double budget) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"benchmark\":\"%s\",\"config\":{\"num_cores\":%u,"
                "\"seed\":%llu,\"budget_fraction\":%.4f,%s}}",
                bench.c_str(), cores, static_cast<unsigned long long>(seed),
                budget, kTechniques[tech]);
  return {bench, cores, buf};
}

// One client request of a pass: a hot-set hit or a fresh miss.
struct Request {
  bool hit = true;
  std::size_t hot = 0;
  RunSpec miss;
};

// The seeded traffic: the hot set, then per pass one script per client.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : rng_(seed), seed_(seed) {
    names_ = ptb::full_benchmark_names();
    // Hot keys 0..13: every benchmark at 16 cores (so every miss that
    // reuses an identity finds a warm image); 14..31 at 8 and 4 cores.
    for (std::size_t i = 0; i < kHotKeys; ++i) {
      const std::size_t n = names_.size();
      const std::uint32_t cores = i < n ? 16 : (i < 2 * n ? 8 : 4);
      hot_.push_back(make_spec(names_[i % n], cores, seed_,
                               below(kNumTechniques), 0.5));
      seen_.insert(hot_.back().body);
    }
  }

  const std::vector<RunSpec>& hot() const { return hot_; }

  std::vector<std::vector<Request>> pass(std::size_t index) {
    // One miss per benchmark, in a seeded order; alternate passes swap
    // which benchmarks reuse a warmed identity and which bring a new seed.
    std::vector<std::size_t> order(names_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[below(i + 1)]);
    }
    std::vector<std::vector<Request>> scripts(kClients);
    std::size_t m = 0;
    for (unsigned c = 0; c < kClients; ++c) {
      for (std::size_t b = 0; b < kBlocksPerClient; ++b) {
        const std::size_t miss_at = below(kBlock);
        for (std::size_t k = 0; k < kBlock; ++k) {
          Request q;
          if (k == miss_at) {
            q.hit = false;
            q.miss = fresh_miss(names_[order[m]], (m + index) % 2 == 0);
            ++m;
          } else {
            q.hot = below(kHotKeys);
          }
          scripts[c].push_back(std::move(q));
        }
      }
    }
    return scripts;
  }

 private:
  std::uint32_t below(std::uint64_t n) {
    return static_cast<std::uint32_t>(rng_.next_below(n));
  }

  RunSpec fresh_miss(const std::string& bench, bool reuse_identity) {
    const std::uint64_t seed = reuse_identity ? seed_ : seed_ + 7919 * ++new_seeds_;
    while (true) {
      const std::uint32_t tech = 1 + below(kNumTechniques - 1);
      const double budget = 0.30 + 0.0001 * below(4000);
      RunSpec s = make_spec(bench, 16, seed, tech, budget);
      if (seen_.insert(s.body).second) return s;
    }
  }

  ptb::Rng rng_;
  std::uint64_t seed_;
  std::uint64_t new_seeds_ = 0;
  std::vector<std::string> names_;
  std::vector<RunSpec> hot_;
  std::set<std::string> seen_;
};

// A ptb-serve child process on its own cache directory; stopped (SIGTERM,
// graceful drain) and reaped by stop() or the destructor.
class Daemon {
 public:
  Daemon(const Options& o, const std::string& dir) : dir_(dir) {
    std::filesystem::create_directories(dir);
    const std::string log = dir + ".log";
    std::vector<std::string> args = {
        o.serve_bin, "--port",        "0",     "--jobs",        "2",
        "--http-threads", "2",        "--host-tokens", "2", "--policy",
        "to_all",    "--cache-dir",   dir};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ == 0) {
      // The daemon goes down with the benchmark, however the benchmark ends.
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(127);
      const int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0 || dup2(fd, 1) < 0 || dup2(fd, 2) < 0) _exit(127);
      close(fd);
      execv(argv[0], argv.data());
      _exit(127);
    }
    if (pid_ < 0) {
      pid_ = -1;
      return;
    }
    const auto t0 = Clock::now();
    const std::string marker = "listening on 127.0.0.1:";
    while (ms_since(t0) < kStartTimeoutMs) {
      std::string text;
      const std::size_t at =
          read_file(log, text) ? text.find(marker) : std::string::npos;
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(text.substr(at + marker.size())));
        return;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool up() const { return pid_ > 0 && port_ != 0; }
  std::uint16_t port() const { return port_; }
  const std::string& dir() const { return dir_; }

  /// VmHWM of the daemon, in MiB.
  double peak_rss_mib() const {
    std::string status;
    if (!read_file("/proc/" + std::to_string(pid_) + "/status", status)) return 0;
    const std::size_t at = status.find("VmHWM:");
    if (at == std::string::npos) return 0.0;
    return std::stod(status.substr(at + 6)) / 1024.0;
  }

  /// Graceful stop; true when the daemon drained and exited 0.
  bool stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (ms_since(t0) > kStopTimeoutMs) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

struct Outcome {
  double ms = 0.0;
  bool hit = true;
  double core_cycles = 0.0;
  std::string error;  // empty when every check passed
  std::string body;
};

// One blocking POST /v1/run?wait=1 and its checks.
Outcome post(std::uint16_t port, const std::string& tenant, const RunSpec& spec,
             bool expect_hit, const std::string* expect_bytes) {
  Outcome out;
  out.hit = expect_hit;
  ptb::serve::HttpResponse resp;
  std::string err;
  const auto t0 = Clock::now();
  const bool sent = ptb::serve::http_request(
      "127.0.0.1", port, "POST", "/v1/run?wait=1", spec.body,
      {{"X-Ptb-Tenant", tenant}}, resp, err);
  out.ms = ms_since(t0);
  if (!sent) {
    out.error = "request failed: " + err;
    return out;
  }
  if (resp.status != 200) {
    out.error = "HTTP " + std::to_string(resp.status);
    return out;
  }
  std::string cache;
  for (const auto& [k, v] : resp.headers) {
    if (k == "x-ptb-cache") cache = v;
  }
  ptb::RunArtifact a;
  if (cache != (expect_hit ? "hit" : "miss")) {
    out.error = "expected a cache " + std::string(expect_hit ? "hit" : "miss");
  } else if (!ptb::RunArtifact::parse(resp.body, a)) {
    out.error = "body is not a RunArtifact";
  } else if (a.benchmark != spec.bench || a.num_cores != spec.cores ||
             a.hit_max_cycles) {
    out.error = "artifact does not answer the request";
  } else if (expect_bytes != nullptr && resp.body != *expect_bytes) {
    out.error = "hit bytes differ from the miss that created the key";
  }
  out.core_cycles =
      static_cast<double>(a.cycles) * static_cast<double>(a.num_cores);
  out.body = std::move(resp.body);
  return out;
}

std::string tenant(unsigned c) { return "client-" + std::to_string(c); }

// Preloads the hot set from `kClients` concurrent clients; returns the
// artifact bytes per hot key.
std::vector<std::string> preload(const Daemon& d, const Traffic& t,
                                 Report& r) {
  const auto& hot = t.hot();
  std::vector<Outcome> got(hot.size());
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < hot.size(); i += kClients) {
        got[i] = post(d.port(), tenant(c), hot[i], false, nullptr);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  std::vector<std::string> bytes;
  for (Outcome& g : got) {
    ++r.attempted;
    if (!g.error.empty()) r.fail("serve preload: " + g.error);
    bytes.push_back(std::move(g.body));
  }
  return bytes;
}

std::map<std::string, double> scrape(std::uint16_t port) {
  std::map<std::string, double> m;
  ptb::serve::HttpResponse resp;
  std::string err;
  if (!ptb::serve::http_request("127.0.0.1", port, "GET", "/metrics", "", {},
                                resp, err) ||
      resp.status != 200) {
    return m;
  }
  std::size_t pos = 0;
  while (pos < resp.body.size()) {
    std::size_t nl = resp.body.find('\n', pos);
    if (nl == std::string::npos) nl = resp.body.size();
    const std::string line = resp.body.substr(pos, nl - pos);
    pos = nl + 1;
    const std::size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
    m[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return m;
}

double dir_mib(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return static_cast<double>(bytes) / 1048576.0;
}

void report_layers(const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after, double disk_mib,
                   const char* source, Report& r) {
  const auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const char* const hit_path = "op_p50_ms @ serve";
  const char* const miss_path = "op_p90_ms, sim_mcps, wall_s @ serve";
  for (const char* stage :
       {"parse", "queue_wait", "admission_wait", "cache_probe", "warm_restore",
        "simulate", "serialize", "cache_publish"}) {
    const std::string base = std::string("ptb_serve_stage_") + stage + "_ms";
    const double count = delta(base + "_count");
    const std::string s(stage);
    r.layer("serve", "serve.stage." + s + "_ms",
            count > 0.0 ? delta(base + "_sum") / count : 0.0, "ms",
            static_cast<std::size_t>(count), source,
            s == "parse" || s == "cache_probe" ? hit_path : miss_path);
  }
  const double hits = delta("ptb_serve_cache_hits");
  const double misses = delta("ptb_serve_cache_misses");
  const double whits = delta("ptb_serve_cache_warm_hits");
  const double wmisses = delta("ptb_serve_cache_warm_misses");
  r.layer("serve", "serve.cache_hit_ratio",
          hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio",
          static_cast<std::size_t>(hits + misses), source, miss_path);
  r.layer("serve", "serve.warm_hit_ratio",
          whits + wmisses > 0.0 ? whits / (whits + wmisses) : 0.0, "ratio",
          static_cast<std::size_t>(whits + wmisses), source, miss_path);
  r.layer("serve", "serve.cache_disk_mb", disk_mib, "MiB", 1, source,
          miss_path);
}

// One set-up: a daemon on a fresh directory, up and listening, with the
// hot set preloaded. Null (with a failure recorded) when it did not start.
std::unique_ptr<Daemon> set_up(const Options& o, int index,
                               const Traffic& traffic,
                               std::vector<std::string>& hot_bytes,
                               std::vector<double>& setup_s, Report& r) {
  const auto t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(
      o, o.work_dir + "/serve-cache-" + std::to_string(index));
  if (!daemon->up()) {
    ++r.attempted;
    r.fail("serve: ptb-serve did not start (" + o.serve_bin + ")");
    return nullptr;
  }
  std::vector<std::string> bytes = preload(*daemon, traffic, r);
  setup_s.push_back(ms_since(t0) / 1000.0);
  // Artifacts are a pure function of the request: every set-up must have
  // produced the same bytes.
  if (!hot_bytes.empty() && bytes != hot_bytes) {
    r.fail("serve: hot-set artifacts differ between daemons");
  }
  hot_bytes = std::move(bytes);
  return daemon;
}

void tear_down(std::unique_ptr<Daemon> daemon, Report& r) {
  if (!daemon->stop()) r.fail("serve: daemon did not shut down cleanly");
  std::error_code ec;
  std::filesystem::remove_all(daemon->dir(), ec);
}

}  // namespace

void run_serve(const Options& o, Mode mode, Report& r,
               std::vector<std::string>& bodies,
               std::vector<std::string>& artifacts) {
  Traffic traffic(o.seed);
  for (const RunSpec& s : traffic.hot()) bodies.push_back(s.body);

  std::vector<double> setup_s;
  std::vector<std::string> hot_bytes;
  std::unique_ptr<Daemon> daemon = set_up(o, 0, traffic, hot_bytes, setup_s, r);
  if (!daemon) return;
  artifacts = hot_bytes;

  const bool traced = mode == Mode::kProbe || o.trace;
  std::map<std::string, double> before;
  if (traced) before = scrape(daemon->port());

  std::vector<double> all_ms, pass_s, pass_mcps, pass_ops;
  double measured_s = 0.0;
  for (std::size_t p = 0;; ++p) {
    auto scripts = traffic.pass(p);
    for (const auto& script : scripts) {
      for (const Request& q : script) {
        if (!q.hit) bodies.push_back(q.miss.body);
      }
    }
    std::vector<std::vector<Outcome>> got(kClients);
    const auto pass_t0 = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (const Request& q : scripts[c]) {
          got[c].push_back(
              q.hit ? post(daemon->port(), tenant(c), traffic.hot()[q.hot],
                           true, &hot_bytes[q.hot])
                    : post(daemon->port(), tenant(c), q.miss, false, nullptr));
        }
      });
    }
    for (std::thread& th : clients) th.join();
    const double wall = ms_since(pass_t0) / 1000.0;
    double miss_ms = 0.0, miss_core_cycles = 0.0, requests = 0.0;
    for (const auto& outcomes : got) {
      for (const Outcome& g : outcomes) {
        ++r.attempted;
        if (!g.error.empty()) r.fail("serve: " + g.error);
        all_ms.push_back(g.ms);
        requests += 1.0;
        if (!g.hit) {
          miss_ms += g.ms;
          miss_core_cycles += g.core_cycles;
        }
      }
    }
    pass_s.push_back(wall);
    pass_mcps.push_back(miss_core_cycles / (miss_ms / 1000.0) / 1e6);
    pass_ops.push_back(requests / wall);
    measured_s += wall;
    if (mode == Mode::kProbe || measured_s + wall > o.seconds) break;
  }

  const double rss = daemon->peak_rss_mib();
  if (traced) {
    report_layers(before, scrape(daemon->port()), dir_mib(daemon->dir()),
                  mode == Mode::kProbe ? "probe: 1 set-up, 1 pass"
                                       : "serve (daemon /metrics)",
                  r);
  }
  tear_down(std::move(daemon), r);
  if (mode != Mode::kMeasure) return;

  // More set-ups after the measured phase, so the set-up samples span the
  // run rather than one stretch of it.
  for (int s = 1; s < kSetups; ++s) {
    daemon = set_up(o, s, traffic, hot_bytes, setup_s, r);
    if (!daemon) return;
    tear_down(std::move(daemon), r);
  }
  r.add("setup_s", median(setup_s), "s", setup_s.size());
  // Rates are medians over passes, like wall_s: a slow stretch of the
  // host moves a few passes, not the whole figure.
  r.add("wall_s", median(pass_s), "s", pass_s.size());
  r.add("sim_mcps", median(pass_mcps), "Mcycle/s", pass_mcps.size());
  r.add("op_p50_ms", quantile(all_ms, 0.5), "ms", all_ms.size());
  r.add("op_p90_ms", quantile(all_ms, 0.9), "ms", all_ms.size());
  r.add("ops_per_s", median(pass_ops), "1/s", pass_ops.size());
  r.add("peak_rss_mb", rss, "MiB", 1);
}

}  // namespace perfbench
