// End-to-end ptb-serve tests: a real Server (sockets on 127.0.0.1, port 0)
// driven through the in-repo HTTP client. The acceptance case for the
// service plane lives here: a daemon *restart* between two identical
// POST /v1/run requests, with the second answered from the persistent
// DiskRunCache byte-identically to the first — the cache, not the process,
// is the source of truth. The remaining cases cover /metrics exposition,
// the admission cap, the sweep route and the error surface (routing is
// also exercised without sockets through Server::handle).
//
// The observability plane is pinned here too: the live job event stream
// (progress before terminal; "aborted" on drain), span-tree structural
// determinism across identical requests, byte-identical artifacts with
// tracing on vs off (the observe-only contract), and the structured
// access log.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "serve/http.hpp"
#include "trace/serve_span.hpp"

namespace ptb::serve {
namespace {

// 2 cores x 20k cycles: a few milliseconds per simulation.
const char* kRunBody =
    "{\"benchmark\":\"fft\","
    "\"config\":{\"num_cores\":2,\"max_cycles\":20000}}";

ServiceOptions test_opts(const std::string& cache_dir) {
  ServiceOptions o;
  o.cache_dir = cache_dir;
  o.sim_workers = 2;
  o.host_tokens = 2;
  o.queue_max = 64;
  return o;
}

std::string fresh_cache_dir(const char* tag) {
  // TempDir() outlives the process: wipe the slot so a "fresh cache" case
  // stays fresh on re-runs. The pid keeps concurrent test processes (two
  // build trees running ctest at once) out of each other's slots.
  const std::string dir = testing::TempDir() + "/ptb_serve_e2e_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

const std::string* find_header(const HttpResponse& r, const char* name) {
  for (const auto& [k, v] : r.headers) {
    if (k == name) return &v;  // client lowercases names
  }
  return nullptr;
}

HttpResponse must_request(std::uint16_t port, const std::string& method,
                          const std::string& target,
                          const std::string& body = "") {
  HttpResponse resp;
  std::string err;
  EXPECT_TRUE(
      http_request("127.0.0.1", port, method, target, body, {}, resp, err))
      << method << " " << target << ": " << err;
  return resp;
}

// The acceptance test: byte-identical answers from the persistent cache
// across a full daemon restart.
TEST(ServeE2E, RestartServesByteIdenticalFromPersistentCache) {
  const std::string cache_dir = fresh_cache_dir("restart");

  std::string first_body;
  std::string key;
  {
    Server server(test_opts(cache_dir), "127.0.0.1", 0, 2);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const HttpResponse r =
        must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
    ASSERT_EQ(r.status, 200) << r.body;
    const std::string* cache = find_header(r, "x-ptb-cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(*cache, "miss") << "fresh cache dir cannot hit";
    const std::string* k = find_header(r, "x-ptb-key");
    ASSERT_NE(k, nullptr);
    key = *k;
    first_body = r.body;
    ASSERT_FALSE(first_body.empty());
    server.stop();
  }  // daemon gone; only the cache directory survives

  {
    Server server(test_opts(cache_dir), "127.0.0.1", 0, 2);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const HttpResponse r =
        must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
    ASSERT_EQ(r.status, 200) << r.body;
    const std::string* cache = find_header(r, "x-ptb-cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(*cache, "hit") << "restart lost the persistent cache";
    EXPECT_EQ(r.body, first_body) << "cached answer not byte-identical";

    // The content address is stable across processes too.
    const HttpResponse by_key =
        must_request(server.port(), "GET", "/v1/results/" + key);
    ASSERT_EQ(by_key.status, 200);
    EXPECT_EQ(by_key.body, first_body);
    server.stop();
  }
}

TEST(ServeE2E, MetricsExposeRequestCacheAndQueueSeries) {
  Server server(test_opts(fresh_cache_dir("metrics")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  ASSERT_EQ(must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody)
                .status,
            200);
  const HttpResponse m = must_request(server.port(), "GET", "/metrics");
  ASSERT_EQ(m.status, 200);
  EXPECT_NE(m.content_type.find("text/plain"), std::string::npos);
  for (const char* series :
       {"ptb_serve_http_requests", "ptb_serve_jobs_submitted",
        "ptb_serve_cache_hits", "ptb_serve_cache_memory_hits",
        "ptb_serve_cache_misses",
        "ptb_serve_cache_corrupt", "ptb_serve_queue_depth",
        "ptb_serve_jobs_in_flight", "ptb_serve_admission_host_tokens",
        "ptb_serve_http_request_ms"}) {
    EXPECT_NE(m.body.find(series), std::string::npos) << series;
  }
  // The one run above was a miss; the counter must say so.
  EXPECT_NE(m.body.find("ptb_serve_cache_misses 1"), std::string::npos)
      << m.body;
  server.stop();
}

// Extracts the value of `series` from a Prometheus exposition ("" absent).
std::string series_value(const std::string& text,
                         const std::string& series) {
  const std::size_t at = text.find("\n" + series + " ");
  if (at == std::string::npos) return "";
  const std::size_t start = at + 1 + series.size() + 1;
  return text.substr(start, text.find('\n', start) - start);
}

TEST(ServeE2E, AdmissionCapsInFlightSimulationsAtHostTokens) {
  // 2 workers but a host budget of 1: the scheduler may never have more
  // than one simulation in flight even with a deep single-tenant queue.
  // A poller samples the in-flight gauge while the sweep runs; sampling
  // can only under-observe a violation, never invent one, so a pass is
  // sound and a violation is caught with high probability.
  ServiceOptions opts = test_opts(fresh_cache_dir("admission"));
  opts.host_tokens = 1;
  Service service(opts);

  std::vector<RunRequest> reqs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunRequest r;
    r.benchmark = "fft";
    r.config.num_cores = 2;
    r.config.max_cycles = 20000;
    r.config.seed = seed;  // distinct addresses: all six really simulate
    reqs.push_back(r);
  }

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::thread poller([&] {
    while (!done.load()) {
      const std::string v =
          series_value(service.metrics_text(), "ptb_serve_jobs_in_flight");
      if (!v.empty() && std::strtod(v.c_str(), nullptr) > 1.0) {
        violations.fetch_add(1);
      }
    }
  });

  Service::Submitted submitted;
  std::string err;
  ASSERT_TRUE(service.submit("tenant-a", reqs, submitted, err)) << err;
  ASSERT_TRUE(service.wait(submitted.job_id));
  done.store(true);
  poller.join();

  EXPECT_EQ(violations.load(), 0) << "in-flight exceeded the token budget";
  const std::string status = service.job_status_json(submitted.job_id);
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  service.stop();
}

TEST(ServeE2E, SweepWaitReturnsEveryArtifactAndSecondSweepHits) {
  Server server(test_opts(fresh_cache_dir("sweep")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const std::string body =
      "{\"requests\":["
      "{\"benchmark\":\"fft\",\"config\":{\"num_cores\":2,"
      "\"max_cycles\":20000}},"
      "{\"benchmark\":\"radix\",\"config\":{\"num_cores\":2,"
      "\"max_cycles\":20000}}]}";
  const HttpResponse first =
      must_request(server.port(), "POST", "/v1/sweep?wait=1", body);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_NE(first.body.find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(first.body.find("\"artifact\":{"), std::string::npos);

  const HttpResponse second =
      must_request(server.port(), "POST", "/v1/sweep?wait=1", body);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body.find("\"cache\":\"miss\""), std::string::npos)
      << "second sweep re-simulated";
  // Embedded artifacts are the same bytes, so the whole response document
  // is identical apart from the job id.
  EXPECT_NE(second.body.find("\"cache\":\"hit\""), std::string::npos);
  server.stop();
}

TEST(ServeE2E, AsyncSubmitThenPollJob) {
  Server server(test_opts(fresh_cache_dir("async")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const HttpResponse accepted =
      must_request(server.port(), "POST", "/v1/run", kRunBody);
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string* job = find_header(accepted, "x-ptb-job");
  ASSERT_NE(job, nullptr);

  // Poll through the real route until the job lands (bounded by the test
  // timeout; each unit is milliseconds).
  std::string status;
  for (;;) {
    const HttpResponse r =
        must_request(server.port(), "GET", "/v1/jobs/" + *job);
    ASSERT_EQ(r.status, 200);
    status = r.body;
    if (status.find("\"state\":\"done\"") != std::string::npos ||
        status.find("\"state\":\"failed\"") != std::string::npos) {
      break;
    }
    // Gentle poll: a tight loop would churn thousands of one-shot
    // connections into TIME_WAIT while a sanitizer build simulates.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(status.find("\"state\":\"done\""), std::string::npos) << status;
  EXPECT_NE(status.find("\"completed\":1"), std::string::npos) << status;
  server.stop();
}

// The request's trace id from the X-Ptb-Trace response header (0 when the
// header is absent, i.e. tracing off — span ids are minted from 1).
std::uint64_t trace_id_of(const HttpResponse& r) {
  const std::string* t = find_header(r, "x-ptb-trace");
  return t == nullptr ? 0 : std::strtoull(t->c_str(), nullptr, 16);
}

// Sorted root-relative name paths ("request/simulate/...") of every span
// in `trace_id`: the tree's *structure*, with all timing erased.
std::vector<std::string> span_paths(const ServeSpanLog& log,
                                    std::uint64_t trace_id) {
  std::map<std::uint32_t, const ServeSpan*> by_id;
  for (const ServeSpan& s : log.spans) {
    if (s.trace_id == trace_id) by_id[s.span_id] = &s;
  }
  std::vector<std::string> paths;
  for (const auto& [id, s] : by_id) {
    std::string path = s->name;
    for (const ServeSpan* p = s; p->parent_id != 0;) {
      const auto parent = by_id.find(p->parent_id);
      if (parent == by_id.end()) break;
      p = parent->second;
      path = p->name + "/" + path;
    }
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ServeE2E, EventsStreamProgressThenTerminal) {
  ServiceOptions opts = test_opts(fresh_cache_dir("events"));
  opts.progress_every_cycles = 2000;  // ~10 progress events over 20k cycles
  Server server(opts, "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const HttpResponse accepted =
      must_request(server.port(), "POST", "/v1/run", kRunBody);
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string* job = find_header(accepted, "x-ptb-job");
  ASSERT_NE(job, nullptr);

  // The stream replays the job's retained feed from seq 1 and then blocks
  // until the terminal event, so this single blocking GET is race-free no
  // matter how fast the simulation finished. The client de-chunks
  // transparently (the streaming response has no Content-Length).
  const HttpResponse stream = must_request(
      server.port(), "GET", "/v1/jobs/" + *job + "/events");
  ASSERT_EQ(stream.status, 200);
  EXPECT_NE(stream.content_type.find("text/event-stream"),
            std::string::npos);
  const std::string* te = find_header(stream, "transfer-encoding");
  ASSERT_NE(te, nullptr) << "stream must use chunked transfer-encoding";
  EXPECT_NE(te->find("chunked"), std::string::npos);

  const std::size_t progress = stream.body.find("event: progress");
  const std::size_t unit = stream.body.find("event: unit");
  const std::size_t done = stream.body.find("event: done");
  ASSERT_NE(progress, std::string::npos) << stream.body;
  ASSERT_NE(unit, std::string::npos) << stream.body;
  ASSERT_NE(done, std::string::npos) << stream.body;
  EXPECT_LT(progress, done) << "progress must precede the terminal event";
  EXPECT_LT(unit, done);
  // Progress payloads carry the live simulation counters: exactly these
  // keys, in this order, pin the wire shape clients parse.
  const std::size_t data = stream.body.find("data: ", progress);
  ASSERT_NE(data, std::string::npos) << stream.body;
  const std::size_t eol = stream.body.find('\n', data);
  ASSERT_NE(eol, std::string::npos) << stream.body;
  const std::string payload = stream.body.substr(data + 6, eol - data - 6);
  json::Value doc;
  std::string jerr;
  ASSERT_TRUE(json::parse(payload, doc, jerr)) << jerr << ": " << payload;
  ASSERT_TRUE(doc.is_object()) << payload;
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"unit", "cycle", "max_cycles",
                                            "committed", "ipc", "watts",
                                            "cores_finished", "cores"}))
      << payload;
  EXPECT_NE(stream.body.find("\"state\":\"done\""), std::string::npos);
  // Seq numbers start dense from 1.
  EXPECT_NE(stream.body.find("id: 1\n"), std::string::npos);

  // The stream counted as a streaming response, not a latency sample. The
  // transport bumps the counter after closing the stream's socket, so the
  // client can observe its own EOF first: poll briefly.
  std::string streams;
  for (int i = 0; i < 200 && streams != "1"; ++i) {
    streams = series_value(must_request(server.port(), "GET", "/metrics").body,
                           "ptb_serve_http_streams");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(streams, "1");
  server.stop();
}

// Opens a TCP connection to the daemon on 127.0.0.1; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Appends one recv() worth of bytes to `out`; false on EOF or error.
bool recv_some(int fd, std::string& out) {
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  if (n <= 0) return false;
  out.append(buf, static_cast<std::size_t>(n));
  return true;
}

TEST(ServeE2E, EventsStreamGetsAbortedOnDrain) {
  // One worker, two units: unit 0 is still simulating and unit 1 still
  // queued when the server drains. stop() must fail the queued unit and
  // emit a terminal "aborted" event so the open stream closes instead of
  // hanging until the client gives up.
  ServiceOptions opts = test_opts(fresh_cache_dir("aborted"));
  opts.sim_workers = 1;
  opts.host_tokens = 1;
  opts.progress_every_cycles = 1000;
  Server server(opts, "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  // Unit 0 (radix on 16 cores, >100k cycles) runs for hundreds of
  // milliseconds after its first progress event at cycle 1000; unit 1
  // waits behind it on the single worker.
  const std::string body =
      "{\"requests\":["
      "{\"benchmark\":\"radix\",\"config\":{\"num_cores\":16}},"
      "{\"benchmark\":\"fft\",\"config\":{\"num_cores\":2}}]}";
  const HttpResponse accepted =
      must_request(server.port(), "POST", "/v1/sweep", body);
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string* jobp = find_header(accepted, "x-ptb-job");
  ASSERT_NE(jobp, nullptr);
  const std::string job = *jobp;

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, "GET /v1/jobs/" + job +
                               "/events HTTP/1.1\r\n"
                               "Host: 127.0.0.1\r\n"
                               "Connection: close\r\n\r\n"));
  // Drain only once unit 0's first progress event is on the wire: unit 0
  // is then running and unit 1 queued, whatever the host's speed.
  std::string raw;
  while (raw.find("event: progress") == std::string::npos &&
         recv_some(fd, raw)) {
  }
  const bool saw_progress = raw.find("event: progress") != std::string::npos;
  server.stop();  // finishes unit 0, fails unit 1, aborts open feeds
  while (recv_some(fd, raw)) {
  }
  ::close(fd);
  ASSERT_TRUE(saw_progress) << raw;
  EXPECT_NE(raw.find("\"unit\":0,\"cycle\":"), std::string::npos) << raw;

  const std::size_t head_end = raw.find("\r\n\r\n");
  ASSERT_NE(head_end, std::string::npos) << raw;
  std::string stream_body;
  ASSERT_TRUE(http_dechunk(std::string_view(raw).substr(head_end + 4),
                           stream_body, err))
      << err;
  EXPECT_NE(stream_body.find("event: aborted"), std::string::npos)
      << stream_body;
  EXPECT_NE(stream_body.find("\"state\":\"aborted\""), std::string::npos);
  const std::string status = server.service().job_status_json(job);
  EXPECT_NE(status.find("\"state\":\"failed\""), std::string::npos) << status;
  EXPECT_NE(status.find("service shutting down"), std::string::npos)
      << status;
}

TEST(ServeE2E, SpanTreesAreStructurallyDeterministic) {
  Server server(test_opts(fresh_cache_dir("spans")), "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const HttpResponse miss =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(miss.status, 200);
  const HttpResponse hit1 =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  const HttpResponse hit2 =
      must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(hit1.status, 200);
  ASSERT_EQ(hit2.status, 200);

  const std::uint64_t t_miss = trace_id_of(miss);
  const std::uint64_t t_hit1 = trace_id_of(hit1);
  const std::uint64_t t_hit2 = trace_id_of(hit2);
  ASSERT_NE(t_miss, 0u) << "tracing is on by default";
  ASSERT_NE(t_hit1, 0u);
  ASSERT_NE(t_hit2, 0u);
  ASSERT_NE(t_hit1, t_hit2) << "each request gets its own trace";

  const HttpResponse tr = must_request(server.port(), "GET", "/v1/trace");
  ASSERT_EQ(tr.status, 200);
  EXPECT_NE(tr.content_type.find("application/octet-stream"),
            std::string::npos);
  ServeSpanLog log;
  ASSERT_TRUE(ServeSpanLog::deserialize(tr.body, log))
      << "GET /v1/trace bytes must round-trip through ServeSpanLog";

  // The miss ran the full pipeline: every stage nests under the root (the
  // acceptance bar is >= 6 nested stage spans for a cache-miss run).
  const std::vector<std::string> miss_paths = span_paths(log, t_miss);
  for (const char* path :
       {"request", "request/parse", "request/queue_wait",
        "request/admission_wait", "request/cache_probe", "request/simulate",
        "request/serialize", "request/cache_publish"}) {
    EXPECT_NE(std::find(miss_paths.begin(), miss_paths.end(), path),
              miss_paths.end())
        << path;
  }
  std::size_t nested = 0;
  for (const std::string& p : miss_paths) {
    if (p.find('/') != std::string::npos) ++nested;
  }
  EXPECT_GE(nested, 6u);

  // Two identical cache-hit requests produce *structurally identical*
  // trees — same names, same nesting — regardless of scheduler timing
  // (admission_wait is always emitted, zero-length when never blocked).
  const std::vector<std::string> p1 = span_paths(log, t_hit1);
  const std::vector<std::string> p2 = span_paths(log, t_hit2);
  ASSERT_FALSE(p1.empty());
  EXPECT_EQ(p1, p2);
  EXPECT_NE(std::find(p1.begin(), p1.end(), "request/cache_probe"),
            p1.end());
  for (const std::string& p : p1) {
    EXPECT_EQ(p.find("simulate"), std::string::npos)
        << "a cache hit must not simulate: " << p;
  }

  // The Perfetto rendering of the same snapshot names the stages.
  const HttpResponse pj =
      must_request(server.port(), "GET", "/v1/trace?format=json");
  ASSERT_EQ(pj.status, 200);
  EXPECT_NE(pj.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(pj.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(pj.body.find("\"name\":\"simulate\""), std::string::npos);
  server.stop();
}

TEST(ServeE2E, TracingOnOffProducesByteIdenticalArtifacts) {
  // The observe-only contract: a daemon with the whole observability plane
  // disabled answers the same request with the same bytes. Fresh cache
  // dirs on both sides, so both simulate.
  ServiceOptions off = test_opts(fresh_cache_dir("obs_off"));
  off.trace_spans = 0;
  off.progress_every_cycles = 0;
  Server traced(test_opts(fresh_cache_dir("obs_on")), "127.0.0.1", 0, 2);
  Server dark(off, "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(traced.start(err)) << err;
  ASSERT_TRUE(dark.start(err)) << err;

  const HttpResponse a =
      must_request(traced.port(), "POST", "/v1/run?wait=1", kRunBody);
  const HttpResponse b =
      must_request(dark.port(), "POST", "/v1/run?wait=1", kRunBody);
  ASSERT_EQ(a.status, 200);
  ASSERT_EQ(b.status, 200);
  EXPECT_EQ(*find_header(a, "x-ptb-cache"), "miss");
  EXPECT_EQ(*find_header(b, "x-ptb-cache"), "miss");
  EXPECT_EQ(a.body, b.body)
      << "tracing must not perturb the simulation artifact";

  EXPECT_NE(find_header(a, "x-ptb-trace"), nullptr);
  EXPECT_EQ(find_header(b, "x-ptb-trace"), nullptr)
      << "no trace ids when tracing is off";
  EXPECT_EQ(must_request(dark.port(), "GET", "/v1/trace").status, 404);
  traced.stop();
  dark.stop();
}

TEST(ServeE2E, AccessLogWritesOneJsonLinePerRequest) {
  const std::string log_path = testing::TempDir() + "/ptb_serve_e2e_access_" +
                               std::to_string(::getpid()) + ".jsonl";
  std::filesystem::remove(log_path);
  ServiceOptions opts = test_opts(fresh_cache_dir("accesslog"));
  opts.log_file = log_path;
  opts.log_level = LogLevel::kDebug;
  Server server(opts, "127.0.0.1", 0, 2);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  ASSERT_EQ(must_request(server.port(), "POST", "/v1/run?wait=1", kRunBody)
                .status,
            200);
  ASSERT_EQ(must_request(server.port(), "GET", "/healthz").status, 200);
  server.stop();

  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open()) << log_path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u) << "one line per logged request";

  // Every line is a complete JSON document.
  for (const std::string& l : lines) {
    json::Value doc;
    std::string jerr;
    EXPECT_TRUE(json::parse(l, doc, jerr)) << jerr << ": " << l;
  }
  const std::string& run = lines[0];
  for (const char* field :
       {"\"ts_ms\":", "\"trace\":\"", "\"tenant\":\"default\"",
        "\"method\":\"POST\"", "\"path\":\"/v1/run\"",
        "\"query\":\"wait=1\"", "\"status\":200", "\"dur_ms\":",
        "\"cache\":\"miss\"", "\"job\":\"j"}) {
    EXPECT_NE(run.find(field), std::string::npos) << field << " in " << run;
  }
  // Debug level enriches job-bearing lines with the admission footprint
  // and the summed per-stage durations.
  EXPECT_NE(run.find("\"tokens_held\":1"), std::string::npos) << run;
  EXPECT_NE(run.find("\"stages\":{"), std::string::npos) << run;
  EXPECT_NE(run.find("\"simulate\":"), std::string::npos) << run;
  EXPECT_NE(lines[1].find("\"path\":\"/healthz\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"stages\""), std::string::npos)
      << "no job, no stage breakdown";
}

// Routing error surface, exercised without sockets through handle().
// Raw-socket request for wire-level cases the structured client cannot
// express (here: a Content-Length the server must refuse to buffer).
// Sends `bytes`, reads to EOF, returns everything the server answered.
std::string raw_request(std::uint16_t port, const std::string& bytes) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  // Read whatever the server answered even if it closed mid-send.
  (void)send_all(fd, bytes);
  std::string out;
  while (recv_some(fd, out)) {
  }
  ::close(fd);
  return out;
}

TEST(ServeE2E, OversizedContentLengthRejectedWith413) {
  // The body cap must trip on the declared Content-Length alone — the
  // server answers 413 and closes without waiting for (or buffering) the
  // advertised megabytes. Only the request head is ever sent here, so a
  // hang would mean the server tried to read the body.
  Server server(test_opts(fresh_cache_dir("toolarge")), "127.0.0.1", 0, 1);
  std::string err;
  ASSERT_TRUE(server.start(err)) << err;

  const std::string head =
      "POST /v1/run HTTP/1.1\r\n"
      "Host: 127.0.0.1\r\n"
      "Content-Length: 1048577\r\n"  // 1 MiB cap + 1
      "Connection: close\r\n"
      "\r\n";
  const std::string resp = raw_request(server.port(), head);
  ASSERT_FALSE(resp.empty()) << "no response to oversized request";
  EXPECT_EQ(resp.rfind("HTTP/1.1 413 ", 0), 0u) << resp;

  // A request at the cap's edge with a *lying* (absent) body also cannot
  // wedge the worker: a fresh, well-formed request still gets served.
  EXPECT_EQ(must_request(server.port(), "GET", "/healthz").status, 200);
  server.stop();
}

TEST(ServeE2E, HandleErrorSurface) {
  Server server(test_opts(fresh_cache_dir("errors")), "127.0.0.1", 0, 1);

  const auto req = [](const char* method, const char* path,
                      const char* body = "") {
    HttpRequest r;
    r.method = method;
    r.path = path;
    r.body = body;
    return r;
  };

  EXPECT_EQ(server.handle(req("GET", "/healthz")).status, 200);
  EXPECT_EQ(server.handle(req("GET", "/no/such/route")).status, 404);
  EXPECT_EQ(server.handle(req("GET", "/v1/run")).status, 405);
  EXPECT_EQ(server.handle(req("POST", "/v1/run", "{not json")).status, 400);
  EXPECT_EQ(
      server.handle(req("POST", "/v1/run", "{\"benchmark\":\"nope\"}"))
          .status,
      400);
  EXPECT_EQ(server.handle(req("GET", "/v1/jobs/j99999999")).status, 404);
  EXPECT_EQ(
      server.handle(req("GET", "/v1/results/0123456789abcdef")).status,
      404);
  EXPECT_EQ(server.handle(req("GET", "/v1/results/not-a-key")).status, 404);

  // Drained service answers 503, not a hang.
  server.service().stop();
  EXPECT_EQ(server.handle(req("POST", "/v1/run", kRunBody)).status, 503);
}

}  // namespace
}  // namespace ptb::serve
