// Transport-layer parsing (serve/http.hpp) and the SimConfig JSON codec
// (serve/config_json.hpp) — everything the daemon decodes off the wire,
// exercised without sockets, plus the client's response framing, which
// reads canned bytes from a one-shot loopback listener. The codec tests
// pin the strictness contract:
// unknown keys, bad enum strings, observe-only knobs and machines the
// simulator would abort on reject the whole document, and
// parse(to_json(cfg)) is the identity for every field-table entry (checked
// through the fingerprints, which hash exactly the fields the codec
// touches).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/config.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "serve/config_json.hpp"
#include "serve/http.hpp"
#include "sim/reporting.hpp"

namespace ptb::serve {
namespace {

// --- HTTP head parsing ------------------------------------------------------

TEST(HttpHead, ParsesRequestLineQueryAndHeaders) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(parse_http_head(
      "POST /v1/run?wait=1&x=2 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Ptb-Tenant: teamA\r\n"
      "Content-Length: 12\r\n"
      "\r\n",
      req, err))
      << err;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/run");
  EXPECT_EQ(req.query, "wait=1&x=2");
  EXPECT_EQ(req.query_param("wait"), "1");
  EXPECT_EQ(req.query_param("x"), "2");
  EXPECT_EQ(req.query_param("absent"), "");
  // Header names are lowercased on parse; lookup is by lowercase name.
  ASSERT_NE(req.header("x-ptb-tenant"), nullptr);
  EXPECT_EQ(*req.header("x-ptb-tenant"), "teamA");
  ASSERT_NE(req.header("content-length"), nullptr);
  EXPECT_EQ(*req.header("content-length"), "12");
  EXPECT_EQ(req.header("x-absent"), nullptr);
}

TEST(HttpHead, FlagStyleQueryKeyReadsAsOne) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(
      parse_http_head("GET /v1/jobs/j00000001?wait HTTP/1.1\r\n\r\n", req,
                      err));
  EXPECT_EQ(req.path, "/v1/jobs/j00000001");
  EXPECT_EQ(req.query_param("wait"), "1");
}

TEST(HttpHead, RejectsMalformedInput) {
  HttpRequest req;
  std::string err;
  EXPECT_FALSE(parse_http_head("", req, err));
  EXPECT_FALSE(parse_http_head("GET\r\n\r\n", req, err));
  EXPECT_FALSE(parse_http_head("GET /x\r\n\r\n", req, err));  // no version
  EXPECT_FALSE(
      parse_http_head("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", req, err));
}

TEST(HttpHead, RejectsAmbiguousBodyFraming) {
  const auto parses = [](const std::string& headers) {
    HttpRequest req;
    std::string err;
    return parse_http_head("POST /v1/run HTTP/1.1\r\n" + headers + "\r\n",
                           req, err);
  };
  EXPECT_TRUE(parses("Content-Length: 12\r\n"));
  EXPECT_TRUE(parses("Content-Length: 0\r\n"));
  EXPECT_TRUE(parses("Content-Length: 12\r\nContent-Length: 12\r\n"));
  // Content-Length is 1*DIGIT: no sign, no blank, no list.
  for (const char* bad : {"+12", "-0", "-1", "", "1 2", "0x10", "12,12"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(parses(std::string("Content-Length: ") + bad + "\r\n"));
  }
  EXPECT_FALSE(parses("Content-Length: 12\r\nContent-Length: 0\r\n"));
  EXPECT_FALSE(parses("Transfer-Encoding: chunked\r\n"));
  EXPECT_FALSE(parses("Content-Length: 5\r\nTransfer-Encoding: identity\r\n"));
}

TEST(HttpResponseRender, CarriesStatusLengthAndClose) {
  HttpResponse r;
  r.status = 404;
  r.body = "{\"error\":\"no\"}";
  const std::string wire = render_http_response(r);
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - r.body.size()), r.body);
}

// --- client response framing ------------------------------------------------

// Answers the first connection on an ephemeral loopback port with `raw`
// verbatim, then closes it; returns what http_request made of the bytes.
bool fetch_canned(const std::string& raw, HttpResponse& out,
                  std::string& err) {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(lfd, 1), 0);
  EXPECT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([lfd, &raw] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    std::string req;
    char buf[1024];
    while (req.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }
    ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
    ::close(fd);
  });
  const bool ok = http_request("127.0.0.1", ntohs(addr.sin_port), "GET", "/x",
                               "", {}, out, err);
  peer.join();
  ::close(lfd);
  return ok;
}

TEST(HttpClient, ReadsExactlyContentLengthBytes) {
  HttpResponse r;
  std::string err;
  ASSERT_TRUE(fetch_canned("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                           "Content-Length: 5\r\nConnection: close\r\n\r\n"
                           "hello",
                           r, err))
      << err;
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/plain");
  EXPECT_EQ(r.body, "hello");
}

TEST(HttpClient, RejectsTransferEncoding) {
  HttpResponse r;
  std::string err;
  EXPECT_FALSE(fetch_canned("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                            "Connection: close\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
                            r, err));
  EXPECT_NE(err.find("Transfer-Encoding"), std::string::npos) << err;
}

TEST(HttpClient, RejectsBodyShorterThanContentLength) {
  HttpResponse r;
  std::string err;
  EXPECT_FALSE(fetch_canned("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n"
                            "Connection: close\r\n\r\nhello",
                            r, err));
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

// --- enum codecs ------------------------------------------------------------

TEST(EnumCodec, RoundTripsAndRejects) {
  TechniqueKind k = TechniqueKind::kNone;
  for (const char* name : {"none", "dvfs", "dfs", "two_level",
                           "thrifty_barrier", "meeting_points"}) {
    ASSERT_TRUE(parse_enum(name, k)) << name;
    EXPECT_STREQ(enum_name(k), name);
  }
  EXPECT_FALSE(parse_enum("DVFS", k));  // strict: no case folding

  PtbPolicy p = PtbPolicy::kToAll;
  for (const char* name : {"to_all", "to_one", "dynamic"}) {
    ASSERT_TRUE(parse_enum(name, p)) << name;
    EXPECT_STREQ(enum_name(p), name);
  }
  EXPECT_FALSE(parse_enum("toall", p));
  EXPECT_STREQ(enum_name(static_cast<PtbPolicy>(9)), "?");
}

// --- SimConfig codec --------------------------------------------------------

SimConfig parse_or_die(const std::string& text) {
  SimConfig cfg;
  std::string err;
  EXPECT_TRUE(sim_config_from_json(text, cfg, err)) << err;
  return cfg;
}

// Every SimConfig leaf set to a distinct valid non-default value, so a
// dropped, duplicated or reordered field changes the FNV stream.
SimConfig every_field_set() {
  SimConfig c;
  c.num_cores = 8;
  c.core = {96, 48, 3, 5, 6, 12, 7, 9, 11, 13, 17, 14, 32768};
  c.l1i = {32768, 4, 32, 2, 10};
  c.l1d = {131072, 8, 128, 3, 20};
  c.l2 = {524288, 16, 256, 15, CoherenceProtocol::kMesi};
  c.noc = {5, 8, 2, 16, 136};
  c.mem = {250, true, 4, 16, 2048, 81, 82, 83, 31};
  c.power = {0.13, 0.61, 0.33, 25.0, 57.0, 65.0, 97.0, 41.0, 37.0, 21.0,
             49.0, 7.0, 0.17, 6, 4096, 11.0, 3.5, 6.5, 0.02, 0.03, 0.85,
             2.5};
  c.thermal = {40.0, 0.9, 21000.0};
  c.dvfs = {512, 0.93, 14.0};
  c.ptb = {true, PtbPolicy::kDynamic, 19, 5, 0.05, false, false, true, 32, 2};
  c.technique = TechniqueKind::kTwoLevel;
  c.budget_fraction = 0.55;
  c.seed = 42;
  c.max_cycles = 1'500'000;
  c.functional_warmup = false;
  c.audit_level = AuditLevel::kCheap;  // observe-only: not hashed
  c.trace = {1024, 32};                // observe-only: not hashed
  return c;
}

TEST(ConfigFingerprint, GoldensPinnedForEveryField) {
  // Recorded before the field table existed: results JSON, disk-cache keys
  // and checkpoint frames embed these hashes, so they may never move.
  SimConfig cfg = every_field_set();
  EXPECT_EQ(hex16(machine_fingerprint(cfg)), "f1faf4f004579e2b");
  EXPECT_EQ(hex16(config_fingerprint(cfg)), "03cd32e3731397f1");
  cfg.ptb.toall_redistribute = true;
  EXPECT_EQ(hex16(machine_fingerprint(cfg)), "f1faf4f004579e2b");
  EXPECT_EQ(hex16(config_fingerprint(cfg)), "edc6e3d96861d94e");
}

TEST(ConfigCodec, EmptyObjectIsTableOneDefaults) {
  const SimConfig cfg = parse_or_die("{}");
  const SimConfig defaults;
  EXPECT_EQ(config_fingerprint(cfg), config_fingerprint(defaults));
  EXPECT_EQ(machine_fingerprint(cfg), machine_fingerprint(defaults));
}

TEST(ConfigCodec, OverridesApplyAndChangeTheFingerprint) {
  const SimConfig defaults;
  const SimConfig cfg = parse_or_die(
      "{\"num_cores\":8,\"technique\":\"dvfs\",\"ptb\":{\"enabled\":true,"
      "\"policy\":\"to_one\"},\"budget_fraction\":0.5,\"seed\":7,"
      "\"max_cycles\":100000}");
  EXPECT_EQ(cfg.num_cores, 8u);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(defaults));
}

// Sets `v` to a different value the codec accepts.
void perturb(std::uint32_t& v) { v = v == 0 ? 1 : v * 2; }
void perturb(std::uint64_t& v) { v *= 2; }
void perturb(double& v) { v = v == 0.0 ? 0.25 : v / 2; }
void perturb(bool& v) { v = !v; }

template <class E>
  requires std::is_enum_v<E>
void perturb(E& v) {
  const std::size_t n = enum_names(E{}).size();
  v = static_cast<E>((static_cast<std::size_t>(v) + 1) % n);
}

void expect_round_trip(const SimConfig& cfg) {
  const std::string text = sim_config_to_json(cfg);
  SimConfig back;
  std::string err;
  ASSERT_TRUE(sim_config_from_json(text, back, err)) << err;
  EXPECT_EQ(config_fingerprint(back), config_fingerprint(cfg));
  EXPECT_EQ(machine_fingerprint(back), machine_fingerprint(cfg));
  EXPECT_EQ(sim_config_to_json(back), text) << "emission not canonical";
}

TEST(ConfigCodec, CanonicalEmissionRoundTripsEveryField) {
  // Perturb each table field alone, emit, re-parse, re-emit: the
  // fingerprints and the canonical text must both survive the loop. This
  // is the identity that makes cache addresses wire-stable.
  const SimConfig defaults;
  std::size_t machine_fields = 0, fields = 0;
  for_each_machine_field(defaults, [&](const char*, const auto&, auto...) {
    ++machine_fields;
  });
  for_each_field(defaults, [&](const char*, const auto&, auto...) {
    ++fields;
  });
  ASSERT_EQ(fields, 86u);
  for (std::size_t i = 0; i < fields; ++i) {
    SimConfig cfg;
    std::string name;
    std::size_t at = 0;
    for_each_field(cfg, [&](const char* n, auto& v, auto...) {
      if (at++ != i) return;
      name = n;
      perturb(v);
    });
    SCOPED_TRACE(name);
    EXPECT_NE(config_fingerprint(cfg), config_fingerprint(defaults));
    // Machine fields move the machine fingerprint; technique fields not.
    EXPECT_EQ(machine_fingerprint(cfg) != machine_fingerprint(defaults),
              i < machine_fields);
    expect_round_trip(cfg);
  }
  expect_round_trip(every_field_set());
}

TEST(ConfigCodec, RejectsUnknownKeysWithPositionedError) {
  SimConfig cfg;
  std::string err;
  // The classic typo the strictness exists for: silently ignoring
  // "num_core" would simulate (and cache!) the wrong machine.
  EXPECT_FALSE(sim_config_from_json("{\"num_core\":8}", cfg, err));
  EXPECT_NE(err.find("num_core"), std::string::npos) << err;
  // A knob the simulator no longer has is just another unknown key.
  EXPECT_FALSE(sim_config_from_json("{\"sim_threads\":1}", cfg, err));
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
}

TEST(ConfigCodec, RejectsObserveOnlyKnobs) {
  SimConfig cfg;
  std::string err;
  for (const char* knob : {"audit_level", "trace"}) {
    const std::string body = std::string("{\"") + knob + "\":1}";
    EXPECT_FALSE(sim_config_from_json(body, cfg, err)) << knob;
    EXPECT_NE(err.find("observe-only"), std::string::npos) << err;
  }
}

TEST(ConfigCodec, RejectsOutOfDomainValues) {
  // One row per validation rule; each names the field it rejects. Most
  // mirror a constructor assert that would otherwise abort the daemon.
  const struct {
    const char* body;
    const char* field;
  } rows[] = {
      {R"({"num_cores":0})", "config.num_cores"},
      {R"({"num_cores":33})", "config.num_cores"},
      {R"({"budget_fraction":0.0})", "config.budget_fraction"},
      {R"({"budget_fraction":1.5})", "config.budget_fraction"},
      {R"({"max_cycles":0})", "config.max_cycles"},
      {R"({"technique":"warp_drive"})", "config.technique"},
      {R"({"core":{"bp_table_bytes":1000}})", "core.bp_table_bytes"},
      {R"({"l1i":{"line_bytes":48}})", "l1i.line_bytes"},
      {R"({"l1d":{"assoc":0}})", "l1d.assoc"},
      {R"({"l1d":{"size_bytes":49152}})", "l1d.size_bytes"},
      {R"({"l2":{"assoc":3}})", "l2.size_bytes_per_core"},
      {R"({"noc":{"flit_bytes":0}})", "noc.flit_bytes"},
      {R"({"noc":{"link_flits_per_cycle":0}})", "noc.link_flits_per_cycle"},
      {R"({"mem":{"channels":0}})", "mem.channels"},
      {R"({"mem":{"banks_per_channel":0}})", "mem.banks_per_channel"},
      {R"({"mem":{"banked":true,"row_bytes":32}})", "mem.row_bytes"},
      {R"({"power":{"kmeans_groups":0}})", "power.kmeans_groups"},
      {R"({"power":{"ptht_entries":1000}})", "power.ptht_entries"},
      {R"({"ptb":{"enabled":true,"token_wire_bits":17}})",
       "ptb.token_wire_bits"},
      {R"({"ptb":{"gate_spinners":true,"spin_gate_period":0}})",
       "ptb.spin_gate_period"},
      // Legal-but-huge sizes: at most 16x the Table 1 default.
      {R"({"core":{"bp_table_bytes":2097152}})", "core.bp_table_bytes"},
      {R"({"l1i":{"size_bytes":2097152}})", "l1i.size_bytes"},
      {R"({"l1d":{"size_bytes":2097152}})", "l1d.size_bytes"},
      {R"({"l2":{"size_bytes_per_core":33554432}})", "l2.size_bytes_per_core"},
      {R"({"power":{"ptht_entries":2147483648}})", "power.ptht_entries"},
      {R"({"ptb":{"wire_latency_override":4294967295}})",
       "ptb.wire_latency_override"},
  };
  for (const auto& row : rows) {
    SimConfig cfg;
    std::string err;
    EXPECT_FALSE(sim_config_from_json(row.body, cfg, err)) << row.body;
    EXPECT_EQ(err.rfind(std::string(row.field) + ": ", 0), 0u)
        << row.body << " -> " << err;
  }
  // Conditional rules bind only where the simulator uses the field; the
  // caps admit their bound itself.
  for (const char* ok : {R"({"mem":{"row_bytes":32}})",
                         R"({"ptb":{"token_wire_bits":0}})",
                         R"({"ptb":{"spin_gate_period":0}})",
                         R"({"power":{"ptht_entries":131072}})",
                         R"({"ptb":{"wire_latency_override":1024}})"}) {
    parse_or_die(ok);
  }
}

// --- run / sweep request parsing --------------------------------------------

json::Value parse_doc(const std::string& text) {
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(text, doc, err)) << err;
  return doc;
}

TEST(RunRequestParse, AcceptsSuiteBenchmarkWithDefaults) {
  RunRequest req;
  std::string err;
  ASSERT_TRUE(
      parse_run_request(parse_doc("{\"benchmark\":\"fft\"}"), req, err))
      << err;
  EXPECT_EQ(req.benchmark, "fft");
  EXPECT_EQ(config_fingerprint(req.config),
            config_fingerprint(SimConfig{}));
}

TEST(RunRequestParse, RejectsUnknownBenchmark) {
  // benchmark_by_name aborts on unknown names — the codec must catch this
  // at parse time so a bad request can never take the daemon down.
  RunRequest req;
  std::string err;
  EXPECT_FALSE(parse_run_request(
      parse_doc("{\"benchmark\":\"no_such_bench\"}"), req, err));
  EXPECT_NE(err.find("no_such_bench"), std::string::npos) << err;
}

TEST(RunRequestParse, RejectsMissingBenchmarkAndBadConfig) {
  RunRequest req;
  std::string err;
  EXPECT_FALSE(parse_run_request(parse_doc("{}"), req, err));
  EXPECT_FALSE(parse_run_request(
      parse_doc("{\"benchmark\":\"fft\",\"config\":{\"bogus\":1}}"), req,
      err));
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

TEST(SweepRequestParse, ParsesRequestListAndPositionsErrors) {
  std::vector<RunRequest> reqs;
  std::string err;
  ASSERT_TRUE(parse_sweep_request(
      parse_doc("{\"requests\":[{\"benchmark\":\"fft\"},"
                "{\"benchmark\":\"radix\"}]}"),
      reqs, err))
      << err;
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].benchmark, "fft");
  EXPECT_EQ(reqs[1].benchmark, "radix");

  reqs.clear();
  EXPECT_FALSE(parse_sweep_request(parse_doc("{\"requests\":[]}"), reqs,
                                   err));
  EXPECT_FALSE(parse_sweep_request(
      parse_doc("{\"requests\":[{\"benchmark\":\"fft\"},"
                "{\"benchmark\":\"nope\"}]}"),
      reqs, err));
  // Errors name the failing entry so a sweep client can fix the right one.
  EXPECT_NE(err.find("requests[1]"), std::string::npos) << err;
}

}  // namespace
}  // namespace ptb::serve
