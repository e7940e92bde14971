#include "serve/server.hpp"

#include <utility>

#include "common/format.hpp"
#include "common/json.hpp"

namespace ptb::serve {

namespace {

HttpResponse error_response(int status, const std::string& message) {
  HttpResponse r;
  r.status = status;
  r.body = "{\"error\":\"" + json::escape(message) + "\"}";
  return r;
}

std::string tenant_of(const HttpRequest& req) {
  const std::string* t = req.header("x-ptb-tenant");
  return t == nullptr || t->empty() ? "default" : *t;
}

bool want_wait(const HttpRequest& req) {
  return req.query_param("wait") == "1";
}

std::string submitted_json(const Service::Submitted& s) {
  std::string out = "{\"job\":\"" + s.job_id + "\",\"keys\":[";
  for (std::size_t i = 0; i < s.unit_keys.size(); ++i) {
    if (i) out += ",";
    out += "\"" + s.unit_keys[i] + "\"";
  }
  out += "]}";
  return out;
}

}  // namespace

Server::Server(ServiceOptions service_opts, std::string listen_addr,
               std::uint16_t port, unsigned http_threads)
    : service_(std::move(service_opts)),
      http_(std::move(listen_addr), port, http_threads,
            [this](const HttpRequest& req) { return handle(req); }) {
  http_.set_latency_hook(
      [this](double ms) { service_.record_http_request(ms); });
}

bool Server::start(std::string& err) { return http_.start(err); }

void Server::stop() {
  // Order matters for ?wait=1 requests: close the accept side first (no
  // new requests), then drain the service — failing the queued units
  // releases every handler blocked in Service::wait on an HTTP worker —
  // and only then join the workers. Joining first would hold stop() until
  // every queued unit had simulated.
  http_.stop_accepting();
  service_.stop();  // drain in-flight simulations, fail queued
  http_.stop();
}

HttpResponse Server::handle(const HttpRequest& req) {
  SpanRecorder& rec = service_.spans();
  TraceCtx ctx;
  const double t0 = req.ingress_ms > 0.0 ? req.ingress_ms : now_ms();
  ctx.trace_id = rec.begin_trace();
  ctx.root_span = rec.next_span_id();

  HttpResponse resp = dispatch(req, ctx);

  if (req.parsed_ms > 0.0) {
    // Head+body read/decode, attributed from the transport's stamps
    // (absent when the request was hand-built in a test).
    ServeSpan parse;
    parse.trace_id = ctx.trace_id;
    parse.span_id = rec.next_span_id();
    parse.parent_id = ctx.root_span;
    parse.name = "parse";
    parse.start_ms = t0;
    parse.end_ms = req.parsed_ms;
    service_.close_span(std::move(parse));
  }
  ServeSpan root;
  root.trace_id = ctx.trace_id;
  root.span_id = ctx.root_span;
  root.parent_id = 0;
  root.name = "request";
  root.start_ms = t0;
  root.end_ms = now_ms();
  root.note =
      req.method + " " + req.path + " -> " + std::to_string(resp.status);
  service_.close_span(std::move(root));
  resp.headers.emplace_back("X-Ptb-Trace", hex16(ctx.trace_id));
  return resp;
}

HttpResponse Server::dispatch(const HttpRequest& req,
                              const TraceCtx& ctx) {
  // --- POST /v1/run ------------------------------------------------------
  if (req.path == "/v1/run" || req.path == "/v1/sweep") {
    if (req.method != "POST") return error_response(405, "POST required");
    json::Value doc;
    std::string err;
    if (!json::parse(req.body, doc, err)) {
      return error_response(400, "bad JSON: " + err);
    }
    std::vector<RunRequest> requests;
    if (req.path == "/v1/run") {
      RunRequest one;
      if (!parse_run_request(doc, one, err)) return error_response(400, err);
      requests.push_back(std::move(one));
    } else {
      if (!parse_sweep_request(doc, requests, err)) {
        return error_response(400, err);
      }
    }

    // A waited job's units keep their bytes until unit_result() below
    // takes them; an async job's keep none (its client reads
    // GET /v1/results/{key}).
    const bool waited = want_wait(req);
    Service::Submitted submitted;
    if (!service_.submit(tenant_of(req), std::move(requests), submitted, err,
                         ctx, waited)) {
      return error_response(err == "queue full" ? 429 : 503, err);
    }
    if (!waited) {
      HttpResponse r;
      r.status = 202;
      r.body = submitted_json(submitted);
      r.headers.emplace_back("X-Ptb-Job", submitted.job_id);
      return r;
    }

    service_.wait(submitted.job_id);
    if (req.path == "/v1/run") {
      std::string payload;
      bool hit = false;
      if (!service_.unit_result(submitted.job_id, 0, payload, hit)) {
        return error_response(503, "run failed (service draining?)");
      }
      HttpResponse r;
      r.body = std::move(payload);  // the artifact bytes, verbatim
      r.headers.emplace_back("X-Ptb-Cache", hit ? "hit" : "miss");
      r.headers.emplace_back("X-Ptb-Job", submitted.job_id);
      r.headers.emplace_back("X-Ptb-Key", submitted.unit_keys[0]);
      return r;
    }
    // Sweep, synchronous: every artifact embedded verbatim (each is a
    // complete JSON document).
    std::string body = "{\"job\":\"" + submitted.job_id + "\",\"results\":[";
    for (std::size_t i = 0; i < submitted.unit_keys.size(); ++i) {
      std::string payload;
      bool hit = false;
      if (!service_.unit_result(submitted.job_id, i, payload, hit)) {
        return error_response(503, "sweep unit failed (service draining?)");
      }
      if (i) body += ",";
      body += "{\"key\":\"" + submitted.unit_keys[i] + "\",\"cache\":\"";
      body += hit ? "hit" : "miss";
      body += "\",\"artifact\":" + payload + "}";
    }
    body += "]}";
    HttpResponse r;
    r.body = std::move(body);
    r.headers.emplace_back("X-Ptb-Job", submitted.job_id);
    return r;
  }

  // --- GET /v1/jobs/{id} -------------------------------------------------
  if (req.path.rfind("/v1/jobs/", 0) == 0) {
    if (req.method != "GET") return error_response(405, "GET required");
    const std::string id = req.path.substr(9);
    const std::string status = service_.job_status_json(id);
    if (status.empty()) return error_response(404, "unknown job '" + id +
                                                       "'");
    HttpResponse r;
    r.body = status;
    return r;
  }

  // --- GET /v1/results/{key} ---------------------------------------------
  if (req.path.rfind("/v1/results/", 0) == 0) {
    if (req.method != "GET") return error_response(405, "GET required");
    const std::string key = req.path.substr(12);
    std::string payload;
    if (!service_.result_payload(key, payload)) {
      return error_response(404, "no cached result for key '" + key + "'");
    }
    HttpResponse r;
    r.body = std::move(payload);
    r.headers.emplace_back("X-Ptb-Cache", "hit");
    return r;
  }

  // --- GET /v1/trace -----------------------------------------------------
  if (req.path == "/v1/trace") {
    if (req.method != "GET") return error_response(405, "GET required");
    HttpResponse r;
    r.body = spans_chrome_json(service_.spans().snapshot());
    return r;
  }

  // --- GET /metrics ------------------------------------------------------
  if (req.path == "/metrics") {
    if (req.method != "GET") return error_response(405, "GET required");
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4";
    r.body = service_.metrics_text();
    return r;
  }

  // --- GET /healthz ------------------------------------------------------
  if (req.path == "/healthz") {
    if (req.method != "GET") return error_response(405, "GET required");
    HttpResponse r;
    r.body = "{\"ok\":true}";
    return r;
  }

  return error_response(404, "no route for '" + req.path + "'");
}

}  // namespace ptb::serve
