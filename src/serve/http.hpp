// Dependency-free embedded HTTP/1.1 server (and a tiny blocking client for
// the tests and shell harnesses): a blocking accept loop feeding a bounded
// connection queue drained by a fixed pool of worker threads, one request
// per connection (`Connection: close` — the serve workload is dominated by
// simulation time, so keep-alive buys nothing and costs connection state).
//
// This is the transport only: it parses requests, enforces size limits, and
// hands a complete HttpRequest to the registered handler; routing, JSON and
// all simulation semantics live in serve/server.{hpp,cpp}. Graceful stop:
// stop() closes the listening socket, lets the workers finish every already
// accepted connection, and joins all threads.
//
// Host wall-clock: a server legitimately reads host time (request latency
// metrics, socket timeouts). Every such read is confined to now_ms() below
// and lint-exempted with a justification — see scripts/lint.sh and the
// DESIGN.md "Service plane" section. Nothing here can reach simulation
// results: the simulator consumes only (profile, config, seed).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace ptb::serve {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/v1/run" (query string stripped)
  std::string query;   // "wait=1" (raw, no leading '?')
  std::vector<std::pair<std::string, std::string>> headers;  // names lowered
  std::string body;

  // Host-monotonic timestamps (now_ms()) stamped by the transport so the
  // routing layer can attribute a "parse" span without its own clock reads:
  // ingress is the accept-to-handler pickup instant, parsed is just after
  // the head+body were read and decoded. Zero when the request was built by
  // hand (unit tests) rather than read off a socket.
  double ingress_ms = 0.0;
  double parsed_ms = 0.0;

  /// First header with this (lowercase) name; null when absent.
  const std::string* header(std::string_view name) const;
  /// Value of `key` in the query string ("" when absent; flag-style keys
  /// like "?wait" yield "1").
  std::string query_param(std::string_view key) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;  // extras
  std::string body;
};

/// Standard reason phrase for the handful of statuses the service emits.
const char* http_status_reason(int status);

/// Parses a request head (request line + header lines, no body) as read off
/// the wire up to the blank line. Exposed for the unit tests; the server
/// uses it. Returns false on malformed input, including body framing the
/// server does not accept: a Transfer-Encoding header, a Content-Length
/// that is not 1*DIGIT, or two Content-Length headers that differ.
bool parse_http_head(std::string_view head, HttpRequest& out,
                     std::string& err);

/// Serializes a response (adds Content-Length and Connection: close).
std::string render_http_response(const HttpResponse& r);

/// Monotonic host milliseconds for latency measurement — the single
/// wall-clock read site of the serve subsystem.
double now_ms();

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// `port` 0 asks the kernel for an ephemeral port (see port()).
  HttpServer(std::string listen_addr, std::uint16_t port, unsigned workers,
             Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the acceptor + worker threads. False (with
  /// `err` set) when the address cannot be bound.
  bool start(std::string& err);

  /// First half of stop(): closes the accept side only — joins the
  /// acceptor thread so no new connections arrive, but leaves the workers
  /// running so in-flight requests (a `?wait=1` handler blocked on its
  /// job) can still observe state changes made between this call and
  /// stop().
  /// Idempotent; stop() calls it implicitly.
  void stop_accepting();

  /// Graceful: stop accepting, drain already-accepted connections, join.
  /// Idempotent.
  void stop();

  /// The actually bound port (resolves port 0).
  std::uint16_t port() const { return bound_port_; }

  /// Optional per-request latency hook (milliseconds, parse + handler +
  /// write). Set before start(); called from worker threads.
  void set_latency_hook(std::function<void(double)> hook) {
    latency_hook_ = std::move(hook);
  }

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);

  std::string listen_addr_;
  std::uint16_t requested_port_;
  std::uint16_t bound_port_ = 0;
  unsigned num_workers_;
  Handler handler_;
  std::function<void(double)> latency_hook_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> accept_joined_{false};
  std::atomic<bool> workers_joined_{false};

  Mutex mu_;
  std::condition_variable_any queue_cv_;
  std::deque<int> pending_ PTB_GUARDED_BY(mu_);  // accepted, unhandled fds
  bool draining_ PTB_GUARDED_BY(mu_) = false;

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

/// Minimal blocking HTTP/1.1 client (Connection: close): one request, reads
/// to EOF. The body is the first Content-Length bytes after the head (all
/// of it when the header is absent). For the tests and in-repo harnesses
/// only. Returns false with `err` set on connect/IO/parse failure, on a
/// Transfer-Encoding response (the server never sends one) and on a body
/// shorter than its Content-Length.
bool http_request(const std::string& host, std::uint16_t port,
                  const std::string& method, const std::string& target,
                  const std::string& body,
                  const std::vector<std::pair<std::string, std::string>>&
                      extra_headers,
                  HttpResponse& out, std::string& err);

}  // namespace ptb::serve
