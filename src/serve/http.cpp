#include "serve/http.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/assert.hpp"

// ptb-lint: allow-begin(wallclock) -- transport layer: request latency
// measurement and socket timeouts are host concerns; simulation results
// never flow through these clocks. See DESIGN.md "Service plane".
#include <chrono>
// ptb-lint: allow-end

namespace ptb::serve {

namespace {

// Hard limits on a single request: a service fronting a socket must bound
// what an arbitrary peer can make it buffer.
constexpr std::size_t kMaxHeadBytes = 16 * 1024;
constexpr std::size_t kMaxBodyBytes = 1 * 1024 * 1024;
constexpr std::size_t kMaxHeaders = 100;
constexpr std::size_t kMaxQueuedConnections = 1024;
constexpr int kAcceptPollMs = 100;
// Bounds each send/recv, and a request's head and body together: a peer
// that trickles bytes cannot hold a worker past it.
constexpr int kIoTimeoutSec = 10;

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

/// A Content-Length value: decimal digits with no overflow. False on
/// anything else.
bool parse_content_length(const std::string& value, unsigned long long& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(value.c_str(), &end, 10);
  return errno == 0 && end != value.c_str() && *end == '\0';
}

void set_io_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kIoTimeoutSec;
  tv.tv_usec = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Sends the whole buffer (MSG_NOSIGNAL: a peer that hung up must not
/// SIGPIPE the daemon). False on any error or timeout.
bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Appends the next bytes from `fd` to `buf`. False on EOF, on error, or
/// once now_ms() passes `deadline_ms`.
bool recv_more(int fd, std::string& buf, double deadline_ms) {
  char chunk[4096];
  while (true) {
    const double left_ms = deadline_ms - now_ms();
    if (left_ms <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

/// Reads until `buf` contains the blank line ending the head, or until the
/// limit/EOF/deadline. Returns the offset just past "\r\n\r\n", or npos on
/// failure.
std::size_t read_head(int fd, std::string& buf, double deadline_ms) {
  while (true) {
    const std::size_t mark = buf.find("\r\n\r\n");
    if (mark != std::string::npos) return mark + 4;
    if (buf.size() > kMaxHeadBytes || !recv_more(fd, buf, deadline_ms))
      return std::string::npos;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Request/response plumbing
// ---------------------------------------------------------------------------

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return &v;
  }
  return nullptr;
}

std::string HttpRequest::query_param(std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      if (pair == key) return "1";  // flag-style "?wait"
    } else if (pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return "";
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool parse_http_head(std::string_view head, HttpRequest& out,
                     std::string& err) {
  HttpRequest req;
  std::size_t pos = 0;
  const auto next_line = [&](std::string_view& line) {
    const std::size_t nl = head.find("\r\n", pos);
    if (nl == std::string_view::npos) return false;
    line = head.substr(pos, nl - pos);
    pos = nl + 2;
    return true;
  };

  std::string_view request_line;
  if (!next_line(request_line)) {
    err = "missing request line";
    return false;
  }
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    err = "malformed request line";
    return false;
  }
  req.method = std::string(request_line.substr(0, sp1));
  std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (req.method.empty() || target.empty() || target[0] != '/') {
    err = "malformed request target";
    return false;
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    err = "unsupported HTTP version";
    return false;
  }
  const std::size_t qmark = target.find('?');
  if (qmark == std::string_view::npos) {
    req.path = std::string(target);
  } else {
    req.path = std::string(target.substr(0, qmark));
    req.query = std::string(target.substr(qmark + 1));
  }

  while (pos < head.size()) {
    std::string_view line;
    if (!next_line(line)) {
      err = "unterminated header line";
      return false;
    }
    if (line.empty()) break;  // blank line: end of head
    if (req.headers.size() >= kMaxHeaders) {
      err = "too many headers";
      return false;
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      err = "malformed header line";
      return false;
    }
    req.headers.emplace_back(lower(trim(line.substr(0, colon))),
                             std::string(trim(line.substr(colon + 1))));
  }
  // Body framing: Content-Length only, 1*DIGIT, every copy the same.
  const std::string* length = nullptr;
  for (const auto& [name, value] : req.headers) {
    if (name == "transfer-encoding") {
      err = "transfer-encoding not supported";
      return false;
    }
    if (name != "content-length") continue;
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos ||
        (length != nullptr && *length != value)) {
      err = "bad content-length";
      return false;
    }
    length = &value;
  }
  out = std::move(req);
  return true;
}

std::string render_http_response(const HttpResponse& r) {
  std::string out = "HTTP/1.1 " + std::to_string(r.status) + " ";
  out += http_status_reason(r.status);
  out += "\r\nContent-Type: " + r.content_type;
  out += "\r\nContent-Length: " + std::to_string(r.body.size());
  out += "\r\nConnection: close";
  for (const auto& [k, v] : r.headers) {
    out += "\r\n" + k + ": " + v;
  }
  out += "\r\n\r\n";
  out += r.body;
  return out;
}

// ptb-lint: allow-begin(wallclock) -- the single wall-clock read site of
// the serve subsystem: host-side latency metrics only.
double now_ms() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double, std::milli>(t).count();
}
// ptb-lint: allow-end

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

HttpServer::HttpServer(std::string listen_addr, std::uint16_t port,
                       unsigned workers, Handler handler)
    : listen_addr_(std::move(listen_addr)),
      requested_port_(port),
      num_workers_(workers == 0 ? 1 : workers),
      handler_(std::move(handler)) {
  PTB_ASSERT(handler_ != nullptr, "HttpServer requires a handler");
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(std::string& err) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(requested_port_);
  if (::inet_pton(AF_INET, listen_addr_.c_str(), &addr.sin_addr) != 1) {
    err = "invalid listen address '" + listen_addr_ + "'";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    err = "bind " + listen_addr_ + ":" + std::to_string(requested_port_) +
          ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 512) != 0) {
    err = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  stop_.store(false);
  accept_joined_.store(false);
  workers_joined_.store(false);
  acceptor_ = std::thread([this] { accept_loop(); });
  workers_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  return true;
}

void HttpServer::stop_accepting() {
  stop_.store(true);
  if (accept_joined_.exchange(true)) {
    // thread::join on a joined thread would throw — only the transition
    // owner of each phase tears it down (same idiom below for workers).
    return;
  }
  // Wake the acceptor now rather than at its next poll timeout: stop()
  // drains the service only after this returns, and queued work would
  // otherwise keep starting for up to kAcceptPollMs.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
}

void HttpServer::stop() {
  stop_accepting();
  if (workers_joined_.exchange(true)) return;
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::accept_loop() {
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, kAcceptPollMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) continue;  // timeout: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    set_io_timeouts(fd);
    bool enqueued = false;
    {
      MutexLock lock(mu_);
      if (pending_.size() < kMaxQueuedConnections) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Overloaded: shed the connection with a 503 rather than letting it
      // time out in limbo.
      HttpResponse busy;
      busy.status = 503;
      busy.body = "{\"error\":\"connection queue full\"}";
      send_all(fd, render_http_response(busy));
      ::close(fd);
    }
  }
}

void HttpServer::worker_loop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(mu_);
      // Explicit wait loop, not the predicate overload — a predicate
      // lambda is analyzed as its own function by -Wthread-safety and
      // would not be known to hold mu_ (same idiom as RunPool).
      while (pending_.empty() && !draining_) {
        queue_cv_.wait(lock);
      }
      if (pending_.empty()) return;  // draining and nothing left
      fd = pending_.front();
      pending_.pop_front();
    }
    handle_connection(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  const double t0 = now_ms();
  const double deadline_ms = t0 + kIoTimeoutSec * 1000.0;
  std::string buf;
  HttpResponse resp;
  HttpRequest req;
  bool have_request = false;

  const std::size_t body_off = read_head(fd, buf, deadline_ms);
  if (body_off == std::string::npos) {
    resp.status = buf.size() > kMaxHeadBytes ? 413 : 400;
    resp.body = "{\"error\":\"malformed or oversized request head\"}";
  } else {
    std::string err;
    if (!parse_http_head(std::string_view(buf).substr(0, body_off), req,
                         err)) {
      resp.status = 400;
      resp.body = "{\"error\":\"" + err + "\"}";
    } else {
      std::size_t content_length = 0;
      const std::string* cl = req.header("content-length");
      if (cl != nullptr) {
        unsigned long long v = 0;
        const bool parsed = parse_content_length(*cl, v);
        if (!parsed || v > kMaxBodyBytes) {
          resp.status = parsed ? 413 : 400;
          resp.body = "{\"error\":\"bad content-length\"}";
          send_all(fd, render_http_response(resp));
          ::close(fd);
          return;
        }
        content_length = static_cast<std::size_t>(v);
      }
      bool complete = true;
      while (complete && buf.size() < body_off + content_length)
        complete = recv_more(fd, buf, deadline_ms);
      if (!complete) {
        resp.status = 400;
        resp.body = "{\"error\":\"truncated request body\"}";
      } else {
        req.body = buf.substr(body_off, content_length);
        req.ingress_ms = t0;
        req.parsed_ms = now_ms();
        have_request = true;
      }
    }
  }

  if (have_request) {
    resp = handler_(req);
  }
  send_all(fd, render_http_response(resp));
  ::close(fd);
  if (latency_hook_) latency_hook_(now_ms() - t0);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

bool http_request(const std::string& host, std::uint16_t port,
                  const std::string& method, const std::string& target,
                  const std::string& body,
                  const std::vector<std::pair<std::string, std::string>>&
                      extra_headers,
                  HttpResponse& out, std::string& err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  set_io_timeouts(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    err = "invalid host address '" + host + "'";
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    err = "connect " + host + ":" + std::to_string(port) + ": " +
          std::strerror(errno);
    ::close(fd);
    return false;
  }

  std::string req = method + " " + target + " HTTP/1.1\r\n";
  req += "Host: " + host + "\r\n";
  req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "Connection: close\r\n";
  for (const auto& [k, v] : extra_headers) {
    req += k + ": " + v + "\r\n";
  }
  req += "\r\n";
  req += body;
  if (!send_all(fd, req)) {
    err = "send failed";
    ::close(fd);
    return false;
  }

  // Connection: close — the response is everything until EOF.
  std::string raw;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      err = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    err = "malformed response (no head terminator)";
    return false;
  }
  const std::size_t status_line_end = raw.find("\r\n");
  const std::string status_line = raw.substr(0, status_line_end);
  // "HTTP/1.1 200 OK"
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos || sp + 4 > status_line.size()) {
    err = "malformed status line";
    return false;
  }
  HttpResponse resp;
  resp.status = std::atoi(status_line.c_str() + sp + 1);
  bool has_length = false;
  std::string content_length;
  std::size_t pos = status_line_end + 2;
  while (pos < head_end) {
    const std::size_t nl = raw.find("\r\n", pos);
    const std::string line = raw.substr(pos, nl - pos);
    pos = nl + 2;
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = lower(trim(std::string_view(line).substr(0,
                                                                      colon)));
    const std::string value(trim(std::string_view(line).substr(colon + 1)));
    if (name == "transfer-encoding") {
      err = "unsupported Transfer-Encoding '" + value + "'";
      return false;
    }
    if (name == "content-type") {
      resp.content_type = value;
    } else {
      if (name == "content-length") {
        has_length = true;
        content_length = value;
      }
      resp.headers.emplace_back(name, value);
    }
  }
  resp.body = raw.substr(head_end + 4);
  if (has_length) {
    unsigned long long v = 0;
    if (!parse_content_length(content_length, v)) {
      err = "bad Content-Length '" + content_length + "'";
      return false;
    }
    if (v > resp.body.size()) {
      err = "truncated response body (" + std::to_string(resp.body.size()) +
            " of " + std::to_string(v) + " bytes)";
      return false;
    }
    resp.body.resize(static_cast<std::size_t>(v));
  }
  out = std::move(resp);
  return true;
}

}  // namespace ptb::serve
