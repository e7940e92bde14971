// AccessLog: one structured JSON line per completed HTTP request, behind
// ptb-serve's --log-file/--log-level flags. Off by default (no file, no
// cost — every call site is an enabled() check); when on, serve/server.cpp
// writes lines like
//
//   {"ts_ms":123.4,"trace":"000000000000002a","tenant":"default",
//    "method":"POST","path":"/v1/run","query":"wait=1","status":200,
//    "dur_ms":12.8,"cache":"miss","job":"j00000001","tokens_held":1,
//    "stages":{"parse":0.1,"queue_wait":0.4,"simulate":11.9}}
//
// Levels: error logs only status >= 400; info (default) logs every
// request; debug adds the per-stage duration object. `ts_ms` is the serve
// plane's monotonic now_ms() timebase — the same clock as spans and the
// /metrics latency histograms, so log lines, spans and histograms
// correlate exactly (it is NOT wall-clock time of day; the daemon's
// result path never reads a calendar clock).
//
// Thread-safety: write_line() may be called from any transport thread;
// lines are appended atomically under a mutex and flushed per line, so a
// tail -f (or the smoke script's JSON check) always sees whole records.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

#include "common/thread_annotations.hpp"

namespace ptb::serve {

enum class LogLevel : std::uint8_t { kError, kInfo, kDebug };

/// Wire names, indexed by enumerator value (see enum_name / parse_enum).
inline std::span<const char* const> enum_names(LogLevel) {
  static constexpr const char* kNames[] = {"error", "info", "debug"};
  return kNames;
}

class AccessLog {
 public:
  AccessLog() = default;  // disabled
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Opens `path` for appending ("-" = stderr). False with `err` set when
  /// the file cannot be opened — the daemon refuses to start rather than
  /// silently not logging.
  bool open(const std::string& path, LogLevel level, std::string& err);

  bool enabled() const { return file_ != nullptr; }
  LogLevel level() const { return level_; }
  /// Whether a request with this status should be logged at the
  /// configured level.
  bool should_log(int status) const {
    return enabled() && (level_ != LogLevel::kError || status >= 400);
  }

  /// Appends one complete JSON line (the caller builds the document; the
  /// trailing newline is added here) and flushes.
  void write_line(std::string_view json);

 private:
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;  // stderr is borrowed, files are owned
  LogLevel level_ = LogLevel::kInfo;
  Mutex mu_;
};

}  // namespace ptb::serve
