// Serve-plane span log: the request-scoped tracing record of the ptb-serve
// daemon (src/serve/span.hpp records into it; `ptb-trace serve` renders it).
//
// A span is one timed stage of one HTTP request — parse, queue_wait,
// admission_wait, cache_probe, simulate, serialize, cache_publish — hung
// under a per-request root span ("request") by parent id. Spans share the
// trace id minted at HTTP ingress, so a whole request reads as a single
// tree even though its stages execute on transport and simulation-worker
// threads alike.
//
// This lives in the trace library (not src/serve) deliberately: the log is
// a pure data model with the trace subsystem's byte-stable little-endian
// serialization and corrupt-rejecting deserialization (common/bytes.hpp
// frame idiom — magic, version, bounds-checked lengths, no trailing
// bytes), and the `ptb-trace` CLI must be able to read it without linking
// the simulator or the HTTP stack.
//
// Timestamps are serve/http.cpp now_ms() milliseconds — monotonic host
// time, the service plane's single sanctioned wall-clock site. Spans
// observe requests only; no simulation result ever flows through them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ptb {

/// One completed stage of one request. parent_id 0 marks a root span.
struct ServeSpan {
  std::uint64_t trace_id = 0;  // minted per request at HTTP ingress
  std::uint32_t span_id = 0;   // unique within one recorder's lifetime
  std::uint32_t parent_id = 0;
  double start_ms = 0.0;  // now_ms() timebase (monotonic host ms)
  double end_ms = 0.0;
  std::string name;  // stage: "request", "parse", "simulate", ...
  std::string note;  // detail: "hit", "fft", "POST /v1/run -> 200", ...
};

/// A bounded recorder's snapshot: the retained spans (completion order —
/// reconstruct trees via parent_id, not position) plus drop accounting.
struct ServeSpanLog {
  static constexpr std::uint32_t kFormatVersion = 1;

  std::uint64_t emitted = 0;  // spans ever emitted (>= spans.size())
  std::uint64_t dropped = 0;  // oldest spans overwritten by the ring
  std::vector<ServeSpan> spans;

  /// Byte-stable serialization: equal logical state -> equal bytes.
  std::string serialize() const;
  /// Strict inverse: wrong magic/version, truncated input, implausible
  /// lengths or trailing bytes all reject (false, `out` untouched).
  static bool deserialize(std::string_view bytes, ServeSpanLog& out);

  bool save(const std::string& path) const;
  static bool load(const std::string& path, ServeSpanLog& out);
};

/// Chrome trace-event / Perfetto JSON: one process, one thread track per
/// trace id (first-seen order), every span a complete "X" event with
/// ts/dur in microseconds (now_ms x 1000). Load the output in
/// https://ui.perfetto.dev to see each request as a tree of stage slices.
std::string serve_spans_chrome_json(const ServeSpanLog& log);

}  // namespace ptb
