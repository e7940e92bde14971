#include "trace/serve_span.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "common/bytes.hpp"
#include "common/file.hpp"
#include "common/format.hpp"
#include "common/json.hpp"

namespace ptb {

namespace {

// 8-byte magic + version, the trace-frame idiom (trace/trace.cpp).
constexpr char kMagic[8] = {'P', 'T', 'B', 'S', 'P', 'A', 'N', 'L'};

// Serialized floor per span (fixed fields + two empty strings): used to
// bound the span count against the remaining bytes before reserving.
constexpr std::size_t kMinSpanBytes = 8 + 4 + 4 + 8 + 8 + 4 + 4;

/// Microseconds as a decimal literal (Perfetto `ts`/`dur` unit), printed
/// with a pinned format so the export is locale-independent.
std::string usec(double ms) { return format_fixed(ms * 1000.0, 3); }

}  // namespace

std::string ServeSpanLog::serialize() const {
  ByteWriter w;
  w.raw(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u64(emitted);
  w.u64(dropped);
  w.u64(spans.size());
  for (const ServeSpan& s : spans) {
    w.u64(s.trace_id);
    w.u32(s.span_id);
    w.u32(s.parent_id);
    w.f64(s.start_ms);
    w.f64(s.end_ms);
    w.str(s.name);
    w.str(s.note);
  }
  return w.take();
}

bool ServeSpanLog::deserialize(std::string_view bytes, ServeSpanLog& out) {
  ByteReader r(bytes);
  const std::string_view magic = r.raw(sizeof(kMagic));
  if (!r.ok() || magic != std::string_view(kMagic, sizeof(kMagic))) {
    return false;
  }
  if (r.u32() != kFormatVersion) return false;
  ServeSpanLog log;
  log.emitted = r.u64();
  log.dropped = r.u64();
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining() / kMinSpanBytes) return false;
  log.spans.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ServeSpan s;
    s.trace_id = r.u64();
    s.span_id = r.u32();
    s.parent_id = r.u32();
    s.start_ms = r.f64();
    s.end_ms = r.f64();
    s.name = r.str();
    s.note = r.str();
    if (!r.ok()) return false;
    log.spans.push_back(std::move(s));
  }
  if (!r.ok() || !r.empty()) return false;  // trailing bytes: reject
  out = std::move(log);
  return true;
}

bool ServeSpanLog::save(const std::string& path) const {
  return write_file(path, serialize());
}

bool ServeSpanLog::load(const std::string& path, ServeSpanLog& out) {
  std::string bytes;
  return read_file(path, bytes) && deserialize(bytes, out);
}

std::string serve_spans_chrome_json(const ServeSpanLog& log) {
  // One Perfetto thread track per trace id, in first-seen (completion)
  // order, so concurrent requests render side by side. The track label
  // carries the root span's note (method/route/status) when present.
  std::map<std::uint64_t, std::uint32_t> tid_of;
  std::map<std::uint64_t, std::string> label_of;
  for (const ServeSpan& s : log.spans) {
    if (tid_of.find(s.trace_id) == tid_of.end()) {
      tid_of[s.trace_id] = static_cast<std::uint32_t>(tid_of.size()) + 1;
    }
    if (s.parent_id == 0 && !s.note.empty()) label_of[s.trace_id] = s.note;
  }

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"ptb-serve (ts = host ms)\"}}";
  for (const auto& [trace_id, tid] : tid_of) {
    std::string label = "trace " + hex16(trace_id);
    const auto l = label_of.find(trace_id);
    if (l != label_of.end()) label += " " + l->second;
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
        << tid << ",\"args\":{\"name\":\"" << json::escape(label) << "\"}}";
  }
  for (const ServeSpan& s : log.spans) {
    out << ",\n{\"name\":\"" << json::escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << tid_of[s.trace_id]
        << ",\"ts\":" << usec(s.start_ms)
        << ",\"dur\":" << usec(s.end_ms - s.start_ms)
        << ",\"args\":{\"trace\":\"" << hex16(s.trace_id)
        << "\",\"span\":" << s.span_id << ",\"parent\":" << s.parent_id;
    if (!s.note.empty()) out << ",\"note\":\"" << json::escape(s.note) << "\"";
    out << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace ptb
