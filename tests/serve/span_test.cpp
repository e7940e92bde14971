// Serve-plane tracing data model and recorder: ServeSpanLog round-trip and
// corrupt-rejection (trace/serve_span.hpp — the byte-stable frame idiom of
// the trace subsystem) plus the SpanRecorder ring (serve/span.hpp —
// bounded, thread-safe, drop-accounted). The end-to-end span *content*
// (what a real request records) is covered in serve_e2e_test.cpp; this
// file pins the container semantics.
#include "serve/span.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "trace/serve_span.hpp"

namespace ptb::serve {
namespace {

ServeSpan span(std::uint64_t trace, std::uint32_t id, std::uint32_t parent,
               const char* name, double t0, double t1,
               const char* note = "") {
  ServeSpan s;
  s.trace_id = trace;
  s.span_id = id;
  s.parent_id = parent;
  s.start_ms = t0;
  s.end_ms = t1;
  s.name = name;
  s.note = note;
  return s;
}

TEST(ServeSpanLog, SerializeRoundTripsEveryField) {
  ServeSpanLog log;
  log.emitted = 5;
  log.dropped = 2;
  log.spans.push_back(span(7, 2, 1, "simulate", 10.25, 42.75, "fft"));
  log.spans.push_back(
      span(7, 1, 0, "request", 10.0, 43.0, "POST /v1/run -> 200"));
  log.spans.push_back(span(8, 3, 0, "request", 50.5, 51.5));

  ServeSpanLog back;
  ASSERT_TRUE(ServeSpanLog::deserialize(log.serialize(), back));
  EXPECT_EQ(back.emitted, 5u);
  EXPECT_EQ(back.dropped, 2u);
  ASSERT_EQ(back.spans.size(), 3u);
  EXPECT_EQ(back.spans[0].trace_id, 7u);
  EXPECT_EQ(back.spans[0].span_id, 2u);
  EXPECT_EQ(back.spans[0].parent_id, 1u);
  EXPECT_EQ(back.spans[0].start_ms, 10.25);
  EXPECT_EQ(back.spans[0].end_ms, 42.75);
  EXPECT_EQ(back.spans[0].name, "simulate");
  EXPECT_EQ(back.spans[0].note, "fft");
  EXPECT_EQ(back.spans[1].note, "POST /v1/run -> 200");
  EXPECT_TRUE(back.spans[2].note.empty());

  // Byte-stable: equal logical state serializes to equal bytes.
  EXPECT_EQ(log.serialize(), back.serialize());
}

TEST(ServeSpanLog, DeserializeRejectsCorruptInput) {
  ServeSpanLog log;
  log.emitted = 1;
  log.spans.push_back(span(1, 1, 0, "request", 0.0, 1.0));
  const std::string bytes = log.serialize();

  ServeSpanLog out;
  EXPECT_FALSE(ServeSpanLog::deserialize("", out));
  EXPECT_FALSE(ServeSpanLog::deserialize("not a span log", out));

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(ServeSpanLog::deserialize(wrong_magic, out));

  std::string wrong_version = bytes;
  wrong_version[8] = static_cast<char>(0x7f);
  EXPECT_FALSE(ServeSpanLog::deserialize(wrong_version, out));

  // Every truncation point rejects — no partial parse is ever accepted.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        ServeSpanLog::deserialize(std::string_view(bytes).substr(0, cut),
                                  out))
        << "accepted a prefix of " << cut << " bytes";
  }
  EXPECT_FALSE(ServeSpanLog::deserialize(bytes + "x", out))
      << "trailing bytes must reject";

  // An implausible span count (larger than the remaining bytes could ever
  // hold) must reject before reserving memory.
  std::string huge_count = bytes.substr(0, 8 + 4 + 8 + 8);
  for (int i = 0; i < 8; ++i) huge_count += static_cast<char>(0xff);
  EXPECT_FALSE(ServeSpanLog::deserialize(huge_count, out));
}

TEST(ServeSpanLog, SaveLoadRoundTripsThroughDisk) {
  ServeSpanLog log;
  log.emitted = 2;
  log.spans.push_back(span(1, 1, 0, "request", 0.0, 1.0, "GET /healthz"));
  log.spans.push_back(span(1, 2, 1, "parse", 0.0, 0.5));

  const std::string path = testing::TempDir() + "/ptb_serve_span_log_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(log.save(path));
  ServeSpanLog back;
  ASSERT_TRUE(ServeSpanLog::load(path, back));
  EXPECT_EQ(back.serialize(), log.serialize());
  EXPECT_FALSE(ServeSpanLog::load(path + ".does-not-exist", back));
}

TEST(SpanRecorder, RingKeepsNewestAndCountsDrops) {
  SpanRecorder rec(3);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    rec.emit(span(1, i, 0, "request", i, i + 1.0));
  }
  const ServeSpanLog log = rec.snapshot();
  EXPECT_EQ(log.emitted, 5u);
  EXPECT_EQ(log.dropped, 2u);
  ASSERT_EQ(log.spans.size(), 3u);
  // Oldest dropped first: spans 3,4,5 survive in emission order.
  EXPECT_EQ(log.spans[0].span_id, 3u);
  EXPECT_EQ(log.spans[2].span_id, 5u);
}

TEST(SpanRecorder, IdsAreUniqueAcrossThreads) {
  SpanRecorder rec(1024);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t trace = rec.begin_trace();
        rec.emit(span(trace, rec.next_span_id(), 0, "request", 0.0, 1.0));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const ServeSpanLog log = rec.snapshot();
  ASSERT_EQ(log.spans.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(log.dropped, 0u);
  std::vector<bool> seen_span(kThreads * kPerThread + 1, false);
  std::vector<bool> seen_trace(kThreads * kPerThread + 1, false);
  for (const ServeSpan& s : log.spans) {
    ASSERT_GE(s.span_id, 1u);
    ASSERT_LE(s.span_id, static_cast<std::uint32_t>(kThreads * kPerThread));
    EXPECT_FALSE(seen_span[s.span_id]) << "duplicate span id " << s.span_id;
    seen_span[s.span_id] = true;
    ASSERT_GE(s.trace_id, 1u);
    ASSERT_LE(s.trace_id,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_FALSE(seen_trace[s.trace_id]) << "duplicate trace " << s.trace_id;
    seen_trace[s.trace_id] = true;
  }
}

TEST(ServeSpanChromeJson, RendersTracksAndCompleteEvents) {
  ServeSpanLog log;
  log.emitted = 3;
  log.spans.push_back(span(9, 2, 1, "simulate", 1.0, 2.0, "fft"));
  log.spans.push_back(
      span(9, 1, 0, "request", 0.5, 2.5, "POST /v1/run -> 200"));
  log.spans.push_back(span(12, 3, 0, "request", 3.0, 4.0));

  const std::string json = serve_spans_chrome_json(log);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  // Track label carries the trace id and the root note.
  EXPECT_NE(json.find("trace 0000000000000009 POST /v1/run -> 200"),
            std::string::npos)
      << json;
  // Complete events in microseconds: 1.0ms -> ts 1000.000.
  EXPECT_NE(json.find("\"name\":\"simulate\",\"ph\":\"X\",\"pid\":0,"
                      "\"tid\":1,\"ts\":1000.000,\"dur\":1000.000"),
            std::string::npos)
      << json;
  // Parent linkage is preserved in args; second trace gets its own track.
  EXPECT_NE(json.find("\"span\":2,\"parent\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

}  // namespace
}  // namespace ptb::serve
