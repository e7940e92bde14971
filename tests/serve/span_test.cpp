// Serve-plane tracing containers (serve/span.hpp): the SpanRecorder ring
// (bounded, thread-safe, drop-accounted), id minting, and the Perfetto
// rendering GET /v1/trace serves. The end-to-end span *content* (what a
// real request records) is covered in serve_e2e_test.cpp; this file pins
// the container semantics.
#include "serve/span.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

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

TEST(SpanRecorder, RingKeepsNewestAndCountsDrops) {
  SpanRecorder rec(3);
  for (std::uint32_t i = 1; i <= 5; ++i) {
    rec.emit(span(1, i, 0, "request", i, i + 1.0));
  }
  const SpanSnapshot snap = rec.snapshot();
  EXPECT_EQ(snap.emitted, 5u);
  EXPECT_EQ(snap.dropped, 2u);
  ASSERT_EQ(snap.spans.size(), 3u);
  // Oldest dropped first: spans 3,4,5 survive in emission order.
  EXPECT_EQ(snap.spans[0].span_id, 3u);
  EXPECT_EQ(snap.spans[2].span_id, 5u);
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

  const SpanSnapshot snap = rec.snapshot();
  ASSERT_EQ(snap.spans.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.dropped, 0u);
  std::vector<bool> seen_span(kThreads * kPerThread + 1, false);
  std::vector<bool> seen_trace(kThreads * kPerThread + 1, false);
  for (const ServeSpan& s : snap.spans) {
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
  SpanSnapshot snap;
  snap.emitted = 3;
  snap.spans.push_back(span(9, 2, 1, "simulate", 1.0, 2.0, "fft"));
  snap.spans.push_back(
      span(9, 1, 0, "request", 0.5, 2.5, "POST /v1/run -> 200"));
  snap.spans.push_back(span(12, 3, 0, "request", 3.0, 4.0));

  snap.dropped = 1;
  const std::string json = spans_chrome_json(snap);
  json::Value doc;
  std::string err;
  ASSERT_TRUE(json::parse(json, doc, err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Drop accounting rides in otherData.
  EXPECT_NE(json.find("\"otherData\":{\"spans_emitted\":3,"
                      "\"spans_dropped\":1}"),
            std::string::npos)
      << json;
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
