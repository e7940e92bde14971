// Shared plumbing for the ptb-* command-line tools: whole-file output with
// '-' as stdout (files go through common/file.hpp), and small
// argument-parsing helpers. Tools stay dependency-free (no simulation
// code) — keep this header that way too.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/file.hpp"

namespace ptb::tools {

/// Writes `text` to `path` (atomically, via write_file); '-' writes to
/// stdout. Returns false when the file is not writable.
inline bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  return write_file(path, text);
}

/// Strict double parse (whole string must consume); false on garbage.
inline bool parse_double_arg(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

/// Strict u64 parse; false on garbage.
inline bool parse_u64_arg(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

/// Strict unsigned parse; false on garbage.
inline bool parse_u32_arg(const char* s, std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace ptb::tools
