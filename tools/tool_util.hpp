// Shared plumbing for the ptb-* command-line tools: whole-file output with
// '-' as stdout (files go through common/file.hpp). Command lines parse
// through common/flags.hpp. Tools stay dependency-free (no simulation
// code) — keep this header that way too.
#pragma once

#include <cstdio>
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

}  // namespace ptb::tools
