// Whole-file IO for every artifact the project reads back or publishes:
// disk run-cache entries, checkpoint frames, event traces, serve span logs
// and the CLI tools' inputs. One reader and one publisher, so every caller
// gets the same ferror check and the same torn-write protection.
#pragma once

#include <string>
#include <string_view>

namespace ptb {

/// Reads all of `path` (binary) into `out`. On failure returns false with
/// `out` cleared and, when `err` is given, says whether opening or reading
/// failed: "cannot open <what> '<path>'" / "read error on <what> '<path>'".
bool read_file(const std::string& path, std::string& out,
               std::string* err = nullptr, std::string_view what = "file");

/// Publishes `bytes` at `path` atomically: writes a temp file beside it
/// ("<path>.tmp.<pid>.<n>", unique per process and call, so concurrent
/// writers never clobber each other's partial file) and rename()s it into
/// place. Readers see the old file or the whole new one, never a torn
/// write. The temp is removed on any failure; `err` then names the step.
bool write_file(const std::string& path, std::string_view bytes,
                std::string* err = nullptr);

}  // namespace ptb
