// Strict command-line flags: every tool's argv is a table of rows over the
// options struct it fills, parsed by the one parse_flags below.
//
// Grammar: `--name VALUE` and `--name=VALUE` mean the same for every row;
// the value is the next argument even when it starts with '-'. A switch
// takes no value. Any other argument starting with '-' (a bare "-" aside)
// is an unknown flag; the rest are positionals, kept in order.
//
// Strictness: a value that does not parse, or parses out of its row's
// range, is an error naming the flag — never a truncated, wrapped or
// defaulted setting. Integers are digits only (no sign, overflow
// rejected), reals finite, strings non-empty. parse_flags never exits:
// tools print "<argv0>: <error>" and exit 2; tests drive it directly.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/config.hpp"

namespace ptb {

/// How a row stores its value. `set` parses and stores it, returning false
/// (target untouched) when the value is malformed or out of range; a
/// switch's `set` is called with an empty value. `expected` describes a
/// valid value for the error message.
struct FlagBinder {
  std::function<bool(std::string_view)> set;
  std::string expected;
};

/// One row of a flag table.
struct FlagRow {
  std::string_view name;     // "--jobs"
  std::string_view alias;    // "-j", or empty
  std::string_view metavar;  // "N"; empty for a switch
  std::vector<std::string_view> help;  // usage_rows lines; empty = unlisted
  FlagBinder bind;
};

struct FlagParse {
  std::vector<std::string> positional;
  std::string error;  // empty on success
};

/// Parses argv[1..argc) against `rows` (argv[0] is the program or
/// subcommand name); more than `max_positional` positionals is an error.
/// Stops at the first error.
FlagParse parse_flags(const std::vector<FlagRow>& rows, int argc,
                      const char* const* argv,
                      std::size_t max_positional = SIZE_MAX);

/// The rows' help in ptb-serve's layout: two-space indent, "name metavar"
/// padded to column 19 (on a line of its own when longer than 16
/// characters), one help line per output line.
std::string usage_rows(const std::vector<FlagRow>& rows);

/// The whole string as a T (std::from_chars: for an unsigned T digits
/// only, no overflow); false on anything else.
template <class T>
  requires std::is_arithmetic_v<T>
bool parse_number(std::string_view s, T& out) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

FlagBinder flag_switch(bool& out);
/// Any non-empty string.
FlagBinder flag_string(std::string& out);
/// A finite real in [lo, hi] (hi may be infinity: no upper bound).
FlagBinder flag_real(double& out, double lo, double hi);

/// An unsigned integer in [lo, hi].
template <class T>
  requires std::is_unsigned_v<T>
FlagBinder flag_uint(T& out, std::type_identity_t<T> lo,
                     std::type_identity_t<T> hi) {
  return {[&out, lo, hi](std::string_view s) {
            T v{};
            if (!parse_number(s, v) || v < lo || v > hi) return false;
            out = v;
            return true;
          },
          std::to_string(lo) + ".." + std::to_string(hi)};
}

/// One of the enum's wire names (enum_names / parse_enum).
template <class E>
  requires std::is_enum_v<E>
FlagBinder flag_enum(E& out) {
  std::string expected;
  const auto names = enum_names(E{});
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) expected += i + 1 == names.size() ? " or " : ", ";
    expected += names[i];
  }
  return {[&out](std::string_view s) { return parse_enum(s, out); },
          expected};
}

}  // namespace ptb
