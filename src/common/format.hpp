// Locale-pinned number formatting. printf-family float formatting honors
// LC_NUMERIC's decimal separator, so a host application that calls
// setlocale() would silently change every dumped number ("12,34" instead of
// "12.34") and break cross-machine diffs of summaries, stats dumps and JSON
// documents. These helpers are the single formatting path for all exported
// floats: they format via snprintf and then pin the decimal separator back
// to '.', so output bytes are identical under any locale. hex16 /
// parse_hex16 are the one spelling of 64-bit keys and fingerprints.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace ptb {

namespace detail {
/// In a printf "%f"/"%g" rendering, the only locale-dependent byte is the
/// decimal separator; everything else is digits, sign, or exponent markers.
/// Pin any separator byte back to '.'.
inline void pin_decimal_point(char* buf) {
  for (char* p = buf; *p != '\0'; ++p) {
    const char c = *p;
    const bool invariant = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                           c == 'e' || c == 'E' || c == '.' || c == 'i' ||
                           c == 'n' || c == 'f' || c == 'a';  // inf / nan
    if (!invariant) *p = '.';
  }
}
}  // namespace detail

/// Fixed-precision rendering: "12.34" / "-3.10". Locale-independent.
inline std::string format_fixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  detail::pin_decimal_point(buf);
  return buf;
}

/// Round-trippable shortest-ish rendering (%.17g) for machine-readable
/// dumps (JSON, stats). Locale-independent.
inline std::string format_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  detail::pin_decimal_point(buf);
  return buf;
}

/// Fixed-width lowercase hex of a run key or fingerprint: 16 digits,
/// zero-padded ("00000000deadbeef").
inline std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Strict inverse of hex16: exactly 16 lowercase hex digits, else false
/// (`out` untouched).
inline bool parse_hex16(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  out = v;
  return true;
}

}  // namespace ptb
