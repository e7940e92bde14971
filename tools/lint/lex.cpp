#include "lint/lex.hpp"

#include <algorithm>
#include <cctype>

#include "common/file.hpp"

namespace ptblint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-char operators lexed as one token, longest match first.
constexpr const char* kOps3[] = {"<<=", ">>=", "...", "->*"};
constexpr const char* kOps2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                                 ">=", "==", "!=", "&&", "||", "+=", "-=",
                                 "*=", "/=", "%=", "&=", "|=", "^="};

// Parses "ptb-lint: directive(args)" or "ptb-lint: directive" out of a
// comment body; also the legacy "lint:allowed-wallclock".
bool parse_marker(std::string_view body, Marker& m) {
  const std::size_t legacy = body.find("lint:allowed-wallclock");
  const std::size_t tag = body.find("ptb-lint:");
  if (tag == std::string_view::npos) {
    if (legacy == std::string_view::npos) return false;
    m.directive = "allow";
    m.args = "wallclock";
    return true;
  }
  std::size_t i = tag + 9;
  while (i < body.size() && body[i] == ' ') ++i;
  std::size_t d0 = i;
  while (i < body.size() && (ident_char(body[i]) || body[i] == '-')) ++i;
  if (i == d0) return false;
  m.directive.assign(body.substr(d0, i - d0));
  m.args.clear();
  while (i < body.size() && body[i] == ' ') ++i;
  if (i < body.size() && body[i] == '(') {
    const std::size_t close = body.find(')', i);
    if (close != std::string_view::npos) {
      m.args.assign(body.substr(i + 1, close - i - 1));
    }
  }
  return true;
}

void note_marker(SourceFile& out, const Marker& m, int next_code_line_hint) {
  out.markers.push_back(m);
  if (m.directive != "allow") return;
  // allow(a, b) suppresses checks a and b; allow() suppresses everything.
  const int line = m.own_line ? next_code_line_hint : m.line;
  std::string args = m.args;
  if (args.empty()) {
    out.allow_lines[""].insert(line);
    return;
  }
  std::size_t i = 0;
  while (i < args.size()) {
    while (i < args.size() && (args[i] == ' ' || args[i] == ',')) ++i;
    std::size_t a0 = i;
    while (i < args.size() && args[i] != ',' && args[i] != ' ') ++i;
    if (i > a0) out.allow_lines[args.substr(a0, i - a0)].insert(line);
  }
}

}  // namespace

bool SourceFile::allowed(std::string_view check, int line) const {
  const auto hit = [&](std::string_view key) {
    const auto it = allow_lines.find(key);
    return it != allow_lines.end() && it->second.count(line) != 0;
  };
  return hit(check) || hit("");
}

bool SourceFile::has_marker(std::string_view directive) const {
  for (const Marker& m : markers) {
    if (m.directive == directive) return true;
  }
  return false;
}

void lex(std::string_view s, SourceFile& out) {
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = s.size();
  bool line_has_code = false;
  // Own-line allow markers bind to the next line that carries code (the
  // NOLINTNEXTLINE convention); they queue here until that line appears.
  std::vector<Marker> pending_allows;

  const auto on_code = [&]() {
    if (!pending_allows.empty()) {
      for (const Marker& m : pending_allows) note_marker(out, m, line);
      pending_allows.clear();
    }
    line_has_code = true;
  };

  const auto handle_comment = [&](std::string_view body, int at_line,
                                  bool own) {
    Marker m;
    if (!parse_marker(body, m)) return;
    m.line = at_line;
    m.own_line = own;
    if (m.directive == "allow" && own) {
      pending_allows.push_back(m);  // binds to the next code line
    } else {
      note_marker(out, m, at_line);
    }
  };

  const auto expand_allow_blocks = [&]() {
    // allow-begin(checks) ... allow-end suppresses every line in between
    // (inclusive), for multi-line justified exemptions like a switch whose
    // every arm touches the exempted state.
    const std::size_t count = out.markers.size();
    for (std::size_t b = 0; b < count; ++b) {
      if (out.markers[b].directive != "allow-begin") continue;
      int end_line = out.markers[b].line;
      for (std::size_t e = b + 1; e < count; ++e) {
        if (out.markers[e].directive == "allow-end" &&
            out.markers[e].line >= end_line) {
          end_line = out.markers[e].line;
          break;
        }
      }
      Marker span = out.markers[b];
      span.directive = "allow";
      span.own_line = false;
      for (int l = out.markers[b].line; l <= end_line; ++l) {
        span.line = l;
        note_marker(out, span, l);
      }
    }
  };

  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Line continuation.
    if (c == '\\' && i + 1 < n && (s[i + 1] == '\n' || s[i + 1] == '\r')) {
      i += (i + 2 <= n && s[i + 1] == '\r' && i + 2 < n && s[i + 2] == '\n')
               ? 3
               : 2;
      ++line;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && s[i + 1] == '/') {
      std::size_t e = i + 2;
      while (e < n && s[e] != '\n') ++e;
      handle_comment(s.substr(i + 2, e - i - 2), line, !line_has_code);
      i = e;
      continue;
    }
    if (c == '/' && i + 1 < n && s[i + 1] == '*') {
      const int at = line;
      const bool own = !line_has_code;
      std::size_t e = i + 2;
      while (e + 1 < n && !(s[e] == '*' && s[e + 1] == '/')) {
        if (s[e] == '\n') ++line;
        ++e;
      }
      handle_comment(s.substr(i + 2, e - i - 2), at, own);
      i = (e + 1 < n) ? e + 2 : n;
      continue;
    }
    // Preprocessor directives: consume the (possibly continued) line.
    // #include/#define bodies never feed the checks (call sites do).
    if (c == '#' && !line_has_code) {
      std::size_t e = i;
      while (e < n && s[e] != '\n') {
        if (s[e] == '\\' && e + 1 < n && s[e + 1] == '\n') {
          ++line;
          e += 2;
          continue;
        }
        ++e;
      }
      i = e;
      continue;
    }
    // String literals (incl. raw strings; prefix idents were already
    // emitted as tokens and are harmless).
    if (c == '"') {
      on_code();
      const bool raw = !out.tokens.empty() &&
                       out.tokens.back().kind == Tok::kIdent &&
                       (out.tokens.back().text == "R" ||
                        (out.tokens.back().text.size() <= 3 &&
                         out.tokens.back().text.back() == 'R'));
      std::size_t e = i + 1;
      std::string text;
      if (raw) {
        std::size_t d = e;
        while (d < n && s[d] != '(') ++d;
        const std::string delim =
            ")" + std::string(s.substr(e, d - e)) + "\"";
        const std::size_t close = s.find(delim, d);
        const std::size_t end =
            close == std::string_view::npos ? n : close + delim.size();
        const std::size_t body = d < n ? d + 1 : n;
        text.assign(s.substr(body, std::min(close, n) - body));
        const int start_line = line;
        for (std::size_t k = i; k < end && k < n; ++k) {
          if (s[k] == '\n') ++line;
        }
        out.tokens.push_back({Tok::kString, std::move(text), start_line});
        i = end;
        continue;
      } else {
        while (e < n && s[e] != '"' && s[e] != '\n') {
          if (s[e] == '\\' && e + 1 < n) ++e;
          ++e;
        }
        text.assign(s.substr(i + 1, e - i - 1));
        if (e < n && s[e] == '"') ++e;
      }
      out.tokens.push_back({Tok::kString, std::move(text), line});
      i = e;
      continue;
    }
    if (c == '\'' && !(i > 0 && ident_char(s[i - 1]))) {
      // Char literal (digit separators never reach here: the number lexer
      // consumes them).
      on_code();
      std::size_t e = i + 1;
      while (e < n && s[e] != '\'' && s[e] != '\n') {
        if (s[e] == '\\' && e + 1 < n) ++e;
        ++e;
      }
      out.tokens.push_back(
          {Tok::kChar, std::string(s.substr(i + 1, e - i - 1)), line});
      i = (e < n && s[e] == '\'') ? e + 1 : e;
      continue;
    }
    if (ident_start(c)) {
      on_code();
      std::size_t e = i + 1;
      while (e < n && ident_char(s[e])) ++e;
      out.tokens.push_back(
          {Tok::kIdent, std::string(s.substr(i, e - i)), line});
      i = e;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
      on_code();
      std::size_t e = i;
      while (e < n) {
        const char d = s[e];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++e;
          continue;
        }
        if ((d == '+' || d == '-') && e > i &&
            (s[e - 1] == 'e' || s[e - 1] == 'E' || s[e - 1] == 'p' ||
             s[e - 1] == 'P')) {
          ++e;
          continue;
        }
        break;
      }
      out.tokens.push_back(
          {Tok::kNumber, std::string(s.substr(i, e - i)), line});
      i = e;
      continue;
    }
    // Punctuation: longest-match multi-char operators.
    on_code();
    std::string op(1, c);
    for (const char* cand : kOps3) {
      if (i + 3 <= n && s.substr(i, 3) == cand) {
        op = cand;
        break;
      }
    }
    if (op.size() == 1) {
      for (const char* cand : kOps2) {
        if (i + 2 <= n && s.substr(i, 2) == cand) {
          op = cand;
          break;
        }
      }
    }
    out.tokens.push_back({Tok::kPunct, op, line});
    i += op.size();
  }
  expand_allow_blocks();
}

bool lex_file(const std::string& path, const std::string& rel,
              SourceFile& out) {
  std::string text;
  if (!ptb::read_file(path, text)) return false;
  out.path = path;
  out.rel = rel;
  lex(text, out);
  return true;
}

}  // namespace ptblint
