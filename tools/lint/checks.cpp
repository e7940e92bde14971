#include "lint/checks.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

namespace ptblint {

namespace {

using Tokens = std::vector<Token>;

bool is_keyword(std::string_view s) {
  static const std::set<std::string, std::less<>> kw = {
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "decltype", "constexpr",
      "noexcept", "new",      "delete",   "throw",    "static_assert",
      "alignas",  "typeid",   "co_await", "co_yield", "co_return"};
  return kw.count(s) != 0;
}

/// Index of the matching closer for the opener at `i` (e.g. '(' -> ')'),
/// or ts.size() when unbalanced. `>>` counts as two angle closers.
std::size_t match(const Tokens& ts, std::size_t i, std::string_view open,
                  std::string_view close) {
  int depth = 0;
  for (std::size_t k = i; k < ts.size(); ++k) {
    if (ts[k].kind != Tok::kPunct) continue;
    if (ts[k].text == open) {
      ++depth;
    } else if (ts[k].text == close) {
      if (--depth == 0) return k;
    } else if (open == "<" && ts[k].text == ">>") {
      depth -= 2;
      if (depth <= 0) return k;
    }
  }
  return ts.size();
}

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}
bool is_ident(const Token& t, std::string_view s) {
  return t.kind == Tok::kIdent && t.text == s;
}

void add(std::vector<Finding>& out, const SourceFile& f, int line,
         std::string check, std::string message) {
  if (f.allowed(check, line)) return;
  out.push_back({f.rel, line, std::move(check), std::move(message)});
}

// ---------------------------------------------------------------------------
// unordered-iter: iteration over std::unordered_{map,set} in result paths.
// Hash-table iteration order is libstdc++-internal and salt/size dependent;
// anything it feeds (stats, traces, replay order) silently loses run-to-run
// and toolchain-to-toolchain determinism. Lookups (find/count/operator[])
// are fine; range-for and .begin() are not. The container names are
// collected corpus-wide (headers declare members that .cpp files iterate).
// ---------------------------------------------------------------------------

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

std::set<std::string> collect_unordered_names(const Corpus& corpus) {
  std::set<std::string> names;
  for (const SourceFile& f : corpus.files) {
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].kind != Tok::kIdent || kUnorderedTypes.count(ts[i].text) == 0)
        continue;
      if (!is_punct(ts[i + 1], "<")) continue;
      std::size_t close = match(ts, i + 1, "<", ">");
      if (close >= ts.size()) continue;
      std::size_t k = close + 1;
      while (k < ts.size() &&
             (is_punct(ts[k], "&") || is_punct(ts[k], "*") ||
              is_ident(ts[k], "const"))) {
        ++k;
      }
      if (k + 1 >= ts.size() || ts[k].kind != Tok::kIdent) continue;
      // Variable (member/local/param) declarations only — a following
      // '(' would make it a function returning the container.
      const Token& after = ts[k + 1];
      if (is_punct(after, ";") || is_punct(after, "=") ||
          is_punct(after, "{") || is_punct(after, ",") ||
          is_punct(after, ")")) {
        names.insert(ts[k].text);
      }
    }
  }
  return names;
}

void check_unordered_iter(const Corpus& corpus, std::vector<Finding>& out) {
  const std::set<std::string> names = collect_unordered_names(corpus);
  if (names.empty()) return;
  for (const SourceFile& f : corpus.files) {
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      // Range-for whose range expression mentions an unordered container.
      if (is_ident(ts[i], "for") && is_punct(ts[i + 1], "(")) {
        const std::size_t close = match(ts, i + 1, "(", ")");
        if (close >= ts.size()) continue;
        bool classic = false;
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (ts[k].kind != Tok::kPunct) continue;
          if (ts[k].text == "(" || ts[k].text == "[") ++depth;
          else if (ts[k].text == ")" || ts[k].text == "]") --depth;
          else if (depth == 0 && ts[k].text == ";") classic = true;
          else if (depth == 0 && ts[k].text == ":" && colon == 0) colon = k;
        }
        if (classic || colon == 0) continue;
        for (std::size_t k = colon + 1; k < close; ++k) {
          if (ts[k].kind == Tok::kIdent && names.count(ts[k].text) != 0) {
            add(out, f, ts[k].line, "unordered-iter",
                "range-for over unordered container '" + ts[k].text +
                    "': hash-table order is not deterministic across "
                    "runs/toolchains; iterate a sorted copy or an ordered "
                    "container in result paths");
            break;
          }
        }
      }
      // Explicit iterator walk: var.begin() / var.cbegin().
      if (i + 3 < ts.size() && ts[i].kind == Tok::kIdent &&
          names.count(ts[i].text) != 0 &&
          (is_punct(ts[i + 1], ".") || is_punct(ts[i + 1], "->")) &&
          (is_ident(ts[i + 2], "begin") || is_ident(ts[i + 2], "cbegin")) &&
          is_punct(ts[i + 3], "(")) {
        add(out, f, ts[i].line, "unordered-iter",
            "iterator walk over unordered container '" + ts[i].text +
                "' (.begin()): hash-table order is not deterministic; "
                "find()/count() lookups are fine, ordered traversal is not");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fp-accum: scalar floating-point reduction loops in cycle-loop files
// (marked `ptb-lint: cycle-loop-file`). Cross-core reductions there must go
// through deterministic_total() (core/balancer.hpp) so every CMP-wide total
// uses one association order; an ad-hoc `sum += arr[i]` loop fixes
// one association order lexically today but invites a parallel-friendly
// "optimization" tomorrow. Indexed targets (per-core state like acc[i])
// are exempt — they are element-wise updates, not reductions.
// ---------------------------------------------------------------------------

std::set<std::string> collect_double_names(const Corpus& corpus) {
  std::set<std::string> names;
  for (const SourceFile& f : corpus.files) {
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (!is_ident(ts[i], "double") && !is_ident(ts[i], "float")) continue;
      std::size_t k = i + 1;
      while (k < ts.size() &&
             (is_punct(ts[k], "&") || is_punct(ts[k], "*") ||
              is_ident(ts[k], "const"))) {
        ++k;
      }
      if (k + 1 >= ts.size() || ts[k].kind != Tok::kIdent) continue;
      const Token& after = ts[k + 1];
      if (is_punct(after, ";") || is_punct(after, "=") ||
          is_punct(after, "{") || is_punct(after, ",") ||
          is_punct(after, ")")) {
        names.insert(ts[k].text);
      }
    }
  }
  return names;
}

void scan_loop_body(const SourceFile& f, const std::set<std::string>& doubles,
                    std::size_t begin, std::size_t end,
                    std::vector<Finding>& out) {
  const Tokens& ts = f.tokens;
  for (std::size_t k = begin; k < end; ++k) {
    if (!is_punct(ts[k], "+=") || k == begin) continue;
    const Token& target = ts[k - 1];
    if (target.kind != Tok::kIdent || doubles.count(target.text) == 0)
      continue;
    // RHS up to ';': a subscripted element read marks an element-indexed
    // reduction (the shape deterministic_total exists for).
    bool indexed_rhs = false;
    for (std::size_t r = k + 1; r < end && !is_punct(ts[r], ";"); ++r) {
      if (ts[r].kind == Tok::kIdent && r + 1 < end &&
          is_punct(ts[r + 1], "[")) {
        indexed_rhs = true;
        break;
      }
    }
    if (!indexed_rhs) continue;
    add(out, f, target.line, "fp-accum",
        "floating-point reduction '" + target.text +
            " += ...[i]' inside a loop in a cycle-loop file: route "
            "cross-core sums through deterministic_total() so every "
            "CMP-wide total uses one association order");
  }
}

void check_fp_accum(const Corpus& corpus, std::vector<Finding>& out) {
  const std::set<std::string> doubles = collect_double_names(corpus);
  for (const SourceFile& f : corpus.files) {
    if (!f.has_marker("cycle-loop-file")) continue;
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if ((!is_ident(ts[i], "for") && !is_ident(ts[i], "while")) ||
          !is_punct(ts[i + 1], "(")) {
        continue;
      }
      const std::size_t close = match(ts, i + 1, "(", ")");
      if (close + 1 >= ts.size()) continue;
      std::size_t body_end;
      if (is_punct(ts[close + 1], "{")) {
        body_end = match(ts, close + 1, "{", "}");
      } else {
        body_end = close + 1;
        while (body_end < ts.size() && !is_punct(ts[body_end], ";"))
          ++body_end;
      }
      if (body_end >= ts.size()) continue;
      scan_loop_body(f, doubles, close + 1, body_end, out);
    }
  }
}

// ---------------------------------------------------------------------------
// wallclock: wall-clock and entropy sources anywhere in the scanned tree.
// Simulation state may only advance on simulated time (Cycle) and the
// seeded Rng; host time/entropy leaking in destroys replayability. The
// self-profiler's steady_clock use is explicitly allow-marked at its one
// declaration site. Token-exact, so `steady_state` or `fetch_time` never
// false-positive the way a substring grep can.
// ---------------------------------------------------------------------------

void check_wallclock(const Corpus& corpus, std::vector<Finding>& out) {
  static const std::set<std::string, std::less<>> kBannedTypes = {
      "high_resolution_clock", "system_clock", "steady_clock",
      "random_device"};
  static const std::set<std::string, std::less<>> kBannedCalls = {
      "getenv",       "rand",          "srand",        "time",
      "clock",        "gettimeofday",  "clock_gettime", "timespec_get",
      "mt19937",      "mt19937_64",    "localtime",    "gmtime"};
  for (const SourceFile& f : corpus.files) {
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != Tok::kIdent) continue;
      if (kBannedTypes.count(ts[i].text) != 0) {
        add(out, f, ts[i].line, "wallclock",
            "'" + ts[i].text +
                "' is a host wall-clock/entropy source: simulation state "
                "must advance on Cycle and the seeded Rng only");
        continue;
      }
      if (kBannedCalls.count(ts[i].text) == 0) continue;
      if (i + 1 >= ts.size() || !is_punct(ts[i + 1], "(")) continue;
      // Member calls (r.time(), obj->clock()) are the project's own API,
      // not libc; qualified ::time / std::time still count.
      if (i > 0 && (is_punct(ts[i - 1], ".") || is_punct(ts[i - 1], "->")))
        continue;
      // Declarations of the project's own members that happen to share a
      // libc name (`double time() const`): the preceding token is a type
      // identifier, never so for a call (`= time(`, `::time(`, `, time(`).
      if (i > 0 && ts[i - 1].kind == Tok::kIdent &&
          !is_keyword(ts[i - 1].text)) {
        continue;
      }
      add(out, f, ts[i].line, "wallclock",
          "call to '" + ts[i].text +
              "': host time/entropy must not reach simulation or results "
              "(use Cycle / the seeded Rng)");
    }
  }
}

// ---------------------------------------------------------------------------
// Function definitions by name (the fingerprint checker reads their bodies).
// ---------------------------------------------------------------------------

struct FnDef {
  const SourceFile* file;
  std::size_t body_begin;  // token index just after '{'
  std::size_t body_end;    // token index of matching '}'
};

// Lexical function-definition extraction: `name ( ... ) [cv] {`.
// Constructors (mem-init lists) and lambdas are deliberately skipped; the
// fingerprint functions are plain free functions.
std::map<std::string, std::vector<FnDef>> build_defs(const Corpus& corpus) {
  std::map<std::string, std::vector<FnDef>> defs;
  for (const SourceFile& f : corpus.files) {
    const Tokens& ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].kind != Tok::kIdent || is_keyword(ts[i].text)) continue;
      if (!is_punct(ts[i + 1], "(")) continue;
      if (i > 0 && (is_punct(ts[i - 1], ".") || is_punct(ts[i - 1], "->")))
        continue;  // member call expression, not a definition
      const std::size_t close = match(ts, i + 1, "(", ")");
      if (close >= ts.size()) continue;
      std::size_t k = close + 1;
      while (k < ts.size() && ts[k].kind == Tok::kIdent &&
             (ts[k].text == "const" || ts[k].text == "noexcept" ||
              ts[k].text == "override" || ts[k].text == "final")) {
        ++k;
      }
      if (k >= ts.size() || !is_punct(ts[k], "{")) continue;
      const std::size_t end = match(ts, k, "{", "}");
      if (end >= ts.size()) continue;
      defs[ts[i].text].push_back({&f, k + 1, end});
    }
  }
  return defs;
}

// ---------------------------------------------------------------------------
// fingerprint: every SimConfig leaf field must either feed the FNV stream
// of machine_fingerprint/config_fingerprint or appear on the explicit
// `ptb-lint: fingerprint-exclude(...)` list next to those functions — and
// the exclusion list may not carry stale entries. This turns "we know
// audit_level is observe-only" from tribal knowledge into a checked
// invariant: adding a SimConfig field without deciding its fingerprint
// status fails the lint.
// ---------------------------------------------------------------------------

struct FieldDef {
  std::string name;
  std::string type;
  int line;  // declaration line, for reporting
};

struct StructDef {
  const SourceFile* file = nullptr;
  std::vector<FieldDef> fields;
  int line = 0;
};

std::map<std::string, StructDef> parse_structs(const SourceFile& f) {
  std::map<std::string, StructDef> structs;
  const Tokens& ts = f.tokens;
  for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
    if (!is_ident(ts[i], "struct") || ts[i + 1].kind != Tok::kIdent ||
        !is_punct(ts[i + 2], "{")) {
      continue;
    }
    StructDef sd;
    sd.file = &f;
    sd.line = ts[i].line;
    const std::size_t end = match(ts, i + 2, "{", "}");
    if (end >= ts.size()) continue;
    std::size_t stmt = i + 3;
    int depth = 0;
    bool has_paren = false;
    std::size_t first_init = 0;  // first top-level '=' or '{' in the stmt
    for (std::size_t k = i + 3; k < end; ++k) {
      if (is_punct(ts[k], "(") || is_punct(ts[k], "[")) {
        ++depth;
        if (ts[k].text == "(") has_paren = true;
      } else if (is_punct(ts[k], ")") || is_punct(ts[k], "]")) {
        --depth;
      } else if (depth == 0 && first_init == 0 &&
                 (is_punct(ts[k], "=") || is_punct(ts[k], "{"))) {
        first_init = k;
      }
      if (is_punct(ts[k], "{") && depth == 0 && first_init == k) {
        // brace initializer: skip to its close so inner ';' (lambdas
        // don't appear in configs) cannot split the statement
        const std::size_t bend = match(ts, k, "{", "}");
        if (bend < end) k = bend;
      }
      if (!(depth == 0 && is_punct(ts[k], ";"))) continue;
      // Statement [stmt, k): a data member iff no parens and it has a
      // declarator identifier.
      if (!has_paren && k > stmt) {
        const std::size_t name_at = first_init != 0 ? first_init : k;
        if (name_at > stmt && ts[name_at - 1].kind == Tok::kIdent &&
            name_at - 1 > stmt && ts[name_at - 2].kind == Tok::kIdent) {
          sd.fields.push_back({ts[name_at - 1].text, ts[name_at - 2].text,
                               ts[name_at - 1].line});
        }
      }
      stmt = k + 1;
      has_paren = false;
      first_init = 0;
    }
    structs[ts[i + 1].text] = std::move(sd);
  }
  return structs;
}

struct Leaf {
  std::string path;        // dotted path from SimConfig
  const SourceFile* file;  // declaration site, for reporting
  int line;
};

void expand_leaves(const std::map<std::string, StructDef>& structs,
                   const StructDef& sd, const std::string& prefix, int depth,
                   std::vector<Leaf>& leaves) {
  if (depth > 4) return;
  for (const FieldDef& fd : sd.fields) {
    const auto it = structs.find(fd.type);
    if (it != structs.end()) {
      expand_leaves(structs, it->second, prefix + fd.name + ".", depth + 1,
                    leaves);
    } else {
      leaves.push_back({prefix + fd.name, sd.file, fd.line});
    }
  }
}

bool has_seq(const Tokens& ts, std::size_t begin, std::size_t end,
             const std::vector<std::string>& seq) {
  for (std::size_t i = begin; i + seq.size() <= end; ++i) {
    bool ok = true;
    for (std::size_t k = 0; k < seq.size(); ++k) {
      if (ts[i + k].text != seq[k]) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

void check_fingerprint(const Corpus& corpus, std::vector<Finding>& out) {
  // Locate SimConfig (and the structs it nests) and the fingerprint
  // function bodies anywhere in the corpus.
  std::map<std::string, StructDef> structs;
  for (const SourceFile& f : corpus.files) {
    for (auto& [name, sd] : parse_structs(f)) {
      structs.emplace(name, std::move(sd));
    }
  }
  const auto sim = structs.find("SimConfig");
  if (sim == structs.end()) return;

  const std::map<std::string, std::vector<FnDef>> defs = build_defs(corpus);
  std::vector<FnDef> bodies;
  for (const char* fn : {"machine_fingerprint", "config_fingerprint"}) {
    const auto it = defs.find(fn);
    if (it == defs.end()) continue;
    bodies.insert(bodies.end(), it->second.begin(), it->second.end());
  }
  if (bodies.empty()) return;

  std::vector<Leaf> leaves;
  expand_leaves(structs, sim->second, "", 0, leaves);

  // Exclusion list: union of fingerprint-exclude(...) markers, with the
  // marker location kept for stale-entry reports.
  std::vector<std::pair<std::string, std::pair<const SourceFile*, int>>>
      exclusions;
  for (const SourceFile& f : corpus.files) {
    for (const Marker& m : f.markers) {
      if (m.directive != "fingerprint-exclude") continue;
      std::size_t i = 0;
      while (i < m.args.size()) {
        while (i < m.args.size() && (m.args[i] == ' ' || m.args[i] == ','))
          ++i;
        std::size_t a0 = i;
        while (i < m.args.size() && m.args[i] != ',' && m.args[i] != ' ')
          ++i;
        if (i > a0)
          exclusions.push_back({m.args.substr(a0, i - a0), {&f, m.line}});
      }
    }
  }

  const auto covered = [&](const std::string& leaf) {
    std::vector<std::string> path;  // split on '.'
    std::size_t p = 0;
    while (p <= leaf.size()) {
      const std::size_t dot = leaf.find('.', p);
      path.push_back(leaf.substr(p, dot - p));
      if (dot == std::string::npos) break;
      p = dot + 1;
    }
    std::vector<std::string> direct = {"cfg"};
    for (const std::string& seg : path) {
      direct.push_back(".");
      direct.push_back(seg);
    }
    for (const FnDef& b : bodies) {
      if (has_seq(b.file->tokens, b.body_begin, b.body_end, direct))
        return true;
      // Pointer-loop form: `&cfg.sub` taken into a loop variable that is
      // dereferenced as `->leaf` (the l1i/l1d CacheConfig pattern).
      if (path.size() == 2 &&
          has_seq(b.file->tokens, b.body_begin, b.body_end,
                  {"&", "cfg", ".", path[0]}) &&
          has_seq(b.file->tokens, b.body_begin, b.body_end,
                  {"->", path[1]})) {
        return true;
      }
    }
    return false;
  };

  const auto excluded = [&](const std::string& leaf) {
    for (const auto& [entry, where] : exclusions) {
      if (leaf == entry ||
          (leaf.size() > entry.size() && leaf.compare(0, entry.size(), entry) == 0 &&
           leaf[entry.size()] == '.')) {
        return true;
      }
    }
    return false;
  };

  std::set<std::string> used_entries;
  for (const Leaf& lf : leaves) {
    const bool cov = covered(lf.path);
    if (!cov && !excluded(lf.path)) {
      // Report at the field's declaration: that is where the decision to
      // hash or exclude the new knob has to be recorded.
      add(out, *lf.file, lf.line, "fingerprint",
          "SimConfig field '" + lf.path +
              "' is neither mixed into machine_/config_fingerprint nor on "
              "the fingerprint-exclude list: decide whether it can change "
              "results and record the decision");
    }
    if (!cov) {
      for (const auto& [entry, where] : exclusions) {
        if (lf.path == entry ||
            (lf.path.size() > entry.size() &&
             lf.path.compare(0, entry.size(), entry) == 0 &&
             lf.path[entry.size()] == '.')) {
          used_entries.insert(entry);
        }
      }
    }
  }
  for (const auto& [entry, where] : exclusions) {
    if (used_entries.count(entry) != 0) continue;
    add(out, *where.first, where.second, "fingerprint",
        "stale fingerprint-exclude entry '" + entry +
            "': it matches no unhashed SimConfig field (remove it, or the "
            "field it once named)");
  }
}

}  // namespace

const std::vector<CheckInfo>& all_checks() {
  static const std::vector<CheckInfo> checks = {
      {"unordered-iter",
       "hash-ordered container iteration in result paths",
       &check_unordered_iter},
      {"fp-accum",
       "cycle-loop FP reductions bypassing deterministic_total()",
       &check_fp_accum},
      {"wallclock", "host wall-clock / entropy sources",
       &check_wallclock},
      {"fingerprint",
       "SimConfig fields missing from the config fingerprint",
       &check_fingerprint},
  };
  return checks;
}

}  // namespace ptblint
