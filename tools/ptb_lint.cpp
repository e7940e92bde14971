// ptb-lint: contract checks for the PTB simulator tree.
//
//   ptb-lint [--root DIR] [--checks a,b,...] [--list] [files...]
//
// With --root pointing at the repository (the default, "."), scans the
// result-path trees src/, bench/ and examples/; with --root pointing at
// any other directory (e.g. the lint fixtures), scans it recursively.
// Explicit file arguments replace the directory walk entirely.
//
// Output is one `path:line: [check] message` per finding; exit status is
// 0 (clean), 1 (findings) or 2 (usage/IO error) — the same protocol as
// scripts/lint.sh, which runs this binary as its section 4.
//
// The why and the checker matrix live in DESIGN.md ("Static analysis");
// the frontend trade-off (dependency-free lexer instead of clang-tooling,
// so the checks run on the clang-less build/CI hosts) is documented in
// tools/lint/lex.hpp.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "lint/checks.hpp"
#include "lint/lex.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h" ||
         ext == ".cxx" || ext == ".hxx";
}

void collect_dir(const fs::path& dir, const fs::path& root,
                 std::vector<std::pair<std::string, std::string>>& files) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || !lintable(it->path())) continue;
    files.push_back({it->path().string(),
                     it->path().lexically_relative(root).generic_string()});
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::set<std::string> enabled;
  bool list_only = false;
  bool help = false;
  const auto& checks = ptblint::all_checks();
  const std::vector<ptb::FlagRow> rows = {
      {"--root", "", "DIR",
       {"tree to scan (default .); a repository root scans only",
        "src/, bench/ and examples/"},
       ptb::flag_string(root)},
      {"--checks", "", "a,b,...", {"run only the named checks"},
       {[&](std::string_view csv) {
          for (std::size_t p = 0; p <= csv.size();) {
            const std::size_t comma = std::min(csv.find(',', p), csv.size());
            const std::string_view name = csv.substr(p, comma - p);
            p = comma + 1;
            if (!name.empty() &&
                std::none_of(checks.begin(), checks.end(),
                             [&](const auto& c) { return name == c.name; })) {
              return false;
            }
            if (!name.empty()) enabled.emplace(name);
          }
          return !enabled.empty();
        },
        "a comma list of check names from --list"}},
      {"--list", "", "", {"print the checks and exit"},
       ptb::flag_switch(list_only)},
      {"--help", "-h", "", {"print this help and exit"},
       ptb::flag_switch(help)},
  };
  const ptb::FlagParse parsed = ptb::parse_flags(rows, argc, argv);
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "ptb-lint: %s\n", parsed.error.c_str());
    return 2;
  }
  if (help) {
    std::printf("usage: ptb-lint [OPTIONS] [files...]\n%s",
                ptb::usage_rows(rows).c_str());
    return 0;
  }
  if (list_only) {
    for (const ptblint::CheckInfo& c : checks) {
      std::printf("%-16s %s\n", c.name, c.summary);
    }
    return 0;
  }
  const std::vector<std::string>& explicit_files = parsed.positional;

  // Build the file list: explicit args win; otherwise the repo result-path
  // trees when --root looks like the repository, else the whole root.
  std::vector<std::pair<std::string, std::string>> paths;  // abs, rel
  const fs::path rootp(root);
  if (!explicit_files.empty()) {
    for (const std::string& f : explicit_files) {
      paths.push_back({f, fs::path(f).lexically_relative(rootp)
                              .generic_string()});
    }
  } else if (fs::is_directory(rootp / "src")) {
    for (const char* sub : {"src", "bench", "examples"}) {
      if (fs::is_directory(rootp / sub)) collect_dir(rootp / sub, rootp, paths);
    }
  } else if (fs::is_directory(rootp)) {
    collect_dir(rootp, rootp, paths);
  } else {
    std::fprintf(stderr, "ptb-lint: root '%s' is not a directory\n",
                 root.c_str());
    return 2;
  }
  std::sort(paths.begin(), paths.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  ptblint::Corpus corpus;
  corpus.files.reserve(paths.size());
  for (const auto& [abs, rel] : paths) {
    ptblint::SourceFile f;
    if (!ptblint::lex_file(abs, rel.empty() ? abs : rel, f)) {
      std::fprintf(stderr, "ptb-lint: cannot read '%s'\n", abs.c_str());
      return 2;
    }
    corpus.files.push_back(std::move(f));
  }

  std::vector<ptblint::Finding> findings;
  for (const ptblint::CheckInfo& c : checks) {
    if (!enabled.empty() && enabled.count(c.name) == 0) continue;
    c.fn(corpus, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const ptblint::Finding& a, const ptblint::Finding& b) {
              if (a.rel != b.rel) return a.rel < b.rel;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });

  for (const ptblint::Finding& f : findings) {
    std::printf("%s:%d: [%s] %s\n", f.rel.c_str(), f.line, f.check.c_str(),
                f.message.c_str());
  }
  if (findings.empty()) {
    std::fprintf(stderr, "ptb-lint: %zu files scanned, clean\n",
                 corpus.files.size());
    return 0;
  }
  std::fprintf(stderr, "ptb-lint: %zu finding(s) in %zu files scanned\n",
               findings.size(), corpus.files.size());
  return 1;
}
