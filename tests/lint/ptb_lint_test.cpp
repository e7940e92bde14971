// In-process tests for the ptb-lint frontend (tools/lint/lex.*) and the
// contract checkers (tools/lint/checks.*).
//
// The fixture protocol: every file under tests/lint/fixtures/ is a
// fault-injection specimen whose expected findings are exactly the lines
// containing the literal word FINDING (in a trailing comment). The test
// lexes the whole fixture directory as one corpus, runs every checker,
// and requires the reported (file, line) set to equal the annotated set —
// so a checker that goes quiet on its seeded violation AND a checker that
// starts firing on a calibrated negative both fail the same assertion.
//
// A second test lexes the real source tree (src/, bench/, examples/) and
// requires zero findings, pinning the calibration work: every justified
// exemption in the tree carries its allow marker, and nothing else fires.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/checks.hpp"
#include "lint/lex.hpp"

namespace fs = std::filesystem;
using ptblint::Corpus;
using ptblint::Finding;
using ptblint::SourceFile;
using ptblint::Tok;

namespace {

SourceFile lex_snippet(const std::string& text) {
  SourceFile f;
  f.path = "snippet.cpp";
  f.rel = "snippet.cpp";
  ptblint::lex(text, f);
  return f;
}

std::vector<Finding> run_all(const Corpus& corpus) {
  std::vector<Finding> out;
  for (const ptblint::CheckInfo& c : ptblint::all_checks()) {
    c.fn(corpus, out);
  }
  return out;
}

/// Sorted .cpp/.hpp paths under `root` (recursive).
std::vector<fs::path> source_files(const fs::path& root) {
  std::vector<fs::path> paths;
  if (!fs::is_directory(root)) return paths;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h" ||
        ext == ".cxx" || ext == ".hxx") {
      paths.push_back(e.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

// --- lexer -----------------------------------------------------------------

TEST(LintLex, CommentsAndStringsProduceNoTokens) {
  const SourceFile f = lex_snippet(
      "int a = 1; // trailing comment with code-like text: b = 2;\n"
      "/* block\n comment int c = 3; */\n"
      "const char* s = \"int d = 4;\";\n");
  for (const auto& t : f.tokens) {
    EXPECT_NE(t.text, "b");
    EXPECT_NE(t.text, "c");
    EXPECT_NE(t.text, "d");
  }
  // The string literal is one token, not lexed as code.
  const auto it = std::find_if(f.tokens.begin(), f.tokens.end(),
                               [](const auto& t) { return t.kind == Tok::kString; });
  ASSERT_NE(it, f.tokens.end());
  EXPECT_EQ(it->text, "int d = 4;");
}

TEST(LintLex, RawStringsAndDigitSeparators) {
  const SourceFile f = lex_snippet(
      "auto r = R\"(no \" tokens ; here)\";\n"
      "long n = 1'000'000;\n");
  const auto s = std::find_if(f.tokens.begin(), f.tokens.end(),
                              [](const auto& t) { return t.kind == Tok::kString; });
  ASSERT_NE(s, f.tokens.end());
  EXPECT_EQ(s->text, "no \" tokens ; here");
  const auto n = std::find_if(f.tokens.begin(), f.tokens.end(),
                              [](const auto& t) { return t.kind == Tok::kNumber; });
  ASSERT_NE(n, f.tokens.end());
  EXPECT_EQ(n->text, "1'000'000");
}

TEST(LintLex, MultiCharOperatorsAreSingleTokens) {
  const SourceFile f = lex_snippet("a += b->c; x <<= y; p = q ? r::s : t;\n");
  std::set<std::string> puncts;
  for (const auto& t : f.tokens) {
    if (t.kind == Tok::kPunct) puncts.insert(t.text);
  }
  EXPECT_EQ(puncts.count("+="), 1u);
  EXPECT_EQ(puncts.count("->"), 1u);
  EXPECT_EQ(puncts.count("<<="), 1u);
  EXPECT_EQ(puncts.count("::"), 1u);
}

// --- markers ---------------------------------------------------------------

TEST(LintMarkers, SameLineAllowSuppressesItsOwnLine) {
  const SourceFile f = lex_snippet(
      "int a = bad();  // ptb-lint: allow(wallclock)\n"
      "int b = bad();\n");
  EXPECT_TRUE(f.allowed("wallclock", 1));
  EXPECT_FALSE(f.allowed("wallclock", 2));
  EXPECT_FALSE(f.allowed("fp-accum", 1));  // named check only
}

TEST(LintMarkers, OwnLineAllowBindsToNextCodeLine) {
  const SourceFile f = lex_snippet(
      "// ptb-lint: allow(unordered-iter)\n"
      "// explanatory prose between marker and code\n"
      "int a = bad();\n"
      "int b = bad();\n");
  EXPECT_TRUE(f.allowed("unordered-iter", 3));
  EXPECT_FALSE(f.allowed("unordered-iter", 4));
}

TEST(LintMarkers, AllowWithoutArgsSuppressesEveryCheck) {
  const SourceFile f = lex_snippet("int a = bad();  // ptb-lint: allow()\n");
  EXPECT_TRUE(f.allowed("wallclock", 1));
  EXPECT_TRUE(f.allowed("unordered-iter", 1));
}

TEST(LintMarkers, AllowBlockCoversEveryLineInclusive) {
  const SourceFile f = lex_snippet(
      "// ptb-lint: allow-begin(unordered-iter)\n"
      "int a = bad();\n"
      "int b = bad();\n"
      "// ptb-lint: allow-end\n"
      "int c = bad();\n");
  EXPECT_TRUE(f.allowed("unordered-iter", 2));
  EXPECT_TRUE(f.allowed("unordered-iter", 3));
  EXPECT_FALSE(f.allowed("unordered-iter", 5));
}

TEST(LintMarkers, LegacyWallclockSpellingStillWorks) {
  const SourceFile f = lex_snippet(
      "auto t = steady_clock::now();  // lint:allowed-wallclock\n");
  EXPECT_TRUE(f.allowed("wallclock", 1));
}

TEST(LintMarkers, MarkerInsideStringLiteralIsNotAMarker) {
  const SourceFile f = lex_snippet(
      "const char* doc = \"// ptb-lint: allow(wallclock)\";\n");
  EXPECT_FALSE(f.allowed("wallclock", 1));
  EXPECT_TRUE(f.markers.empty());
}

TEST(LintMarkers, RegionAndFileMarkersAreRecorded) {
  const SourceFile f = lex_snippet(
      "// ptb-lint: cycle-loop-file\n"
      "// ptb-lint: allow-begin(wallclock)\n"
      "// ptb-lint: allow-end\n");
  EXPECT_TRUE(f.has_marker("cycle-loop-file"));
  EXPECT_TRUE(f.has_marker("allow-begin"));
  // Source-order markers first; the lexer appends the expanded block
  // allows after them.
  ASSERT_GE(f.markers.size(), 3u);
  EXPECT_EQ(f.markers[1].args, "wallclock");
  EXPECT_EQ(f.markers[2].directive, "allow-end");
}

// --- fixtures: every annotated line fires, nothing else does ---------------

TEST(LintFixtures, FindingsMatchAnnotatedLinesExactly) {
  const fs::path dir = PTB_LINT_FIXTURE_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;

  Corpus corpus;
  std::map<std::string, std::set<int>> expected;  // rel -> FINDING lines
  for (const fs::path& p : source_files(dir)) {
    const std::string rel = p.filename().string();
    SourceFile f;
    ASSERT_TRUE(ptblint::lex_file(p.string(), rel, f)) << p;
    corpus.files.push_back(std::move(f));

    std::ifstream in(p);
    std::string line;
    int ln = 0;
    while (std::getline(in, line)) {
      ++ln;
      if (line.find("FINDING") != std::string::npos) expected[rel].insert(ln);
    }
  }
  ASSERT_GE(corpus.files.size(), 4u) << "fixture corpus went missing";

  std::map<std::string, std::set<int>> actual;
  std::set<std::string> checks_fired;
  for (const Finding& fd : run_all(corpus)) {
    actual[fd.rel].insert(fd.line);
    checks_fired.insert(fd.check);
  }

  // Per-file equality gives a readable diff when a checker drifts.
  for (const auto& [rel, lines] : expected) {
    EXPECT_EQ(actual[rel], lines) << rel;
  }
  for (const auto& [rel, lines] : actual) {
    EXPECT_TRUE(expected.count(rel)) << rel << " fired without annotations";
  }

  // The fixture set must exercise every registered checker, so a new
  // checker cannot land without a fault-injection specimen.
  std::set<std::string> all_names;
  for (const ptblint::CheckInfo& c : ptblint::all_checks()) {
    all_names.insert(c.name);
  }
  EXPECT_EQ(checks_fired, all_names);
}

// --- the real tree is clean -------------------------------------------------

TEST(LintRealTree, SourceTreeHasNoFindings) {
  const fs::path root = PTB_LINT_SOURCE_ROOT;
  Corpus corpus;
  for (const char* sub : {"src", "bench", "examples"}) {
    for (const fs::path& p : source_files(root / sub)) {
      SourceFile f;
      ASSERT_TRUE(ptblint::lex_file(p.string(),
                                    fs::relative(p, root).generic_string(), f))
          << p;
      corpus.files.push_back(std::move(f));
    }
  }
  ASSERT_GE(corpus.files.size(), 100u) << "source scan came up short";

  std::ostringstream report;
  const std::vector<Finding> findings = run_all(corpus);
  for (const Finding& fd : findings) {
    report << fd.rel << ":" << fd.line << ": [" << fd.check << "] "
           << fd.message << "\n";
  }
  EXPECT_TRUE(findings.empty()) << report.str();
}
