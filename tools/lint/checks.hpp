// The ptb-lint checker suite: project-contract checks that neither the
// compiler nor scripts/lint.sh's greps can express. Each checker consumes
// the token model of lex.hpp only (no clang dependency), so the whole
// binary builds with the baked-in GCC toolchain and runs on every host
// that runs the tests.
//
// Checkers (names double as marker keys for `ptb-lint: allow(<name>)`):
//   unordered-iter  hash-ordered iteration in result paths
//   fp-accum        FP reductions in the cycle loop bypassing
//                   deterministic_total()
//   wallclock       wall-clock / entropy use outside the allow-list
//   fingerprint     SimConfig fields neither hashed into the config
//                   fingerprint nor on the explicit exclusion list
//
// The contracts themselves are documented in DESIGN.md ("Static
// analysis"); the fault-injection fixtures proving each checker fires
// live in tests/lint/fixtures/.
#pragma once

#include <string>
#include <vector>

#include "lint/lex.hpp"

namespace ptblint {

struct Finding {
  std::string rel;      // file, relative to the scan root
  int line;
  std::string check;    // checker name
  std::string message;
};

struct Corpus {
  std::vector<SourceFile> files;
};

using CheckFn = void (*)(const Corpus&, std::vector<Finding>&);

struct CheckInfo {
  const char* name;
  const char* summary;
  CheckFn fn;
};

/// All registered checkers, in canonical (report) order.
const std::vector<CheckInfo>& all_checks();

}  // namespace ptblint
