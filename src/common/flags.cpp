#include "common/flags.hpp"

#include <cmath>
#include <cstdio>

namespace ptb {

FlagParse parse_flags(const std::vector<FlagRow>& rows, int argc,
                      const char* const* argv, std::size_t max_positional) {
  FlagParse r;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg[0] != '-') {
      if (r.positional.size() == max_positional) {
        r.error = "unexpected argument '" + std::string(arg) + "'";
        return r;
      }
      r.positional.emplace_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const FlagRow* row = nullptr;
    for (const FlagRow& candidate : rows) {
      if (name == candidate.name || name == candidate.alias) {
        row = &candidate;
        break;
      }
    }
    if (row == nullptr) {
      r.error = "unknown flag '" + std::string(name) + "'";
      return r;
    }
    std::string_view value;
    if (row->metavar.empty()) {
      if (eq != std::string_view::npos) {
        r.error = std::string(row->name) + " takes no value";
        return r;
      }
    } else if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      r.error = std::string(row->name) + " requires a value";
      return r;
    }
    if (!row->bind.set(value)) {
      r.error = "bad " + std::string(row->name) + " value '" +
                std::string(value) + "' (expected " + row->bind.expected +
                ")";
      return r;
    }
  }
  return r;
}

std::string usage_rows(const std::vector<FlagRow>& rows) {
  constexpr std::size_t kHelpColumn = 19;
  std::string out;
  for (const FlagRow& row : rows) {
    if (row.help.empty()) continue;
    std::string head = "  " + std::string(row.name);
    if (!row.metavar.empty()) head += " " + std::string(row.metavar);
    std::size_t col = head.size() < kHelpColumn ? head.size() : 0;
    out += head + (col == 0 ? "\n" : "");
    for (const std::string_view line : row.help) {
      out.append(kHelpColumn - col, ' ').append(line) += '\n';
      col = 0;
    }
  }
  return out;
}

FlagBinder flag_switch(bool& out) {
  return {[&out](std::string_view) {
            out = true;
            return true;
          },
          ""};
}

FlagBinder flag_string(std::string& out) {
  return {[&out](std::string_view s) {
            if (s.empty()) return false;
            out = s;
            return true;
          },
          "a non-empty value"};
}

FlagBinder flag_real(double& out, double lo, double hi) {
  const auto g = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return std::string(buf);
  };
  return {[&out, lo, hi](std::string_view s) {
            double v = 0.0;
            if (!parse_number(s, v) || !std::isfinite(v) || v < lo || v > hi) {
              return false;
            }
            out = v;
            return true;
          },
          std::isinf(hi) ? "a finite number >= " + g(lo)
                         : "a number in " + g(lo) + ".." + g(hi)};
}

}  // namespace ptb
