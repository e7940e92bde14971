// The evaluated benchmark suite (Table 2 of the paper): SPLASH-2 (Barnes,
// Cholesky, FFT, Ocean, Radix, Raytrace, Tomcatv, Unstructured, Water-NSQ,
// Water-SP) and PARSEC (Blackscholes, Fluidanimate, Swaptions, x264), each
// mapped to a synthetic WorkloadProfile whose lock/barrier structure and
// imbalance reproduce the paper's Figure 3 breakdown qualitatively.
#pragma once

#include <string>
#include <vector>

#include "workloads/phases.hpp"

namespace ptb {

/// All 14 profiles, in the paper's Figure ordering — unless a process-wide
/// filter was installed with set_suite_filter, in which case only the
/// selected profile.
const std::vector<WorkloadProfile>& benchmark_suite();

/// Process-wide suite filter (ptb-figures' --only flag, same pattern
/// as set_default_audit_level): after set_suite_filter("fft"),
/// benchmark_suite() returns just that profile. Returns false on an unknown
/// name (filter unchanged). Must be called before the first
/// benchmark_suite() call and is not thread-safe; an empty name clears the
/// filter. benchmark_by_name / full_benchmark_names ignore the filter.
bool set_suite_filter(const std::string& name);

/// Lookup by (case-sensitive) name; aborts if unknown. Ignores the filter.
const WorkloadProfile& benchmark_by_name(const std::string& name);

/// Names in (possibly filtered) suite order.
std::vector<std::string> benchmark_names();

/// Names of the full 14-benchmark suite, ignoring any filter (--list).
std::vector<std::string> full_benchmark_names();

}  // namespace ptb
