// The figure driver loop (bench/bench_util.hpp render_rows): rows only read
// runs, the driver runs their misses in batches until every row renders
// from the memo alone. A row whose second key depends on the value of its
// first result takes an extra pass; the bytes must not depend on the
// worker count or on which rows are rendered together, and each key must
// be simulated once.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.hpp"

namespace ptb {
namespace {

const WorkloadProfile& tiny(std::size_t i) {
  static const std::vector<WorkloadProfile> profiles = [] {
    std::vector<WorkloadProfile> v(2);
    for (std::size_t k = 0; k < v.size(); ++k) {
      v[k].name = "driver" + std::to_string(k);
      v[k].iterations = 1;
      v[k].ops_per_iteration = 1500 + 500 * k;
      v[k].barrier_per_iter = false;
    }
    return v;
  }();
  return profiles[i];
}

const TechniqueSpec kTwoLevel{"2Level", TechniqueKind::kTwoLevel, false,
                              PtbPolicy::kToAll, 0.0};

int g_dependent_renders = 0;
int g_shared_renders = 0;

unsigned long long ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

// Its second key depends on the value of its first result: the stand-in's
// one cycle asks for the 2-core run (the shared row's key), a real result
// for the 4-core run, which the driver learns of only after the first
// batch.
void dependent_row(bench::BenchContext& ctx) {
  ++g_dependent_renders;
  const RunResult& first =
      ctx.run(tiny(0), make_sim_config(2, base_technique()));
  const std::uint32_t cores = first.cycles > 1 ? 4 : 2;
  const RunResult& second = ctx.run(tiny(1), make_sim_config(cores, kTwoLevel));
  ctx.say("first %llu cycles; second on %u cores: %llu cycles, energy %.3f\n",
          ull(first.cycles), cores, ull(second.cycles), second.energy);
}

void shared_row(bench::BenchContext& ctx) {
  ++g_shared_renders;
  const RunResult& r = ctx.run(tiny(1), make_sim_config(2, kTwoLevel));
  ctx.say("2 cores: %llu cycles, energy %.3f\n", ull(r.cycles), r.energy);
}

const bench::FigureRow kRows[] = {
    {"dependent", "Dependent", "second key from the first result",
     dependent_row},
    {"shared", "Shared", "one key of the dependent row's first pass",
     shared_row},
};

std::vector<std::string> render_bytes(std::span<const bench::FigureRow> rows,
                                      unsigned jobs, std::size_t& computed) {
  RunPool pool(jobs);
  BaseRunCache memo;
  std::vector<std::string> bytes;
  for (const bench::RenderedRow& row : bench::render_rows(rows, pool, memo)) {
    bytes.push_back(row.text + row.json);
  }
  computed = memo.computed();
  return bytes;
}

TEST(FigureDriver, DependentKeyTakesAnExtraPassAndEachKeyRunsOnce) {
  g_dependent_renders = g_shared_renders = 0;
  std::size_t computed = 0;
  const std::vector<std::string> serial = render_bytes(kRows, 1, computed);
  // Three keys: the 2-core base and 2Level runs of the first pass, then
  // the 4-core 2Level run the real first result asks for.
  EXPECT_EQ(computed, 3u);
  EXPECT_EQ(g_dependent_renders, 3);
  EXPECT_EQ(g_shared_renders, 2);

  const RunResult four = run_one(tiny(1), make_sim_config(4, kTwoLevel));
  char want[128];
  std::snprintf(want, sizeof(want), "second on 4 cores: %llu cycles",
                ull(four.cycles));
  EXPECT_NE(serial[0].find(want), std::string::npos) << serial[0];

  const std::vector<std::string> parallel = render_bytes(kRows, 4, computed);
  EXPECT_EQ(computed, 3u);
  EXPECT_EQ(serial, parallel);
}

TEST(FigureDriver, BytesIndependentOfRowSelection) {
  std::size_t computed = 0;
  const std::vector<std::string> both = render_bytes(kRows, 4, computed);
  const std::vector<std::string> alone =
      render_bytes(std::span(kRows).subspan(0, 1), 4, computed);
  EXPECT_EQ(computed, 3u);  // the 2-core 2Level run is the stand-in's key
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_EQ(alone[0], both[0]);
}

// A row that reads no run renders once and needs no batch.
TEST(FigureDriver, RowWithoutRunsRendersOnce) {
  static int renders = 0;
  const bench::FigureRow rows[] = {
      {"static", "Static", "no runs", [](bench::BenchContext& ctx) {
         ++renders;
         ctx.say("no runs\n");
       }}};
  std::size_t computed = 0;
  const std::vector<std::string> bytes = render_bytes(rows, 2, computed);
  EXPECT_EQ(renders, 1);
  EXPECT_EQ(computed, 0u);
  EXPECT_NE(bytes[0].find("no runs\n"), std::string::npos);
}

}  // namespace
}  // namespace ptb
