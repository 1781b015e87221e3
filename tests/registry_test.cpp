#include "core/registry.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/bounds.hpp"
#include "core/compiled.hpp"
#include "core/validate.hpp"
#include "support/parallel_for.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(Registry, FourteenHeuristics) {
  EXPECT_EQ(heuristics().size(), 14u);
}

TEST(Registry, NamesMatchThePaper) {
  const std::set<std::string_view> expected{
      "OS",   "OOSIM",  "IOCMS",  "DOCPS",  "IOCCS",  "DOCCS",  "GG",
      "BP",   "LCMR",   "SCMR",   "MAMR",   "OOLCMR", "OOSCMR", "OOMAMR"};
  std::set<std::string_view> actual;
  for (const Heuristic& h : heuristics()) actual.insert(h.name);
  EXPECT_EQ(actual, expected);
}

/// find_heuristic is the one name -> row lookup: every row is found under
/// its own acronym, and nothing else is found.
TEST(Registry, NameRoundTrip) {
  for (const Heuristic& h : heuristics()) {
    EXPECT_EQ(find_heuristic(h.name), &h) << h.name;
  }
  EXPECT_EQ(find_heuristic("NOPE"), nullptr);
  EXPECT_EQ(find_heuristic("oosim"), nullptr) << "case sensitive";
  EXPECT_EQ(find_heuristic(""), nullptr);
}

/// Each row says what it is exactly once: OS and the static rows carry an
/// order function, the dynamic and corrected rows a criterion.
TEST(Registry, CategoriesPartitionTheRegistry) {
  std::size_t counts[4] = {0, 0, 0, 0};
  for (const Heuristic& h : heuristics()) {
    ++counts[static_cast<int>(h.family)];
    const bool ordered = h.family == HeuristicFamily::kBaseline ||
                         h.family == HeuristicFamily::kStatic;
    EXPECT_EQ(h.order != nullptr, ordered) << h.name;
  }
  EXPECT_EQ(counts[static_cast<int>(HeuristicFamily::kBaseline)], 1u);
  EXPECT_EQ(counts[static_cast<int>(HeuristicFamily::kStatic)], 7u);
  EXPECT_EQ(counts[static_cast<int>(HeuristicFamily::kDynamic)], 3u);
  EXPECT_EQ(counts[static_cast<int>(HeuristicFamily::kCorrected)], 3u);
  EXPECT_EQ(name_of(HeuristicFamily::kCorrected), "Static+Dynamic");
}

class AllHeuristicsTest : public ::testing::TestWithParam<testing::TableRow> {};

TEST_P(AllHeuristicsTest, FeasibleWithinBoundsAcrossCapacities) {
  const Heuristic& h = GetParam().get();
  Rng rng(0xC0FFEE);
  for (int iter = 0; iter < 40; ++iter) {
    const Instance inst = testing::random_instance(rng, 14);
    const Bounds b = compute_bounds(inst);
    const Mem mc = inst.min_capacity();
    for (double factor : {1.0, 1.25, 1.5, 2.0}) {
      const Mem capacity = mc * factor;
      const Schedule s = testing::solve_named(inst, capacity, h.name).schedule;
      ASSERT_TRUE(testing::feasible(inst, s, capacity))
          << h.name << " capacity factor " << factor;
      const Time ms = s.makespan(inst);
      EXPECT_GE(ms + 1e-9, b.omim_lower) << h.name;
      EXPECT_LE(ms, b.sequential_upper + 1e-9) << h.name;
    }
  }
}

TEST_P(AllHeuristicsTest, PermutationSchedulesAlways) {
  // Every registry heuristic keeps a common order on both resources
  // (paper §4: "In all of our strategies (except linear programming based
  // strategy), communication and computations take place in the same
  // order").
  const Heuristic& h = GetParam().get();
  Rng rng(0xBEEF);
  const Instance inst = testing::random_instance(rng, 12);
  const Schedule s =
      testing::solve_named(inst, inst.min_capacity() * 1.3, h.name).schedule;
  EXPECT_TRUE(s.is_permutation_schedule()) << h.name;
}

TEST_P(AllHeuristicsTest, DeterministicAcrossRuns) {
  const Heuristic& h = GetParam().get();
  Rng rng(0xD00D);
  const Instance inst = testing::random_instance(rng, 10);
  const Mem capacity = inst.min_capacity() * 1.4;
  const Schedule a = h.run(inst, CompiledInstance(inst), capacity);
  const Schedule b = h.run(inst, CompiledInstance(inst), capacity);
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].comm_start, b[i].comm_start);
    EXPECT_DOUBLE_EQ(a[i].comp_start, b[i].comp_start);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, AllHeuristicsTest, ::testing::ValuesIn(testing::table_rows()),
    [](const ::testing::TestParamInfo<testing::TableRow>& param_info) {
      return std::string(param_info.param.get().name);
    });

/// best_of reports each candidate's makespan as its schedule's makespan,
/// and OOSIM on Table 3 is the paper's 15 (Fig. 4).
TEST(Registry, HeuristicMakespanMatchesSchedule) {
  const Instance inst = testing::table3_instance();
  SerialExecutor serial;
  const BestOf best = best_of(testing::all_rows(), inst,
                              testing::kTable3Capacity, serial);
  ASSERT_EQ(best.runs.size(), heuristics().size());
  for (const CandidateRun& run : best.runs) {
    EXPECT_EQ(run.makespan, run.schedule.makespan(inst))
        << run.heuristic->name;
  }
  EXPECT_DOUBLE_EQ(best.runs[1].makespan, 15.0);
  EXPECT_EQ(best.runs[1].heuristic->name, "OOSIM");
}

}  // namespace
}  // namespace dts
