#include "heuristics/local_search.hpp"

#include <gtest/gtest.h>

#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "exact/exhaustive.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

TEST(LocalSearch, NeverWorseThanSeed) {
  Rng rng(701);
  for (int iter = 0; iter < 30; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    const std::vector<TaskId> seed = inst.submission_order();
    LocalSearchOptions options;
    options.max_iterations = 500;
    const LocalSearchResult res = improve_order(inst, capacity, seed, options);
    EXPECT_LE(res.makespan, res.initial_makespan + 1e-9);
    EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity));
    EXPECT_GE(res.makespan + 1e-9, omim(inst));
  }
}

TEST(LocalSearch, FindsOptimumOnSmallInstances) {
  // With a generous budget, local search over permutations should land on
  // (or very near) the exhaustive optimum for small instances.
  Rng rng(702);
  int hits = 0;
  constexpr int kTrials = 20;
  for (int iter = 0; iter < kTrials; ++iter) {
    const Instance inst = testing::random_instance(rng, 6);
    const Mem capacity = testing::random_capacity(rng, inst, 1.8);
    const ExhaustiveResult exact = best_common_order(inst, capacity);
    LocalSearchOptions options;
    options.max_iterations = 4000;
    options.max_no_improve = 1500;
    options.seed = static_cast<std::uint64_t>(iter);
    const LocalSearchResult res =
        improve_order(inst, capacity, inst.submission_order(), options);
    if (res.makespan <= exact.makespan + 1e-9) ++hits;
  }
  EXPECT_GE(hits, kTrials * 3 / 4)
      << "local search should reach the optimum most of the time";
}

TEST(LocalSearch, DeterministicInSeed) {
  Rng rng(703);
  const Instance inst = testing::random_instance(rng, 10);
  const Mem capacity = testing::random_capacity(rng, inst);
  LocalSearchOptions options;
  options.max_iterations = 300;
  options.seed = 42;
  const LocalSearchResult a =
      improve_order(inst, capacity, inst.submission_order(), options);
  const LocalSearchResult b =
      improve_order(inst, capacity, inst.submission_order(), options);
  EXPECT_EQ(a.order, b.order);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(LocalSearch, SeededVariantStartsFromBestHeuristic) {
  Rng rng(704);
  const Instance inst = testing::random_instance(rng, 12);
  const Mem capacity = testing::random_capacity(rng, inst);
  Time best_heuristic = kInfiniteTime;
  for (const Heuristic& h : heuristics()) {
    best_heuristic = std::min(
        best_heuristic, testing::solve_named(inst, capacity, h.name).makespan);
  }
  LocalSearchOptions options;
  options.max_iterations = 200;
  const LocalSearchResult res = schedule_local_search(inst, capacity, options);
  EXPECT_NEAR(res.initial_makespan, best_heuristic, 1e-9);
  EXPECT_LE(res.makespan, best_heuristic + 1e-9);
}

TEST(LocalSearch, RejectsBadOrder) {
  const Instance inst = testing::table3_instance();
  const std::vector<TaskId> short_order{0, 1};
  EXPECT_THROW((void)improve_order(inst, 6.0, short_order, {}),
               std::invalid_argument);
}

TEST(LocalSearch, SingletonInstance) {
  const Instance inst = Instance::from_comm_comp({{2, 3}});
  const LocalSearchResult res =
      improve_order(inst, 2.0, inst.submission_order(), {});
  EXPECT_DOUBLE_EQ(res.makespan, 5.0);
  EXPECT_EQ(res.iterations, 0u) << "no moves exist for one task";
}

}  // namespace
}  // namespace dts
