#include "heuristics/bin_packing.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "test_util.hpp"

namespace dts {
namespace {

TEST(FirstFit, PacksGreedily) {
  // Memories 5, 4, 3, 2, 1 with capacity 6: First-Fit in submission order
  // -> bins {5,1}, {4,2}, {3}.
  const Instance inst = Instance::from_comm_comp(
      {{5, 1}, {4, 1}, {3, 1}, {2, 1}, {1, 1}});
  const auto bins = first_fit_bins(inst, 6.0);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0], (std::vector<TaskId>{0, 4}));
  EXPECT_EQ(bins[1], (std::vector<TaskId>{1, 3}));
  EXPECT_EQ(bins[2], (std::vector<TaskId>{2}));
}

TEST(FirstFit, RespectsCapacityInEveryBin) {
  Rng rng(44);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance_free_mem(rng, 20);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const auto& bin : first_fit_bins(inst, capacity)) {
      Mem load = 0.0;
      for (TaskId id : bin) load += inst[id].mem;
      EXPECT_LE(load, capacity + 1e-9);
    }
  }
}

TEST(FirstFit, EveryTaskPlacedExactlyOnce) {
  Rng rng(45);
  const Instance inst = testing::random_instance_free_mem(rng, 30);
  const Mem capacity = testing::random_capacity(rng, inst);
  std::vector<int> seen(inst.size(), 0);
  for (const auto& bin : first_fit_bins(inst, capacity)) {
    for (TaskId id : bin) ++seen[id];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int c) { return c == 1; }));
}

TEST(FirstFit, OversizedTaskThrows) {
  const Instance inst = Instance::from_comm_comp({{7, 1}});
  EXPECT_THROW((void)first_fit_bins(inst, 6.0), std::invalid_argument);
}

TEST(FirstFit, ExactFitAllowed) {
  const Instance inst = Instance::from_comm_comp({{6, 1}, {6, 1}});
  const auto bins = first_fit_bins(inst, 6.0);
  EXPECT_EQ(bins.size(), 2u);
}

TEST(BinPackingOrder, ConcatenatesBins) {
  const Instance inst = Instance::from_comm_comp(
      {{5, 1}, {4, 1}, {3, 1}, {2, 1}, {1, 1}});
  EXPECT_EQ(bin_packing_order(inst, 6.0),
            (std::vector<TaskId>{0, 4, 1, 3, 2}));
}

TEST(BinPackingSchedule, FeasibleUnderCapacity) {
  Rng rng(46);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 15);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Schedule s = testing::solve_named(inst, capacity, "BP").schedule;
    EXPECT_TRUE(testing::feasible(inst, s, capacity));
  }
}

TEST(BinPackingSchedule, EmptyInstance) {
  const Instance inst;
  const Schedule s = testing::solve_named(inst, 5.0, "BP").schedule;
  EXPECT_EQ(s.size(), 0u);
}

}  // namespace
}  // namespace dts
