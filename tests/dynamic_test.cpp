#include "heuristics/dynamic.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

/// The dynamic row `name` on a fresh engine over all tasks.
Schedule run_row(const char* name, const Instance& inst, Mem capacity) {
  return find_heuristic(name)->run(inst, CompiledInstance(inst), capacity);
}

/// Issues task `id` of `ci` on `state` (one-channel instances).
void issue(const CompiledInstance& ci, ExecutionState& state, TaskId id) {
  state.issue(id, ci.comm(id), ci.comp(id), ci.mem(id), ci.channel(id));
}

TEST(PickCandidate, EmptyReturnsInvalid) {
  const CompiledInstance ci(testing::table4_instance());
  ExecutionState state(kInfiniteMem);
  const std::vector<TaskId> none;
  EXPECT_EQ(pick_candidate(ci, state, none, DynamicCriterion::kLargestComm),
            kInvalidTask);
}

TEST(PickCandidate, MinimumIdleDominatesCriterion) {
  // At time zero with an idle processor, every candidate induces idle equal
  // to its communication time, so the smallest comm wins regardless of the
  // criterion (the paper's Fig. 5 schedules all start with task B).
  const CompiledInstance ci(testing::table4_instance());
  ExecutionState state(kInfiniteMem);
  const std::vector<TaskId> all{0, 1, 2, 3};
  for (DynamicCriterion c :
       {DynamicCriterion::kLargestComm, DynamicCriterion::kSmallestComm,
        DynamicCriterion::kMaxAcceleration}) {
    EXPECT_EQ(pick_candidate(ci, state, all, c), 1u);  // B has comm 1
  }
}

TEST(PickCandidate, CriterionBreaksIdleTies) {
  // Busy processor: nobody induces idle, criterion decides.
  const CompiledInstance ci(testing::table4_instance());
  ExecutionState state(kInfiniteMem);
  issue(ci, state, 1);  // B: processor busy until t=7
  const std::vector<TaskId> rest{0, 2, 3};  // A(3,2) C(4,6) D(5,1)
  EXPECT_EQ(pick_candidate(ci, state, rest, DynamicCriterion::kLargestComm),
            3u);
  EXPECT_EQ(pick_candidate(ci, state, rest, DynamicCriterion::kSmallestComm),
            0u);
  EXPECT_EQ(
      pick_candidate(ci, state, rest, DynamicCriterion::kMaxAcceleration),
      2u);  // C: 6/4 beats A: 2/3 and D: 1/5
}

TEST(PickCandidate, ZeroCommTaskIsInfinitelyAccelerated) {
  const CompiledInstance ci(Instance::from_comm_comp({{0, 4}, {2, 10}}));
  ExecutionState state(kInfiniteMem);
  issue(ci, state, 1);  // keep processor busy so idle ties
  const std::vector<TaskId> both{0, 1};
  EXPECT_EQ(
      pick_candidate(ci, state, both, DynamicCriterion::kMaxAcceleration),
      0u);
}

TEST(PickCandidate, TieOnCriterionPrefersEarlierCandidate) {
  const CompiledInstance ci(Instance::from_comm_comp({{2, 2}, {2, 2}}));
  ExecutionState state(kInfiniteMem);
  issue(ci, state, 0);
  // Re-pick among identical tasks (pretend both still pending).
  const std::vector<TaskId> both{1, 0};
  EXPECT_EQ(pick_candidate(ci, state, both, DynamicCriterion::kLargestComm),
            1u)
      << "first listed candidate wins ties";
}

TEST(ScheduleDynamic, FeasibleAndWithinBounds) {
  Rng rng(15);
  for (int iter = 0; iter < 100; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const char* name : {"LCMR", "SCMR", "MAMR"}) {
      const Schedule s = testing::solve_named(inst, capacity, name).schedule;
      EXPECT_TRUE(testing::feasible(inst, s, capacity));
      const Bounds b = compute_bounds(inst);
      EXPECT_GE(s.makespan(inst) + 1e-9, b.omim_lower);
      EXPECT_LE(s.makespan(inst), b.sequential_upper + 1e-9);
    }
  }
}

TEST(ScheduleDynamic, ProducesPermutationSchedules) {
  Rng rng(16);
  const Instance inst = testing::random_instance(rng, 10);
  const Schedule s =
      testing::solve_named(inst, inst.min_capacity() * 1.5, "LCMR").schedule;
  EXPECT_TRUE(s.is_permutation_schedule());
}

TEST(ScheduleDynamic, ThrowsWhenTaskExceedsCapacity) {
  const Instance inst = Instance::from_comm_comp({{5, 1}});
  EXPECT_THROW((void)run_row("LCMR", inst, 4.0), std::invalid_argument);
}

TEST(ScheduleDynamic, InfiniteCapacityOptimalWhenAllComputeIntensive) {
  // With ample memory and an idle processor at t=0, the dynamic rule
  // reduces to "least idle first": feasibility only. Just pin behaviour:
  // makespan must be within the bounds and >= OMIM.
  const Instance inst =
      Instance::from_comm_comp({{1, 4}, {2, 5}, {3, 6}, {4, 7}});
  const Schedule s = run_row("SCMR", inst, kInfiniteMem);
  EXPECT_DOUBLE_EQ(s.makespan(inst), omim(inst))
      << "SCMR equals Johnson when all tasks are compute intensive and "
         "memory is unbounded";
}

TEST(ScheduleDynamic, EmptyInstance) {
  const Instance inst;
  const Schedule s = run_row("LCMR", inst, 1.0);
  EXPECT_EQ(s.size(), 0u);
}

/// The heuristic table maps each dynamic acronym to its criterion.
TEST(Acronyms, DynamicNames) {
  EXPECT_EQ(find_heuristic("LCMR")->criterion, DynamicCriterion::kLargestComm);
  EXPECT_EQ(find_heuristic("SCMR")->criterion,
            DynamicCriterion::kSmallestComm);
  EXPECT_EQ(find_heuristic("MAMR")->criterion,
            DynamicCriterion::kMaxAcceleration);
  for (const char* name : {"LCMR", "SCMR", "MAMR"}) {
    EXPECT_EQ(find_heuristic(name)->family, HeuristicFamily::kDynamic);
  }
}

}  // namespace
}  // namespace dts
