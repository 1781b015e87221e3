#include "core/simulate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/compiled.hpp"
#include "core/johnson.hpp"
#include "heuristics/dynamic.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

/// Issues a one-channel task with the given costs (the id only labels
/// diagnostics).
TaskTimes issue(ExecutionState& s, Time comm, Time comp, Mem mem) {
  return s.issue(0, comm, comp, mem, 0);
}

TEST(ExecutionState, FreshStateIsEmpty) {
  ExecutionState s(10.0);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 0.0);
  EXPECT_EQ(s.active_tasks(), 0u);
}

TEST(ExecutionState, RejectsNegativeCapacity) {
  EXPECT_THROW(ExecutionState(-1.0), std::invalid_argument);
}

TEST(ExecutionState, StartAdvancesLinkAndQueuesComp) {
  ExecutionState s(10.0);
  const TaskTimes tt = issue(s, 3, 4, 5);
  EXPECT_DOUBLE_EQ(tt.comm_start, 0.0);
  EXPECT_DOUBLE_EQ(tt.comp_start, 3.0);
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_DOUBLE_EQ(s.comp_available(), 7.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 5.0);
}

TEST(ExecutionState, MemoryReleasedAtComputeEnd) {
  ExecutionState s(10.0);
  issue(s, 3, 4, 5);
  EXPECT_TRUE(s.advance_to_next_release());
  EXPECT_DOUBLE_EQ(s.now(), 7.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 0.0);
  EXPECT_FALSE(s.advance_to_next_release());
}

TEST(ExecutionState, FitsRespectsCapacity) {
  ExecutionState s(10.0);
  issue(s, 2, 10, 6);
  EXPECT_TRUE(s.fits(4));
  EXPECT_FALSE(s.fits(4.5));
}

TEST(ExecutionState, StartThrowsWhenNotFitting) {
  // Issuing waits for memory: a footprint that does not fit now starts at
  // the release that makes room, and one that can never fit throws.
  ExecutionState s(10.0);
  issue(s, 2, 10, 6);  // holds 6 until t=12
  const TaskTimes waited = issue(s, 1, 1, 5);
  EXPECT_DOUBLE_EQ(waited.comm_start, 12.0);
  EXPECT_THROW((void)issue(s, 1, 1, 11), std::invalid_argument);
}

TEST(ExecutionState, ZeroComputationReleasesImmediately) {
  ExecutionState s(10.0);
  issue(s, 4, 0, 9);
  // comp runs [4,4): by the time the link is free again the memory is gone.
  EXPECT_DOUBLE_EQ(s.used_memory(), 0.0);
  EXPECT_EQ(s.active_tasks(), 0u);
}

TEST(ExecutionState, InducedIdleComputation) {
  // Processor busy until 12, link free at 2: a comm-4 task would arrive at
  // 6 < 12 (no induced idle), a comm-15 task at 17 (5 units of idle). The
  // idle filter outranks the largest-comm criterion.
  const Instance inst = Instance::from_comm_comp({{2, 10}, {4, 1}, {15, 1}});
  const CompiledInstance ci(inst);
  ExecutionState s(kInfiniteMem);
  s.issue(0, ci.comm(0), ci.comp(0), ci.mem(0), ci.channel(0));
  const std::vector<TaskId> both{2, 1};
  EXPECT_EQ(pick_candidate(ci, s, both, DynamicCriterion::kLargestComm), 1u);
}

TEST(ExecutionState, ReadyFloorDelaysTheTransfer) {
  ExecutionState s(10.0);
  issue(s, 1, 2, 5);  // comp [1,3), link free at 1
  // A floor past the link clock delays the start and releases memory
  // finishing in the waited gap.
  const TaskTimes tt = s.issue(1, 1, 1, 1, 0, 4.0);
  EXPECT_DOUBLE_EQ(tt.comm_start, 4.0);
  EXPECT_DOUBLE_EQ(tt.comp_start, 5.0);
  EXPECT_DOUBLE_EQ(s.used_memory(), 1.0);  // task 0 released at 3
}

TEST(ExecutionState, SnapshotRoundTrip) {
  ExecutionState s(10.0);
  issue(s, 2, 8, 4);  // active until 10
  issue(s, 3, 1, 3);  // comp [10,11): active until 11
  const ExecutionState::Snapshot snap = s.snapshot();
  ExecutionState r(10.0, snap);
  EXPECT_DOUBLE_EQ(r.comm_available(), s.comm_available());
  EXPECT_DOUBLE_EQ(r.comp_available(), s.comp_available());
  EXPECT_DOUBLE_EQ(r.used_memory(), s.used_memory());
  EXPECT_EQ(r.active_tasks(), s.active_tasks());
  EXPECT_TRUE(r == s);
}

TEST(ExecutionState, SnapshotDropsFinishedEntries) {
  ExecutionState::Snapshot snap;
  snap.comm_available = {10.0};
  snap.comp_available = 12.0;
  snap.active = {{5.0, 100.0}, {15.0, 7.0}};  // first already finished
  ExecutionState s(20.0, snap);
  EXPECT_DOUBLE_EQ(s.used_memory(), 7.0);
  EXPECT_EQ(s.active_tasks(), 1u);
}

TEST(SimulateOrder, InfiniteMemoryMatchesFlowshopRecurrence) {
  const Instance inst = testing::table3_instance();
  const std::vector<TaskId> order{1, 2, 0, 3};  // Johnson order B C A D
  const Schedule s = simulate_order(inst, order, kInfiniteMem);
  EXPECT_DOUBLE_EQ(s.makespan(inst), 12.0);
}

TEST(SimulateOrder, RequiresFullOrder) {
  const Instance inst = testing::table3_instance();
  const std::vector<TaskId> partial{0, 1};
  EXPECT_THROW((void)simulate_order(inst, partial, kInfiniteMem),
               std::invalid_argument);
}

TEST(SimulateOrder, ThrowsWhenTaskCannotEverFit) {
  const Instance inst = Instance::from_comm_comp({{5, 1}, {2, 1}});
  const auto order = inst.submission_order();
  EXPECT_THROW((void)simulate_order(inst, order, 4.0), std::invalid_argument);
}

TEST(SimulateOrder, SequentialUnderMinimumCapacity) {
  // With capacity = max task memory, transfers serialize behind the
  // previous computation whenever both tasks' footprints exceed C.
  const Instance inst = Instance::from_comm_comp({{4, 3}, {4, 3}});
  const auto order = inst.submission_order();
  const Schedule s = simulate_order(inst, order, 4.0);
  EXPECT_TRUE(testing::feasible(inst, s, 4.0));
  EXPECT_DOUBLE_EQ(s.makespan(inst), 14.0);  // 4+3 then 4+3, zero overlap
}

TEST(SimulateOrder, HalfOpenMemoryIntervalAdmitsBackToBack) {
  // Task 1's transfer may start exactly when task 0's computation ends.
  const Instance inst = Instance::from_comm_comp({{4, 3}, {4, 3}});
  const auto order = inst.submission_order();
  const Schedule s = simulate_order(inst, order, 4.0);
  EXPECT_DOUBLE_EQ(s[1].comm_start, 7.0);
}

TEST(SimulateOrder, RandomOrdersAlwaysFeasible) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    std::vector<TaskId> order = inst.submission_order();
    // Shuffle via random keys.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.index(i)]);
    }
    const Schedule s = simulate_order(inst, order, capacity);
    EXPECT_TRUE(testing::feasible(inst, s, capacity));
  }
}

TEST(ExecuteOrder, CarriesStateAcrossCalls) {
  const Instance inst = testing::table3_instance();
  ExecutionState state(kInfiniteMem);
  Schedule sched(inst.size());
  const std::vector<TaskId> first{1, 2};
  const std::vector<TaskId> second{0, 3};
  execute_order(inst, first, state, sched);
  execute_order(inst, second, state, sched);
  // Identical to executing the concatenated order in one go.
  const std::vector<TaskId> full{1, 2, 0, 3};
  const Schedule reference = simulate_order(inst, full, kInfiniteMem);
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(sched[i].comm_start, reference[i].comm_start);
    EXPECT_DOUBLE_EQ(sched[i].comp_start, reference[i].comp_start);
  }
}

}  // namespace
}  // namespace dts
