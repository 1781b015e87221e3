#include "core/validate.hpp"

#include <gtest/gtest.h>

#include "core/simulate.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

Schedule valid_schedule(const Instance& inst) {
  return simulate_order(inst, inst.submission_order(), kInfiniteMem);
}

TEST(Validate, AcceptsSimulatorOutput) {
  const Instance inst = testing::table3_instance();
  const Schedule s = valid_schedule(inst);
  EXPECT_TRUE(validate_schedule(inst, s, kInfiniteMem).ok());
}

TEST(Validate, DetectsUnscheduledTask) {
  const Instance inst = testing::table3_instance();
  Schedule s(inst.size());
  s.set(0, 0, 3);
  const ValidationReport r = validate_schedule(inst, s, kInfiniteMem);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, Violation::Kind::kUnscheduledTask);
}

TEST(Validate, DetectsSizeMismatch) {
  const Instance inst = testing::table3_instance();
  const Schedule s(2);
  EXPECT_FALSE(validate_schedule(inst, s, kInfiniteMem).ok());
}

TEST(Validate, DetectsCommOverlap) {
  const Instance inst = Instance::from_comm_comp({{4, 1}, {4, 1}});
  Schedule s(2);
  s.set(0, 0, 4);
  s.set(1, 2, 6);  // transfer starts while task 0 still owns the link
  const ValidationReport r = validate_schedule(inst, s, kInfiniteMem);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, Violation::Kind::kCommOverlap);
}

TEST(Validate, DetectsCompOverlap) {
  const Instance inst = Instance::from_comm_comp({{1, 5}, {1, 5}});
  Schedule s(2);
  s.set(0, 0, 1);
  s.set(1, 1, 3);  // computation starts while task 0 computes
  const ValidationReport r = validate_schedule(inst, s, kInfiniteMem);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, Violation::Kind::kCompOverlap);
}

TEST(Validate, DetectsComputeBeforeData) {
  const Instance inst = Instance::from_comm_comp({{4, 1}});
  Schedule s(1);
  s.set(0, 0, 3.5);  // data lands at 4
  const ValidationReport r = validate_schedule(inst, s, kInfiniteMem);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, Violation::Kind::kComputeBeforeData);
}

TEST(Validate, DetectsMemoryOverflow) {
  const Instance inst = Instance::from_comm_comp({{4, 4}, {3, 3}});
  Schedule s(2);
  s.set(0, 0, 4);  // holds 4 in [0, 8)
  s.set(1, 4, 8);  // holds 3 in [4, 11): peak 7
  EXPECT_TRUE(validate_schedule(inst, s, 7.0).ok());
  const ValidationReport r = validate_schedule(inst, s, 6.5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations.front().kind, Violation::Kind::kMemoryExceeded);
}

TEST(Validate, HalfOpenIntervalsAtMemoryBoundary) {
  // Task 1 starts its transfer exactly when task 0's computation ends:
  // with capacity 4 this must be legal (Fig. 2's tight pattern).
  const Instance inst = Instance::from_comm_comp({{4, 3}, {4, 3}});
  Schedule s(2);
  s.set(0, 0, 4);   // memory [0, 7)
  s.set(1, 7, 11);  // memory [7, 14)
  EXPECT_TRUE(validate_schedule(inst, s, 4.0).ok());
}

TEST(Validate, ZeroLengthTasksDoNotTripExclusivity) {
  const Instance inst = Instance::from_comm_comp({{0, 5}, {4, 0.5}});
  Schedule s(2);
  s.set(0, 0, 0);
  s.set(1, 0, 5);
  EXPECT_TRUE(validate_schedule(inst, s, kInfiniteMem).ok());
}

TEST(PeakMemory, TracksEnvelope) {
  const Instance inst = Instance::from_comm_comp({{2, 6}, {2, 2}, {2, 2}});
  Schedule s(3);
  s.set(0, 0, 2);  // holds 2 in [0, 8)
  s.set(1, 2, 4);  // holds 2 in [2, 6)
  s.set(2, 4, 6);  // holds 2 in [4, 8)
  EXPECT_DOUBLE_EQ(peak_memory(inst, s), 6.0);
}

TEST(PeakMemory, ReleaseBeforeAcquireAtSameInstant) {
  const Instance inst = Instance::from_comm_comp({{4, 3}, {4, 3}});
  Schedule s(2);
  s.set(0, 0, 4);
  s.set(1, 7, 11);
  EXPECT_DOUBLE_EQ(peak_memory(inst, s), 4.0);
}

TEST(PeakMemory, EmptySchedule) {
  const Instance inst;
  const Schedule s(0);
  EXPECT_DOUBLE_EQ(peak_memory(inst, s), 0.0);
}

TEST(Validate, ReportSummaryMentionsViolations) {
  const Instance inst = Instance::from_comm_comp({{4, 1}});
  Schedule s(1);
  s.set(0, 0, 1);
  const ValidationReport r = validate_schedule(inst, s, kInfiniteMem);
  EXPECT_NE(r.summary().find("violation"), std::string::npos);
}

TEST(Validate, MemoryReleaseWithinEpsilonOfTheNextStartIsFeasible) {
  // Two tasks whose footprints together exceed the capacity: the second
  // transfer may start only once the first computation has released its
  // memory. The engine releases an allocation whose end is approx_leq the
  // decision instant, so an end a rounding error past the start is free.
  std::vector<Task> tasks = {
      Task{.comm = 1, .comp = 1, .mem = 4, .name = {}},
      Task{.comm = 1, .comp = 1, .mem = 4, .name = {}}};
  const Instance inst(std::move(tasks));
  const Mem capacity = 4.0;
  Schedule within(2);
  within.set(0, 0.0, 1.0 + 1e-10);  // holds memory until 2 + 1e-10
  within.set(1, 2.0, 3.0);
  EXPECT_TRUE(validate_schedule(inst, within, capacity).ok())
      << validate_schedule(inst, within, capacity).summary();
  EXPECT_DOUBLE_EQ(peak_memory(inst, within), 4.0);

  Schedule overlap(2);
  overlap.set(0, 0.0, 1.0);          // holds memory until 2
  overlap.set(1, 2.0 - 1e-6, 3.0);   // a genuine overlap
  const ValidationReport report = validate_schedule(inst, overlap, capacity);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations.front().kind, Violation::Kind::kMemoryExceeded);
  EXPECT_DOUBLE_EQ(report.peak_memory, 8.0);
}

}  // namespace
}  // namespace dts
