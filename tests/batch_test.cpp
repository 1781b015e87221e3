#include "core/batch.hpp"

#include <gtest/gtest.h>

#include "core/bounds.hpp"
#include "support/parallel_for.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

const Heuristic& row(const char* name) { return *find_heuristic(name); }

TEST(Batch, RejectsZeroBatchSize) {
  const Instance inst = testing::table3_instance();
  EXPECT_THROW(
      (void)schedule_in_batches(row("OOSIM"), inst, 6.0, 0),
      std::invalid_argument);
}

TEST(Batch, WholeInstanceBatchEqualsPlainHeuristic) {
  Rng rng(71);
  for (int iter = 0; iter < 20; ++iter) {
    const Instance inst = testing::random_instance(rng, 12);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const Heuristic& h : heuristics()) {
      const Schedule batched =
          schedule_in_batches(h, inst, capacity, inst.size());
      const Schedule plain =
          testing::solve_named(inst, capacity, h.name).schedule;
      for (TaskId i = 0; i < inst.size(); ++i) {
        EXPECT_DOUBLE_EQ(batched[i].comm_start, plain[i].comm_start)
            << h.name;
        EXPECT_DOUBLE_EQ(batched[i].comp_start, plain[i].comp_start)
            << h.name;
      }
    }
  }
}

class BatchHeuristicsTest
    : public ::testing::TestWithParam<testing::TableRow> {};

TEST_P(BatchHeuristicsTest, FeasibleForSmallBatches) {
  const Heuristic& h = GetParam().get();
  Rng rng(72);
  for (int iter = 0; iter < 15; ++iter) {
    const Instance inst = testing::random_instance(rng, 23);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (std::size_t batch : {1u, 4u, 10u}) {
      const Schedule s = schedule_in_batches(h, inst, capacity, batch);
      ASSERT_TRUE(testing::feasible(inst, s, capacity))
          << h.name << " batch " << batch;
      EXPECT_GE(s.makespan(inst) + 1e-9, compute_bounds(inst).omim_lower);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Batch, BatchHeuristicsTest, ::testing::ValuesIn(testing::table_rows()),
    [](const ::testing::TestParamInfo<testing::TableRow>& param_info) {
      return std::string(param_info.param.get().name);
    });

TEST(Batch, BatchOfOneIsSubmissionOrderForStatics) {
  // Ordering freedom vanishes with singleton batches: every static policy
  // degenerates to OS.
  Rng rng(73);
  const Instance inst = testing::random_instance(rng, 10);
  const Mem capacity = testing::random_capacity(rng, inst);
  const Schedule os = testing::solve_named(inst, capacity, "OS").schedule;
  for (const char* name : {"OOSIM", "IOCMS", "DOCPS", "GG", "BP"}) {
    const Schedule s = schedule_in_batches(row(name), inst, capacity, 1);
    for (TaskId i = 0; i < inst.size(); ++i) {
      EXPECT_DOUBLE_EQ(s[i].comm_start, os[i].comm_start) << name;
    }
  }
}

TEST(Batch, RestrictedVisibilityCannotBeatFullKnowledge) {
  // Not a theorem, but overwhelmingly the case for OOSIM on well-shaped
  // instances; assert the weaker sanity property that batching stays
  // within the sequential upper bound.
  Rng rng(74);
  for (int iter = 0; iter < 20; ++iter) {
    const Instance inst = testing::random_instance(rng, 30);
    const Mem capacity = testing::random_capacity(rng, inst);
    const Schedule s =
        schedule_in_batches(row("OOSIM"), inst, capacity, 5);
    EXPECT_LE(s.makespan(inst),
              compute_bounds(inst).sequential_upper + 1e-9);
  }
}


TEST(BatchAuto, FeasibleAndNeverWorseThanEveryCandidatePerBatchGreedy) {
  Rng rng(75);
  const std::vector<const Heuristic*> candidates = testing::all_rows();
  SerialExecutor serial;
  for (int iter = 0; iter < 15; ++iter) {
    const Instance inst = testing::random_instance(rng, 25);
    const Mem capacity = testing::random_capacity(rng, inst);
    const BatchAutoResult res =
        schedule_in_batches_auto(inst, capacity, 7, candidates, serial);
    EXPECT_TRUE(testing::feasible(inst, res.schedule, capacity));
    EXPECT_EQ(res.winners.size(), (inst.size() + 6) / 7);
    // Greedy per-batch selection is not globally optimal, but it must stay
    // within the bounds.
    const Bounds b = compute_bounds(inst);
    EXPECT_GE(res.schedule.makespan(inst) + 1e-9, b.omim_lower);
    EXPECT_LE(res.schedule.makespan(inst), b.sequential_upper + 1e-9);
  }
}

TEST(BatchAuto, SingleCandidateMatchesPlainBatching) {
  Rng rng(76);
  const Instance inst = testing::random_instance(rng, 20);
  const Mem capacity = testing::random_capacity(rng, inst);
  const std::vector<const Heuristic*> only{&row("OOSIM")};
  SerialExecutor serial;
  const BatchAutoResult res =
      schedule_in_batches_auto(inst, capacity, 6, only, serial);
  const Schedule plain = schedule_in_batches(row("OOSIM"), inst, capacity, 6);
  for (TaskId i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.schedule[i].comm_start, plain[i].comm_start);
    EXPECT_DOUBLE_EQ(res.schedule[i].comp_start, plain[i].comp_start);
  }
  for (const Heuristic* h : res.winners) EXPECT_EQ(h, &row("OOSIM"));
}

TEST(BatchAuto, RejectsBadArguments) {
  const Instance inst = testing::table3_instance();
  const std::vector<const Heuristic*> candidates = testing::all_rows();
  SerialExecutor serial;
  EXPECT_THROW(
      (void)schedule_in_batches_auto(inst, 6.0, 0, candidates, serial),
      std::invalid_argument);
  const std::vector<const Heuristic*> none;
  EXPECT_THROW((void)schedule_in_batches_auto(inst, 6.0, 2, none, serial),
               std::invalid_argument);
}

}  // namespace
}  // namespace dts
