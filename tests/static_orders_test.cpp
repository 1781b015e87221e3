#include "heuristics/static_orders.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/johnson.hpp"
#include "core/registry.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

bool is_permutation_of_all(const std::vector<TaskId>& order, std::size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (TaskId id : order) {
    if (id >= n || seen[id]) return false;
    seen[id] = true;
  }
  return true;
}

TEST(StaticOrders, SubmissionIsIdentity) {
  const Instance inst = testing::table3_instance();
  EXPECT_EQ(static_order(inst, StaticOrderPolicy::kSubmission),
            inst.submission_order());
}

TEST(StaticOrders, JohnsonPolicyMatchesJohnsonOrder) {
  const Instance inst = testing::table5_instance();
  EXPECT_EQ(static_order(inst, StaticOrderPolicy::kJohnson),
            johnson_order(inst));
}

TEST(StaticOrders, SortKeysAreMonotone) {
  Rng rng(5);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const auto iocms = static_order(inst, StaticOrderPolicy::kIncreasingComm);
    EXPECT_TRUE(std::is_sorted(
        iocms.begin(), iocms.end(),
        [&](TaskId a, TaskId b) { return inst[a].comm < inst[b].comm; }));
    const auto docps = static_order(inst, StaticOrderPolicy::kDecreasingComp);
    EXPECT_TRUE(std::is_sorted(
        docps.begin(), docps.end(),
        [&](TaskId a, TaskId b) { return inst[a].comp > inst[b].comp; }));
    const auto ioccs =
        static_order(inst, StaticOrderPolicy::kIncreasingCommPlusComp);
    EXPECT_TRUE(std::is_sorted(ioccs.begin(), ioccs.end(),
                               [&](TaskId a, TaskId b) {
                                 return inst[a].total_time() <
                                        inst[b].total_time();
                               }));
    const auto doccs =
        static_order(inst, StaticOrderPolicy::kDecreasingCommPlusComp);
    EXPECT_TRUE(std::is_sorted(doccs.begin(), doccs.end(),
                               [&](TaskId a, TaskId b) {
                                 return inst[a].total_time() >
                                        inst[b].total_time();
                               }));
  }
}

TEST(StaticOrders, EveryPolicyYieldsPermutation) {
  Rng rng(6);
  const Instance inst = testing::random_instance(rng, 15);
  for (StaticOrderPolicy p :
       {StaticOrderPolicy::kSubmission, StaticOrderPolicy::kJohnson,
        StaticOrderPolicy::kIncreasingComm, StaticOrderPolicy::kDecreasingComp,
        StaticOrderPolicy::kIncreasingCommPlusComp,
        StaticOrderPolicy::kDecreasingCommPlusComp}) {
    EXPECT_TRUE(is_permutation_of_all(static_order(inst, p), inst.size()));
  }
}

TEST(StaticOrders, SchedulesFeasibleUnderCapacity) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = testing::random_instance(rng, 10);
    const Mem capacity = testing::random_capacity(rng, inst);
    for (const char* name : {"OOSIM", "IOCMS", "DOCPS", "IOCCS", "DOCCS"}) {
      const Schedule s = testing::solve_named(inst, capacity, name).schedule;
      EXPECT_TRUE(testing::feasible(inst, s, capacity)) << name;
    }
  }
}

/// The heuristic table maps each static acronym to its policy's order.
TEST(StaticOrders, Acronyms) {
  const std::pair<const char*, StaticOrderPolicy> rows[] = {
      {"OS", StaticOrderPolicy::kSubmission},
      {"OOSIM", StaticOrderPolicy::kJohnson},
      {"IOCMS", StaticOrderPolicy::kIncreasingComm},
      {"DOCPS", StaticOrderPolicy::kDecreasingComp},
      {"IOCCS", StaticOrderPolicy::kIncreasingCommPlusComp},
      {"DOCCS", StaticOrderPolicy::kDecreasingCommPlusComp},
  };
  Rng rng(8);
  const Instance inst = testing::random_instance(rng, 20);
  for (const auto& [name, policy] : rows) {
    const Heuristic* h = find_heuristic(name);
    ASSERT_NE(h, nullptr) << name;
    ASSERT_NE(h->order, nullptr) << name;
    EXPECT_EQ(h->order(inst, inst.min_capacity()), static_order(inst, policy))
        << name;
  }
}

TEST(StaticOrders, StableTieBreaking) {
  // Identical tasks: every order policy must preserve submission order.
  const Instance inst = Instance::from_comm_comp({{2, 3}, {2, 3}, {2, 3}});
  for (StaticOrderPolicy p :
       {StaticOrderPolicy::kIncreasingComm, StaticOrderPolicy::kDecreasingComp,
        StaticOrderPolicy::kIncreasingCommPlusComp,
        StaticOrderPolicy::kDecreasingCommPlusComp}) {
    EXPECT_EQ(static_order(inst, p), (std::vector<TaskId>{0, 1, 2}));
  }
}

}  // namespace
}  // namespace dts
