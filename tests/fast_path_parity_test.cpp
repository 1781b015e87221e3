/// \file fast_path_parity_test.cpp
/// Bit-for-bit parity of the execution engine — `ExecutionState` driven
/// through `execute_order`, and the compiled `evaluate_order` /
/// `PrefixResumeEvaluator` path built on it — against golden records and
/// against from-scratch evaluation. Every comparison here is EXACT double
/// equality, not epsilon-based: even the last ulp must agree.
///
/// The seeded-corpus suites compare against tests/golden/
/// fast_path_parity.golden: the makespan, final engine state and every
/// start time (%.17g) that the independent reference engine produced for
/// each case before the two engines were merged into one. One line per
/// case: suite, case index, makespan, now, comp_available,
/// comm_available, used_memory, active_tasks, the issued-task count k,
/// then k triples (id, comm_start, comp_start) in issue order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/compiled.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulate.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dts {
namespace {

/// Random instance across `channels` engines, memory decoupled from the
/// communication time, with the same tie/zero edge cases the differential
/// suite uses.
Instance random_channel_instance(Rng& rng, std::size_t n,
                                 std::size_t channels) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Task t;
    t.comm = rng.uniform(0.0, 10.0);
    t.comp = rng.uniform(0.0, 10.0);
    if (rng.chance(0.1)) t.comm = 0.0;
    if (rng.chance(0.1)) t.comp = 0.0;
    if (rng.chance(0.25)) t.comm = std::floor(t.comm);
    if (rng.chance(0.25)) t.comp = std::floor(t.comp);
    t.mem = rng.uniform(0.1, 10.0);
    t.channel = static_cast<ChannelId>(rng.index(channels));
    tasks.push_back(std::move(t));
  }
  return Instance(std::move(tasks));
}

std::vector<TaskId> shuffled_order(Rng& rng, const Instance& inst) {
  std::vector<TaskId> order = inst.submission_order();
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.index(i)]);
  }
  return order;
}

/// Capacity regimes the corpus sweeps: the tightest feasible, a mildly
/// constrained one, and effectively unconstrained.
Mem capacity_for(const Instance& inst, int regime) {
  const Mem mc = std::max(inst.min_capacity(), 0.1);
  switch (regime) {
    case 0: return mc;              // tightest: admission waits dominate
    case 1: return 1.5 * mc;        // constrained
    default: return 1e9;            // effectively infinite
  }
}

/// One recorded case of the golden file.
struct GoldenCase {
  Time makespan = 0.0;
  Time now = 0.0;
  Time comp_available = 0.0;
  Time comm_available = 0.0;
  Mem used_memory = 0.0;
  std::size_t active_tasks = 0;
  std::vector<TaskId> issued;
  std::vector<TaskTimes> starts;  ///< aligned with `issued`
};

using GoldenKey = std::pair<std::string, int>;

const std::map<GoldenKey, GoldenCase>& goldens() {
  static const std::map<GoldenKey, GoldenCase> table = [] {
    std::map<GoldenKey, GoldenCase> cases;
    std::ifstream in(DTS_TEST_GOLDEN_DIR "/fast_path_parity.golden");
    if (!in) throw std::runtime_error("cannot open fast_path_parity.golden");
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      GoldenKey key;
      GoldenCase g;
      std::size_t k = 0;
      fields >> key.first >> key.second >> g.makespan >> g.now >>
          g.comp_available >> g.comm_available >> g.used_memory >>
          g.active_tasks >> k;
      g.issued.reserve(k);
      g.starts.reserve(k);
      for (std::size_t i = 0; i < k; ++i) {
        TaskId id = 0;
        TaskTimes tt;
        fields >> id >> tt.comm_start >> tt.comp_start;
        g.issued.push_back(id);
        g.starts.push_back(tt);
      }
      if (!fields) throw std::runtime_error("malformed golden line: " + line);
      cases.emplace(std::move(key), std::move(g));
    }
    return cases;
  }();
  return table;
}

const GoldenCase& golden(const char* suite, int iter) {
  return goldens().at(GoldenKey(suite, iter));
}

/// The engine's final state must match the record, not just the makespan:
/// batch and exact callers read these for carried state and tie-breaks.
void expect_state(const GoldenCase& g, const ExecutionState& state,
                  int iter) {
  ASSERT_EQ(g.comp_available, state.comp_available()) << iter;
  ASSERT_EQ(g.comm_available, state.comm_available()) << iter;
  ASSERT_EQ(g.now, state.now()) << iter;
  ASSERT_EQ(g.used_memory, state.used_memory()) << iter;
  ASSERT_EQ(g.active_tasks, state.active_tasks()) << iter;
}

void expect_starts(const GoldenCase& g, const Schedule& sched, int iter) {
  for (std::size_t i = 0; i < g.issued.size(); ++i) {
    const TaskId id = g.issued[i];
    const TaskTimes& want = g.starts[i];
    ASSERT_EQ(want.comm_start, sched[id].comm_start) << iter << ' ' << id;
    ASSERT_EQ(want.comp_start, sched[id].comp_start) << iter << ' ' << id;
  }
}

/// execute_order on a fresh engine, checked against the record in full.
void expect_execute_order(const GoldenCase& g, const Instance& inst,
                          std::span<const TaskId> order, Mem capacity,
                          int iter) {
  ExecutionState state(capacity, inst.num_channels());
  Schedule sched(inst.size());
  execute_order(inst, order, state, sched);
  ASSERT_EQ(g.makespan, sched.makespan(inst)) << iter;
  expect_state(g, state, iter);
  expect_starts(g, sched, iter);
}

TEST(FastPathParity, EvaluateOrderMatchesReferenceEngineBitForBit) {
  Rng rng(2026);
  EvalScratch scratch;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t channels = 1 + rng.index(3);
    const std::size_t n = 1 + rng.index(14);
    const Instance inst = random_channel_instance(rng, n, channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order = shuffled_order(rng, inst);
    const GoldenCase& g = golden("evaluate-order", iter);
    ASSERT_EQ(g.issued, order) << "corpus drifted from the golden at " << iter;

    const CompiledInstance ci(inst);
    ASSERT_EQ(g.makespan, evaluate_order(ci, order, capacity, scratch))
        << "iter " << iter;
    expect_state(g, scratch.state(), iter);
    expect_execute_order(g, inst, order, capacity, iter);
  }
}

TEST(FastPathParity, RecordingOverloadMatchesExecuteOrderSchedules) {
  Rng rng(777);
  EvalScratch scratch;
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 2 + rng.index(12),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order = shuffled_order(rng, inst);
    const GoldenCase& g = golden("recording-overload", iter);
    ASSERT_EQ(g.issued, order) << "corpus drifted from the golden at " << iter;

    const CompiledInstance ci(inst);
    Schedule got(inst.size());
    ASSERT_EQ(g.makespan, evaluate_order(ci, order, capacity, scratch, got))
        << iter;
    expect_starts(g, got, iter);
    expect_execute_order(g, inst, order, capacity, iter);
  }
}

TEST(FastPathParity, CarriedSnapshotsMatchMidStream) {
  // Split an order in two, run the first half, snapshot, and verify both
  // entry points replay the second half from that snapshot exactly as
  // recorded.
  Rng rng(31337);
  EvalScratch scratch;
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 4 + rng.index(10),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order = shuffled_order(rng, inst);
    const std::size_t cut = 1 + rng.index(order.size() - 1);
    const std::span<const TaskId> head(order.data(), cut);
    const std::span<const TaskId> tail(order.data() + cut,
                                       order.size() - cut);
    const GoldenCase& g = golden("carried-snapshot", iter);
    ASSERT_TRUE(std::equal(tail.begin(), tail.end(), g.issued.begin(),
                           g.issued.end()))
        << "corpus drifted from the golden at " << iter;

    ExecutionState warmup(capacity, inst.num_channels());
    Schedule partial(inst.size());
    execute_order(inst, head, warmup, partial);
    const ExecutionState::Snapshot snap = warmup.snapshot();

    ExecutionState resumed(capacity, snap);
    Schedule want(inst.size());
    execute_order(inst, tail, resumed, want);
    expect_state(g, resumed, iter);
    expect_starts(g, want, iter);

    const CompiledInstance ci(inst);
    Schedule got(inst.size());
    ASSERT_EQ(g.makespan,
              evaluate_order(ci, tail, capacity, scratch, got, &snap))
        << iter;
    expect_state(g, scratch.state(), iter);
    expect_starts(g, got, iter);
  }
}

TEST(FastPathParity, PrefixResumeMatchesFromScratchOnSwapNeighborhoods) {
  Rng rng(90210);
  EvalScratch scratch;
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 6 + rng.index(10),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const CompiledInstance ci(inst);
    PrefixResumeEvaluator evaluator(ci, capacity);

    std::vector<TaskId> reference = shuffled_order(rng, inst);
    ASSERT_EQ(evaluate_order(ci, reference, capacity, scratch),
              evaluator.set_reference(reference))
        << rep;

    std::vector<TaskId> candidate;
    for (int move = 0; move < 50; ++move) {
      candidate = reference;
      const std::size_t n = candidate.size();
      if (rng.chance(0.5)) {  // adjacent swap — the local-search hot case
        const std::size_t i = rng.index(n - 1);
        std::swap(candidate[i], candidate[i + 1]);
      } else {  // arbitrary pair swap
        std::swap(candidate[rng.index(n)], candidate[rng.index(n)]);
      }
      const Time from_scratch = evaluate_order(ci, candidate, capacity,
                                               scratch);
      ASSERT_EQ(from_scratch, evaluator.evaluate(candidate))
          << rep << " move " << move;
      // Occasionally move the reference — exercises the incremental
      // re-checkpointing path local search takes on every improvement.
      if (rng.chance(0.2)) {
        ASSERT_EQ(from_scratch, evaluator.set_reference(candidate))
            << rep << " move " << move;
        reference = candidate;
      }
    }
    // The whole point: checkpoints must actually be resumed from.
    EXPECT_GT(evaluator.tasks_resumed(), 0u) << rep;
  }
}

TEST(FastPathParity, PrefixResumeMatchesWithCarriedSnapshot) {
  Rng rng(4242);
  EvalScratch scratch;
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t channels = 1 + rng.index(3);
    const Instance inst = random_channel_instance(rng, 6 + rng.index(8),
                                                  channels);
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));

    // Any engine state reached by real execution is a valid carried state.
    ExecutionState warmup(capacity, inst.num_channels());
    Schedule partial(inst.size());
    const std::vector<TaskId> all = shuffled_order(rng, inst);
    const std::size_t cut = 1 + rng.index(all.size() - 2);
    execute_order(inst, std::span<const TaskId>(all.data(), cut), warmup,
                  partial);
    const ExecutionState::Snapshot snap = warmup.snapshot();
    const std::vector<TaskId> rest(all.begin() +
                                       static_cast<std::ptrdiff_t>(cut),
                                   all.end());

    const CompiledInstance ci(inst);
    PrefixResumeEvaluator evaluator(ci, capacity, snap);
    ASSERT_EQ(evaluate_order(ci, rest, capacity, scratch, &snap),
              evaluator.set_reference(rest))
        << rep;
    std::vector<TaskId> candidate = rest;
    for (int move = 0; move < 20 && candidate.size() > 1; ++move) {
      const std::size_t i = rng.index(candidate.size() - 1);
      std::swap(candidate[i], candidate[i + 1]);
      ASSERT_EQ(evaluate_order(ci, candidate, capacity, scratch, &snap),
                evaluator.evaluate(candidate))
          << rep << " move " << move;
    }
  }
}

TEST(FastPathParity, NextPermutationScanMatchesFromScratch) {
  // The exhaustive solver moves the reference once per permutation; the
  // resumed stream must track a from-scratch evaluation bit for bit.
  Rng rng(555);
  EvalScratch scratch;
  for (std::size_t channels = 1; channels <= 3; ++channels) {
    const Instance inst = random_channel_instance(rng, 5, channels);
    const Mem capacity = capacity_for(inst, 1);
    const CompiledInstance ci(inst);
    PrefixResumeEvaluator evaluator(ci, capacity);
    std::vector<TaskId> order = inst.submission_order();
    do {
      ASSERT_EQ(evaluate_order(ci, order, capacity, scratch),
                evaluator.set_reference(order));
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_GT(evaluator.tasks_resumed(), 0u);
  }
}

TEST(FastPathParity, ErrorPathsMatchTheReferenceEngine) {
  const Instance inst = Instance::from_comm_comp({{2, 3}, {4, 1}});
  const CompiledInstance ci(inst);
  const std::vector<TaskId> order = inst.submission_order();
  EvalScratch scratch;

  // Negative capacity: the engine's restore rejects it on both paths.
  EXPECT_THROW((void)evaluate_order(ci, order, -1.0, scratch),
               std::invalid_argument);
  EXPECT_THROW(ExecutionState(-1.0), std::invalid_argument);

  // A task that can never fit: identical type AND message on both entry
  // points (callers print these; the diagnostics must not degrade).
  const Mem tiny = 3.0;  // task 1 needs mem 4 (mem == comm here)
  const std::string want =
      "execute_order: task 1 requires 4.000000 bytes but capacity is "
      "3.000000";
  try {
    ExecutionState state(tiny, inst.num_channels());
    Schedule sched(inst.size());
    execute_order(inst, order, state, sched);
    FAIL() << "execute_order accepted an infeasible task";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(want, e.what());
  }
  try {
    (void)evaluate_order(ci, order, tiny, scratch);
    FAIL() << "evaluate_order accepted an infeasible task";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(want, e.what());
  }

  // Unknown task id and unknown channel: out_of_range with exact texts.
  const std::vector<TaskId> bogus = {0, 7};
  try {
    (void)evaluate_order(ci, bogus, 100.0, scratch);
    FAIL() << "evaluate_order accepted an unknown task";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(
        "evaluate_order: task id 7 out of range (instance has 2 tasks)",
        e.what());
  }
  ExecutionState one_link(100.0, 1);
  try {
    (void)one_link.issue(5, 1.0, 1.0, 1.0, 1);
    FAIL() << "the engine accepted an unknown channel";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ("evaluate_order: task 5 names channel 1 but the engine "
                 "tracks 1",
                 e.what());
  }

  // Issuing a successor before its predecessor: invalid_argument with the
  // same text on both entry points.
  std::vector<Task> chain = {Task{.comm = 1, .comp = 1, .mem = 1, .name = {}},
                             Task{.comm = 1, .comp = 1, .mem = 1, .name = {}}};
  chain[1].deps = {0};
  const Instance dag(std::move(chain));
  const CompiledInstance dag_ci(dag);
  const std::vector<TaskId> backwards = {1, 0};
  const char* const unissued =
      "execute_order: task 1 issued before its predecessor 0";
  try {
    (void)evaluate_order(dag_ci, backwards, 100.0, scratch);
    FAIL() << "evaluate_order issued a task before its predecessor";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(unissued, e.what());
  }
  try {
    ExecutionState state(100.0, dag.num_channels());
    Schedule sched(dag.size());
    execute_order(dag, backwards, state, sched);
    FAIL() << "execute_order issued a task before its predecessor";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(unissued, e.what());
  }

  // A failed set_reference invalidates the reference instead of leaving
  // half-recorded checkpoints behind.
  PrefixResumeEvaluator evaluator(ci, tiny);
  EXPECT_THROW((void)evaluator.set_reference(order), std::invalid_argument);
  EXPECT_TRUE(evaluator.reference().empty());
}

TEST(FastPathParity, ReexpressedEntryPointsStillAgreeWithTheOracle) {
  // simulate_order/makespan_of_order run on the compiled path; pin them
  // against the golden record too.
  Rng rng(8);
  for (int iter = 0; iter < 50; ++iter) {
    const Instance inst = random_channel_instance(rng, 2 + rng.index(10),
                                                  1 + rng.index(3));
    const Mem capacity = capacity_for(inst, static_cast<int>(rng.index(3)));
    const std::vector<TaskId> order = shuffled_order(rng, inst);
    const GoldenCase& g = golden("reexpressed-entry-points", iter);
    ASSERT_EQ(g.issued, order) << "corpus drifted from the golden at " << iter;

    ASSERT_EQ(g.makespan, makespan_of_order(inst, order, capacity)) << iter;
    expect_starts(g, simulate_order(inst, order, capacity), iter);
  }
}

}  // namespace
}  // namespace dts
