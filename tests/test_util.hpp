#pragma once

/// Shared fixtures for the dts test suite: the paper's example instances
/// (Tables 2-5) and seeded random instance generators for property tests.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "core/registry.hpp"
#include "core/schedule.hpp"
#include "core/solver.hpp"
#include "core/validate.hpp"
#include "support/rng.hpp"

namespace dts::testing {

/// Table 2 (Proposition 1): optimal schedules need different orders on the
/// two resources when the capacity is 10.
inline Instance table2_instance() {
  return Instance::from_comm_comp({
      {0, 5},  // A
      {4, 3},  // B
      {1, 6},  // C
      {3, 7},  // D
      {6, 0.5},  // E
      {7, 0.5},  // F
  });
}
inline constexpr Mem kTable2Capacity = 10.0;

/// Table 3 (static-order examples, Fig. 4), capacity 6.
inline Instance table3_instance() {
  return Instance::from_comm_comp({
      {3, 2},  // A
      {1, 3},  // B
      {4, 4},  // C
      {2, 1},  // D
  });
}
inline constexpr Mem kTable3Capacity = 6.0;

/// Table 4 (dynamic examples, Fig. 5), capacity 6.
inline Instance table4_instance() {
  return Instance::from_comm_comp({
      {3, 2},  // A
      {1, 6},  // B
      {4, 6},  // C
      {5, 1},  // D
  });
}
inline constexpr Mem kTable4Capacity = 6.0;

/// Table 5 (corrections examples, Fig. 6), capacity 9.
inline Instance table5_instance() {
  return Instance::from_comm_comp({
      {4, 1},  // A
      {2, 6},  // B
      {8, 8},  // C
      {5, 4},  // D
      {3, 2},  // E
  });
}
inline constexpr Mem kTable5Capacity = 9.0;

/// Fig. 6 feeds the corrections heuristics the base order B C D A E.
inline std::vector<TaskId> table5_paper_omim_order() { return {1, 2, 3, 0, 4}; }

/// Random instance with durations in (0, 10] and memory equal to the
/// communication time (the paper's convention). Occasionally emits
/// zero-communication or zero-computation tasks to cover the edge cases
/// the paper's own examples contain.
inline Instance random_instance(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Time comm = rng.uniform(0.0, 10.0);
    Time comp = rng.uniform(0.0, 10.0);
    if (rng.chance(0.08)) comm = 0.0;
    if (rng.chance(0.08)) comp = 0.0;
    if (rng.chance(0.25)) comm = std::floor(comm);  // exercise ties
    if (rng.chance(0.25)) comp = std::floor(comp);
    tasks.push_back(Task{.id = 0, .comm = comm, .comp = comp, .mem = comm,
                         .name = {}});
  }
  return Instance(std::move(tasks));
}

/// Random instance whose memory is decoupled from the communication time.
inline Instance random_instance_free_mem(Rng& rng, std::size_t n) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks.push_back(Task{.id = 0,
                         .comm = rng.uniform(0.0, 10.0),
                         .comp = rng.uniform(0.0, 10.0),
                         .mem = rng.uniform(0.1, 10.0),
                         .name = {}});
  }
  return Instance(std::move(tasks));
}

/// Capacity between mc (tightest feasible) and a multiple of it.
inline Mem random_capacity(Rng& rng, const Instance& inst, double max_factor = 3.0) {
  const Mem mc = inst.min_capacity();
  return mc <= 0.0 ? 1.0 : mc * rng.uniform(1.0, max_factor);
}

/// solve() of the solver named `solver` (e.g. a heuristic acronym) on
/// `inst` under `capacity`.
inline SolveResult solve_named(const Instance& inst, Mem capacity,
                               std::string_view solver) {
  SolveRequest request;
  request.instance = inst;
  request.capacity = capacity;
  return solve(request, solver);
}

/// Every row of the heuristic table (core/registry.hpp), display order.
inline std::vector<const Heuristic*> all_rows() {
  std::vector<const Heuristic*> rows;
  for (const Heuristic& h : heuristics()) rows.push_back(&h);
  return rows;
}

/// A heuristic-table row as a test parameter: its index in heuristics().
/// gtest prints it as its four bytes, so parameterized test names do not
/// depend on where the table sits in memory.
struct TableRow {
  std::uint32_t index = 0;
  [[nodiscard]] const Heuristic& get() const { return heuristics()[index]; }
};

/// Every row as a test parameter, display order.
inline std::vector<TableRow> table_rows() {
  std::vector<TableRow> rows;
  for (std::uint32_t k = 0; k < heuristics().size(); ++k) rows.push_back({k});
  return rows;
}

/// Gtest-friendly feasibility assertion.
inline ::testing::AssertionResult feasible(const Instance& inst,
                                           const Schedule& sched,
                                           Mem capacity) {
  const ValidationReport report = validate_schedule(inst, sched, capacity);
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.summary();
}

}  // namespace dts::testing
