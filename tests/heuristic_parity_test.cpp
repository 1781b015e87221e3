/// \file heuristic_parity_test.cpp
/// Bit-for-bit parity of every heuristic-driven solver against
/// tests/golden/heuristic_parity.golden, recorded before the heuristics
/// were folded into one registry table. Each line is one solve: a kind,
/// the case, the solver, then the result with every double printed as
/// %.17g, so two lines match only when every makespan and start time
/// agrees to the last ulp.
///
/// Kinds:
///  * `heuristic` — each of the 14 acronyms: makespan, then the
///    (comm_start, comp_start) of every task;
///  * `batch8` — the same under an 8-task batch window, and `batch-all`
///    under one window holding the whole instance (on a DAG that batch
///    walks the topological order, not the submission order);
///  * `auto` — auto and each auto:FAMILY: winner, makespan, every
///    candidate's makespan, the winner's start times;
///  * `auto-batch` — auto-batch:16: the winner of every batch, the
///    per-candidate win counts, makespan and start times;
///  * `local-search` and `milp` — the searches seeded from the registry:
///    makespan, seed makespan or proof, evaluations, start times.
///
/// Cases: the paper's Tables 3 and 5, seeded HF, CCSD and CCSD-DAG
/// traces, and a CCSD trace on the duplex-pcie machine (two channels).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/pool.hpp"
#include "core/registry.hpp"
#include "core/solver.hpp"
#include "support/parallel_for.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace dts {
namespace {

struct ParityCase {
  std::string name;
  Instance instance;
  Mem capacity = 0.0;
};

const std::vector<ParityCase>& cases() {
  static const std::vector<ParityCase> all = [] {
    std::vector<ParityCase> out;
    out.push_back({"table3", testing::table3_instance(),
                   testing::kTable3Capacity});
    out.push_back({"table5", testing::table5_instance(),
                   testing::kTable5Capacity});
    TraceConfig config;
    config.seed = 7;
    config.min_tasks = 60;
    config.max_tasks = 80;
    const Instance hf = generate_trace(ChemistryKernel::kHartreeFock, config);
    out.push_back({"hf", hf, hf.min_capacity()});
    const Instance ccsd =
        generate_trace(ChemistryKernel::kCoupledClusterSD, config);
    out.push_back({"ccsd", ccsd, 1.25 * ccsd.min_capacity()});
    config.seed = 11;
    config.min_tasks = 40;
    config.max_tasks = 60;
    const Instance dag = generate_ccsd_dag_trace(config);
    out.push_back({"ccsd-dag", dag, 1.25 * dag.min_capacity()});
    config.seed = 3;
    config.min_tasks = 60;
    config.max_tasks = 80;
    config.machine = MachineModel::duplex_pcie();
    const Instance duplex =
        generate_trace(ChemistryKernel::kCoupledClusterSD, config);
    out.push_back({"ccsd-duplex", duplex, 1.5 * duplex.min_capacity()});
    return out;
  }();
  return all;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string starts(const Schedule& schedule) {
  std::string out = " " + std::to_string(schedule.size());
  for (TaskId i = 0; i < schedule.size(); ++i) {
    out += " " + num(schedule[i].comm_start) + " " +
           num(schedule[i].comp_start);
  }
  return out;
}

SolveRequest request_for(const ParityCase& c) {
  SolveRequest request;
  request.instance = c.instance;
  request.capacity = c.capacity;
  return request;
}

/// Per-batch winners of auto-batch over the whole registry.
std::vector<std::string> batch_winners(const Instance& inst, Mem capacity,
                                       std::size_t batch) {
  SerialExecutor serial;
  const BatchAutoResult res = schedule_in_batches_auto(
      inst, capacity, batch, testing::all_rows(), serial);
  std::vector<std::string> names;
  for (const Heuristic* h : res.winners) names.emplace_back(h->name);
  return names;
}

/// The golden-format records of one kind; `parallel` switches the
/// candidate fan-out of auto and auto-batch.
std::vector<std::string> records(const std::string& kind,
                                 bool parallel = true) {
  SolveOptions fan_out;
  fan_out.parallel_candidates = parallel;
  std::vector<std::string> lines;
  for (const ParityCase& c : cases()) {
    const std::string head = kind + " " + c.name + " ";
    if (kind == "heuristic" || kind == "batch8" || kind == "batch-all") {
      for (const Heuristic& h : heuristics()) {
        SolveRequest request = request_for(c);
        if (kind == "batch8") request.batch_size = 8;
        if (kind == "batch-all") request.batch_size = c.instance.size();
        const SolveResult res = solve(request, h.name);
        lines.push_back(head + std::string(h.name) + " " + num(res.makespan) +
                        starts(res.schedule));
      }
    } else if (kind == "auto") {
      for (const char* name : {"auto", "auto:all", "auto:baseline",
                               "auto:static", "auto:dynamic",
                               "auto:corrected"}) {
        const SolveResult res = solve(request_for(c), name, fan_out);
        std::string line = head + name + " " + res.winner + " " +
                           num(res.makespan) + " " +
                           std::to_string(res.outcomes.size());
        for (const CandidateOutcome& o : res.outcomes) {
          line += " " + o.name + " " + num(o.makespan);
        }
        lines.push_back(line + starts(res.schedule));
      }
    } else if (kind == "auto-batch") {
      const std::vector<std::string> winners =
          batch_winners(c.instance, c.capacity, 16);
      const SolveResult res = solve(request_for(c), "auto-batch:16", fan_out);
      std::string line = head + res.winner + " " + num(res.makespan) + " " +
                         std::to_string(winners.size());
      for (const std::string& w : winners) line += " " + w;
      for (const CandidateOutcome& o : res.outcomes) {
        line += " " + o.name + " " + std::to_string(o.batch_wins);
      }
      lines.push_back(line + starts(res.schedule));
    } else if (kind == "local-search") {
      SolveOptions options;
      options.max_iterations = 300;
      options.seed = 9;
      const SolveResult res = solve(request_for(c), "local-search", options);
      lines.push_back(head + num(res.makespan) + " " +
                      num(res.outcomes.front().makespan) + " " +
                      std::to_string(res.evaluations) + starts(res.schedule));
    } else if (kind == "milp" && c.instance.size() <= 5) {
      const SolveResult res = solve(request_for(c), "milp");
      lines.push_back(head + num(res.makespan) + " " +
                      std::to_string(res.evaluations) + " " +
                      (res.proved_optimal ? "proved" : "open") +
                      starts(res.schedule));
    }
  }
  return lines;
}

/// Selects records by their tokens: kind, case, then (for `heuristic`,
/// `batch*` and `auto`) the solver.
using Filter = std::function<bool(const std::vector<std::string>& tokens)>;

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string t; tokens.size() < 3 && in >> t;) tokens.push_back(t);
  return tokens;
}

std::vector<std::string> kept(const std::vector<std::string>& lines,
                              const std::string& kind, const Filter& keep) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    const std::vector<std::string> tokens = tokens_of(line);
    if (tokens.front() == kind && (!keep || keep(tokens))) {
      out.push_back(line);
    }
  }
  return out;
}

const std::vector<std::string>& golden_lines() {
  static const std::vector<std::string> lines = [] {
    std::ifstream in(DTS_TEST_GOLDEN_DIR "/heuristic_parity.golden");
    if (!in) throw std::runtime_error("cannot open heuristic_parity.golden");
    std::vector<std::string> all;
    for (std::string line; std::getline(in, line);) all.push_back(line);
    return all;
  }();
  return lines;
}

/// Lines are compared as strings: equal %.17g text is equal doubles. The
/// first three tokens name the solve, so a failure points at it.
void expect_matches_golden(const std::string& kind, const Filter& keep = {},
                           bool parallel = true) {
  const std::vector<std::string> expected =
      kept(golden_lines(), kind, keep);
  const std::vector<std::string> actual =
      kept(records(kind, parallel), kind, keep);
  ASSERT_FALSE(expected.empty()) << kind;
  ASSERT_EQ(actual.size(), expected.size()) << kind;
  for (std::size_t k = 0; k < actual.size(); ++k) {
    EXPECT_EQ(actual[k], expected[k]) << "record " << k;
  }
}

bool paper_case(const std::vector<std::string>& tokens) {
  return tokens[1] == "table3" || tokens[1] == "table5";
}

TEST(SolveParity, PaperExamplesMatchRunHeuristic) {
  expect_matches_golden("heuristic", paper_case);
}

TEST(HeuristicParity, EveryAcronymMatchesGolden) {
  expect_matches_golden("heuristic", [](const auto& tokens) {
    return !paper_case(tokens);
  });
}

TEST(HeuristicParity, BatchWindowsMatchGolden) {
  expect_matches_golden("batch8");
}

TEST(HeuristicParity, WholeInstanceBatchMatchesGolden) {
  expect_matches_golden("batch-all");
}

/// `auto` over every row, with the candidates run serially and fanned out.
TEST(SolveParity, AutoMatchesAutoSchedule) {
  const Filter all_rows = [](const auto& tokens) {
    return tokens[2] == "auto" || tokens[2] == "auto:all";
  };
  expect_matches_golden("auto", all_rows, /*parallel=*/false);
  expect_matches_golden("auto", all_rows, /*parallel=*/true);
}

TEST(SolveParity, AutoFamilySubsetsMatchAutoSchedule) {
  expect_matches_golden("auto", [](const auto& tokens) {
    return tokens[2] != "auto" && tokens[2] != "auto:all";
  });
}

TEST(HeuristicParity, AutoBatchWinnersMatchGolden) {
  expect_matches_golden("auto-batch", {}, /*parallel=*/false);
  expect_matches_golden("auto-batch", {}, /*parallel=*/true);
}

/// local-search seeds from the best_of fold over the table.
TEST(SolveParity, LocalSearchMatchesLegacy) {
  expect_matches_golden("local-search");
}

/// milp warm-starts from every row of the table.
TEST(HeuristicParity, MilpWarmStartMatchesGolden) {
  expect_matches_golden("milp");
}

/// One fan-out rule for auto and auto-batch: serial, fresh threads and a
/// SolverPool must give bitwise-equal winners, outcomes and schedules.
TEST(CandidateFanOut, SerialThreadAndPoolRunsAgree) {
  SolverPool pool(SolverPoolOptions{.workers = 3});
  SolveOptions serial;
  serial.parallel_candidates = false;
  SolveOptions threads;  // parallel_candidates on, no executor
  SolveOptions pooled;
  pooled.executor = &pool;
  const auto render = [](const SolveResult& res) {
    std::string line = res.winner + " " + num(res.makespan);
    for (const CandidateOutcome& o : res.outcomes) {
      line += " " + o.name + " " + num(o.makespan) + " " +
              std::to_string(o.batch_wins);
    }
    return line + starts(res.schedule);
  };
  for (const ParityCase& c : cases()) {
    for (const char* solver : {"auto", "auto-batch:8"}) {
      const std::string expected = render(solve(request_for(c), solver, serial));
      EXPECT_EQ(render(solve(request_for(c), solver, threads)), expected)
          << c.name << " " << solver << " on threads";
      EXPECT_EQ(render(solve(request_for(c), solver, pooled)), expected)
          << c.name << " " << solver << " on the pool";
    }
  }
}

/// The thread executor rethrows the exception of the lowest throwing
/// index on the caller, after every thread joined.
TEST(CandidateFanOut, ThreadExecutorRethrowsLowestIndex) {
  ThreadExecutor threads;
  std::vector<int> ran(64, 0);
  try {
    threads.for_each(ran.size(), [&](std::size_t i) {
      ran[i] = 1;
      if (i % 10 == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
  EXPECT_EQ(ran.front(), 1);
}

}  // namespace
}  // namespace dts
