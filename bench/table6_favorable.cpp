/// Table 6 — "Heuristics and their favorable scenarios", checked
/// empirically: for each scenario row we synthesize workloads of that
/// regime, run every heuristic, and report how the row's favored
/// heuristic ranks. The recommender (core/recommend.hpp) encodes the same
/// table; the bench also reports how often the recommended heuristic
/// lands within 2% of the best.

#include <cstdio>
#include <functional>
#include <string_view>

#include "bench_common.hpp"
#include "core/recommend.hpp"
#include "core/solver.hpp"
#include "support/rng.hpp"

namespace {

using namespace dts;

/// A synthetic scenario: workload generator + capacity rule.
struct Scenario {
  std::string label;
  std::string_view favored;  ///< acronym of a heuristic-table row
  std::function<Instance(Rng&)> make;
  std::function<Mem(const Instance&)> capacity;
};

Instance make_tasks(Rng& rng, std::size_t n,
                    const std::function<Task(Rng&, std::size_t)>& gen) {
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) tasks.push_back(gen(rng, i));
  return Instance(std::move(tasks));
}

Task task_of(Time comm, Time comp) {
  return Task{.id = 0, .comm = comm, .comp = comp, .mem = comm, .name = {}};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::Options::parse(argc, argv);
  const std::size_t kRuns = std::max<std::size_t>(options.traces / 3, 20);

  std::vector<Scenario> scenarios;
  // OOSIM: memory not a restriction.
  scenarios.push_back(
      {"no memory restriction (OOSIM optimal)", "OOSIM",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t) {
           return task_of(r.uniform(1, 9), r.uniform(1, 9));
         });
       },
       [](const Instance& inst) { return inst.stats().total_mem; }});
  // IOCCS: moderate capacity, mostly highly compute intensive.
  scenarios.push_back(
      {"moderate capacity, highly compute intensive (IOCCS)",
       "IOCCS",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t) {
           const Time comm = r.uniform(1, 6);
           return task_of(comm, comm * r.uniform(2.0, 5.0));
         });
       },
       [](const Instance& inst) { return 1.7 * inst.min_capacity(); }});
  // DOCCS: moderate capacity, mostly highly communication intensive.
  scenarios.push_back(
      {"moderate capacity, highly communication intensive (DOCCS)",
       "DOCCS",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t) {
           const Time comp = r.uniform(0.5, 3.0);
           return task_of(comp * r.uniform(2.0, 5.0), comp);
         });
       },
       [](const Instance& inst) { return 1.7 * inst.min_capacity(); }});
  // SCMR: limited capacity, compute-intensive tasks have small comm.
  scenarios.push_back(
      {"limited capacity, small-comm tasks compute intensive (SCMR)",
       "SCMR",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t) {
           if (r.chance(0.3)) {
             const Time comm = r.uniform(0.5, 2.0);
             return task_of(comm, comm * r.uniform(1.1, 2.0));
           }
           const Time comm = r.uniform(5.0, 9.0);
           return task_of(comm, comm * r.uniform(0.1, 0.5));
         });
       },
       [](const Instance& inst) { return 1.1 * inst.min_capacity(); }});
  // LCMR: limited capacity, large-comm tasks compute intensive.
  scenarios.push_back(
      {"limited capacity, large-comm tasks compute intensive (LCMR)",
       "LCMR",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t) {
           if (r.chance(0.3)) {
             const Time comm = r.uniform(5.0, 9.0);
             return task_of(comm, comm * r.uniform(1.1, 2.0));
           }
           const Time comm = r.uniform(0.5, 2.5);
           return task_of(comm, comm * r.uniform(0.2, 0.8));
         });
       },
       [](const Instance& inst) { return 1.1 * inst.min_capacity(); }});
  // MAMR: limited capacity, both types in quantity.
  scenarios.push_back(
      {"limited capacity, mixed task types (MAMR)", "MAMR",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t i) {
           const Time comm = r.uniform(1, 8);
           return task_of(comm, comm * (i % 2 == 0 ? r.uniform(1.2, 3.0)
                                                   : r.uniform(0.2, 0.8)));
         });
       },
       [](const Instance& inst) { return 1.1 * inst.min_capacity(); }});
  // OOMAMR: moderate capacity, mixed.
  scenarios.push_back(
      {"moderate capacity, mixed task types (OOMAMR)", "OOMAMR",
       [](Rng& rng) {
         return make_tasks(rng, 60, [&](Rng& r, std::size_t i) {
           const Time comm = r.uniform(1, 8);
           return task_of(comm, comm * (i % 2 == 0 ? r.uniform(1.2, 3.0)
                                                   : r.uniform(0.2, 0.8)));
         });
       },
       [](const Instance& inst) { return 1.7 * inst.min_capacity(); }});

  TextTable table({"scenario", "favored", "median rank", "within 2% of best",
                   "recommender hit"});
  Rng rng(options.seed * 7919 + 13);
  for (const Scenario& sc : scenarios) {
    std::vector<double> ranks;
    std::size_t close = 0;
    std::size_t rec_close = 0;
    SolveOptions solve_options;
    solve_options.compute_bounds = false;
    for (std::size_t run = 0; run < kRuns; ++run) {
      Instance inst = sc.make(rng);
      const Mem capacity = sc.capacity(inst);
      SolveRequest request;
      request.instance = std::move(inst);
      request.capacity = capacity;
      const SolveResult res = solve(request, "auto", solve_options);
      Time favored_ms = kInfiniteTime;
      double rank = 1.0;
      for (const CandidateOutcome& o : res.outcomes) {
        if (o.name == sc.favored) favored_ms = o.makespan;
      }
      for (const CandidateOutcome& o : res.outcomes) {
        if (o.makespan < favored_ms - 1e-12) rank += 1.0;
      }
      ranks.push_back(rank);
      if (favored_ms <= res.makespan * 1.02) ++close;
      const Recommendation rec = recommend(request.instance, capacity);
      Time rec_ms = kInfiniteTime;
      for (const CandidateOutcome& o : res.outcomes) {
        if (o.name == rec.primary) rec_ms = o.makespan;
      }
      if (rec_ms <= res.makespan * 1.02) ++rec_close;
    }
    const BoxplotSummary s = summarize(std::move(ranks));
    table.add_row({sc.label, std::string(sc.favored),
                   format_fixed(s.median, 1),
                   format_fixed(100.0 * static_cast<double>(close) /
                                    static_cast<double>(kRuns), 0) + "%",
                   format_fixed(100.0 * static_cast<double>(rec_close) /
                                    static_cast<double>(kRuns), 0) + "%"});
  }
  std::printf("Table 6 — favorable scenarios, %zu runs each (rank 1 = best "
              "of all 14):\n%s",
              kRuns, table.to_ascii().c_str());
  bench::write_table_csv(options, "table6_favorable", table);
  return 0;
}
