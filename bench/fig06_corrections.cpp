/// Fig. 6 / Table 5 — the three static-order-with-dynamic-corrections
/// schedules on the Table 5 instance with capacity 9 and the figure's OMIM
/// base order B C D A E.

#include <cstdio>

#include "bench_common.hpp"
#include "core/registry.hpp"
#include "heuristics/corrections.hpp"
#include "report/gantt.hpp"

int main(int argc, char** argv) {
  using namespace dts;
  const bench::Options options = bench::Options::parse(argc, argv);

  const Instance inst =
      Instance::from_comm_comp({{4, 1}, {2, 6}, {8, 8}, {5, 4}, {3, 2}});
  constexpr Mem kCapacity = 9.0;
  const std::vector<TaskId> base{1, 2, 3, 0, 4};  // B C D A E (Fig. 6)

  std::printf(
      "Fig. 6 — corrections heuristics on Table 5 (capacity 9, base order "
      "B C D A E):\n\n");
  TextTable table({"heuristic", "realized order", "makespan", "paper"});
  const struct {
    const char* name;
    const char* expected;
  } rows[] = {{"OOLCMR", "33"}, {"OOSCMR", "35"}, {"OOMAMR", "33"}};
  for (const auto& row : rows) {
    const Schedule s = schedule_corrected_with_order(
        inst, base, find_heuristic(row.name)->criterion, kCapacity);
    std::string order_str;
    for (TaskId id : s.comm_order()) order_str += static_cast<char>('A' + id);
    table.add_row({row.name, order_str,
                   format_fixed(s.makespan(inst), 0), row.expected});
    std::printf("%s (order %s), makespan %.0f:\n%s\n",
                row.name, order_str.c_str(), s.makespan(inst),
                render_gantt(inst, s, {.width = 60, .show_legend = false})
                    .c_str());
  }
  std::printf("%s", table.to_ascii().c_str());
  bench::write_table_csv(options, "fig06_corrections", table);
  return 0;
}
