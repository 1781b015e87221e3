// perfbench_driver: runs one workload and writes its raw record.
//
//   perfbench_driver --workload solve-large --seed 1 --seconds 10
//                    --trace 0 --out DIR
//
// writes DIR/raw.json (latencies, set-up times, counts, digests) and, with
// --trace 1, DIR/spans-<workload>.tsv for the selected workload and for a
// reduced pass of each other workload, so every layer has spans in every
// traced run. perfbench/run.py turns these into metrics.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "corpus.hpp"
#include "harness.hpp"
#include "spans.hpp"

namespace {

using perfbench::PassStats;
using perfbench::RunOptions;
using perfbench::WorkloadRun;

constexpr std::string_view kWorkloads[] = {"solve-large", "solve-search",
                                           "serve-mixed"};
/// Length of the reduced passes of the other workloads in a traced run.
constexpr double kReducedSeconds = 1.0;

WorkloadRun run_workload(std::string_view workload, std::uint64_t seed,
                         double seconds, const RunOptions& options) {
  if (workload == "solve-large") {
    return perfbench::run_solve_workload(
        perfbench::solve_large_corpus(seed, seconds), true, options);
  }
  if (workload == "solve-search") {
    return perfbench::run_solve_workload(
        perfbench::solve_search_corpus(seed, seconds), false, options);
  }
  return perfbench::run_serve_workload(
      perfbench::serve_mixed_corpus(seed, seconds), options);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

void write_pass(std::ostream& out, const PassStats& p) {
  out << "{\"wall_s\": " << number(p.wall_s)
      << ", \"attempted\": " << p.attempted << ", \"failed\": " << p.failed
      << ", \"makespan_ratio\": "
      << number(p.ratio_count == 0
                    ? 0.0
                    : std::exp(p.log_ratio_sum /
                               static_cast<double>(p.ratio_count)))
      << ", \"digest\": " << json_string(hex(p.digest)) << ", \"counts\": {";
  const char* sep = "";
  for (const auto& [name, value] : p.counts) {
    out << sep << json_string(name) << ": " << value;
    sep = ", ";
  }
  out << "}, \"latencies_s\": [";
  sep = "";
  for (const double v : p.latencies_s) {
    out << sep << number(v);
    sep = ", ";
  }
  out << "]}";
}

void write_spans(const std::filesystem::path& path,
                 const perfbench::Tracer& tracer) {
  std::ofstream out(path);
  tracer.write(out);
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace", "out"}) {
    if (!args.contains(required)) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  const std::string workload = args["workload"];
  bool known = false;
  for (const std::string_view w : kWorkloads) known = known || w == workload;
  if (!known) throw std::invalid_argument("unknown workload " + workload);
  const std::uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool traced = args["trace"] == "1";
  const std::filesystem::path out_dir = args["out"];
  std::filesystem::create_directories(out_dir);

  std::map<std::string, std::unique_ptr<perfbench::Tracer>> tracers;
  RunOptions options;
  // The solve-large warm-up pass is seconds long; three give a median.
  options.setup_repetitions = workload == "solve-large" ? 3 : 5;
  if (traced) {
    tracers[workload] = std::make_unique<perfbench::Tracer>();
    options.tracer = tracers[workload].get();
  }
  const WorkloadRun result = run_workload(workload, seed, seconds, options);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const long peak_rss_kb = usage.ru_maxrss;

  std::map<std::string, PassStats> reduced_passes;
  if (traced) {
    for (const std::string_view other : kWorkloads) {
      if (other == workload) continue;
      auto& tracer = tracers[std::string(other)];
      tracer = std::make_unique<perfbench::Tracer>();
      RunOptions reduced;
      reduced.setup_repetitions = 0;
      reduced.timed_pass = false;
      reduced.tracer = tracer.get();
      reduced_passes[std::string(other)] =
          *run_workload(other, seed, kReducedSeconds, reduced).traced;
    }
    for (const auto& [name, tracer] : tracers) {
      write_spans(out_dir / ("spans-" + name + ".tsv"), *tracer);
    }
  }

  std::ofstream raw(out_dir / "raw.json");
  raw << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
      << ", \"seconds\": " << number(seconds)
      << ", \"clients\": "
      << (workload == "serve-mixed" ? perfbench::kServeClients : 1)
      << ", \"workers\": "
      << (workload == "serve-mixed" ? perfbench::kServeWorkers : 0)
      << ", \"peak_rss_kb\": " << peak_rss_kb
      << ", \"request_digest\": " << json_string(hex(result.request_digest))
      << ", \"nondeterministic\": "
      << (result.nondeterministic ? "true" : "false") << ", \"setup_s\": [";
  const char* sep = "";
  for (const double v : result.setup_s) {
    raw << sep << number(v);
    sep = ", ";
  }
  raw << "], \"notes\": [";
  sep = "";
  for (const std::string& note : result.notes) {
    raw << sep << json_string(note);
    sep = ", ";
  }
  raw << "], \"timed\": ";
  write_pass(raw, result.timed);
  raw << ", \"traced\": ";
  if (result.traced) {
    write_pass(raw, *result.traced);
  } else {
    raw << "null";
  }
  raw << ", \"reduced\": {";
  sep = "";
  for (const auto& [name, pass] : reduced_passes) {
    raw << sep << json_string(name) << ": ";
    write_pass(raw, pass);
    sep = ", ";
  }
  raw << "}}\n";
  if (!raw) throw std::runtime_error("cannot write raw.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
