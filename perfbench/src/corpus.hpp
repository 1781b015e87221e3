#pragma once

/// \file corpus.hpp
/// Request lists of the three workloads, generated from the workload seed
/// with the library's trace generators. Every request carries trace
/// *text*: the program under test sees only what a client would send.
///
/// A list is a pure function of (workload, seed, seconds), so two runs of
/// one seed serve byte-identical requests. `seconds` sets the list length
/// through a fixed per-workload request rate; it is never read from a
/// clock.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One request of a solve workload: solve this trace with this solver.
struct SolveRequestSpec {
  std::string label;       ///< kernel and size, e.g. "CCSD-DAG/4000"
  std::string trace_text;  ///< dts-trace text
  std::string machine;     ///< registry machine to bind, empty = none
  double capacity_factor = 1.5;
  std::string solver;
  std::uint64_t solver_seed = 1;
  std::size_t max_iterations = 20000;
  std::size_t max_no_improve = 2000;
  std::size_t tasks = 0;
};

struct SolveCorpus {
  /// Distinct requests: the warm-up (set-up) pass runs each once.
  std::vector<SolveRequestSpec> distinct;
  /// The timed list: indices into `distinct`, in serving order.
  std::vector<std::size_t> timed;
};

[[nodiscard]] SolveCorpus solve_large_corpus(std::uint64_t seed,
                                             double seconds);
[[nodiscard]] SolveCorpus solve_search_corpus(std::uint64_t seed,
                                              double seconds);

/// What a serve-mixed request exercises, for the notes and the per-kind
/// error counts.
enum class ServeKind {
  kRepeat,     ///< a frame sent verbatim in the set-up pass
  kPermuted,   ///< a set-up shape with its tasks renumbered
  kTwin,       ///< a DAG shape with its edges removed, or the reverse
  kFresh,      ///< a shape sent exactly once: a cache miss
};

[[nodiscard]] const char* to_string(ServeKind kind);

/// One distinct serve-mixed frame.
struct ServeFrame {
  ServeKind kind = ServeKind::kRepeat;
  std::string frame;       ///< the complete dts1 solve frame
  std::string trace_text;  ///< its payload, for the cold reference solve
  std::string machine;
  double capacity_factor = 1.5;
  std::string solver;
};

struct ServeCorpus {
  std::vector<ServeFrame> frames;
  /// Frames of the cold cache-fill pass, in order (indices into frames).
  std::vector<std::size_t> fill;
  /// The timed list per client thread (indices into frames).
  std::vector<std::vector<std::size_t>> per_client;
};

inline constexpr std::size_t kServeClients = 2;
inline constexpr std::size_t kServeWorkers = 1;

[[nodiscard]] ServeCorpus serve_mixed_corpus(std::uint64_t seed,
                                             double seconds);

/// FNV-1a over a string, chained: the request-list digest.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench
