#pragma once

/// \file parallel_for.hpp
/// The library's fork-join fan-out. `Executor` is the interface every
/// solver-internal fan-out goes through (auto candidates, batch trials,
/// exhaustive branches); `ThreadExecutor` implements it over short-lived
/// std::threads and `parallel_for` is its loop form, which the benchmark
/// harnesses use to sweep (trace x capacity x heuristic) grids.
/// SolverPool (core/pool.hpp) is the other implementation, over its
/// long-lived worker crew.
///
/// The thread executor is deliberately simple: static block partitioning,
/// no work stealing — every cell of our sweeps costs roughly the same, so
/// static partitioning is within a few percent of optimal and keeps the
/// code auditable.

#include <cstddef>
#include <functional>

namespace dts {

/// Minimal fan-out interface for solver-internal parallelism: run fn(i)
/// for every i in [0, n), possibly concurrently; return once all
/// iterations finished. fn must be safe to call concurrently for distinct
/// i. An exception thrown by fn reaches the caller after every iteration
/// finished.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual void for_each(std::size_t n,
                        const std::function<void(std::size_t)>& fn) = 0;
};

/// The do-it-inline executor; useful as a stand-in where an Executor is
/// required but concurrency is not wanted.
class SerialExecutor final : public Executor {
 public:
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& fn) override {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
};

/// Contiguous blocks of [0, n), one per parallel_workers(): the caller
/// runs the first and fresh threads the others, joined before returning.
/// Runs serially for tiny ranges or when only one worker is available.
/// When iterations throw, the exception of the lowest throwing index is
/// rethrown on the caller (a block stops at its first throw, so that
/// index is always reached).
class ThreadExecutor final : public Executor {
 public:
  void for_each(std::size_t n,
                const std::function<void(std::size_t)>& fn) override;
};

/// Number of worker threads used by ThreadExecutor (hardware concurrency,
/// clamped to [1, 64]).
[[nodiscard]] std::size_t parallel_workers() noexcept;

/// Invoke fn(i) for every i in [begin, end) on a ThreadExecutor.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace dts
