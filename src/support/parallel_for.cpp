#include "support/parallel_for.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace dts {

std::size_t parallel_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 64);
}

void ThreadExecutor::for_each(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min(parallel_workers(), n);
  if (workers <= 1 || n < 4) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One slot per block: the block's first exception. Blocks are ordered,
  // so the first non-empty slot holds the lowest throwing index. The
  // caller runs block 0 itself and spawns one thread per other block.
  const std::size_t chunk = (n + workers - 1) / workers;
  const std::size_t blocks = (n + chunk - 1) / chunk;
  std::vector<std::exception_ptr> errors(blocks);
  const auto run_block = [n, chunk, &fn, &errors](std::size_t b) {
    try {
      const std::size_t end = std::min(n, (b + 1) * chunk);
      for (std::size_t i = b * chunk; i < end; ++i) fn(i);
    } catch (...) {
      errors[b] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(blocks - 1);
  for (std::size_t b = 1; b < blocks; ++b) pool.emplace_back(run_block, b);
  run_block(0);
  for (auto& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  ThreadExecutor().for_each(end - begin,
                            [begin, &fn](std::size_t i) { fn(begin + i); });
}

}  // namespace dts
