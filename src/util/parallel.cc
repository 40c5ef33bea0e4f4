#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace tictac::util {

void ParallelFor(std::size_t count, int threads,
                 const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  const auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        return;
      }
    }
  };

  const std::size_t helpers =
      std::min(static_cast<std::size_t>(std::max(threads, 1)),
               std::max<std::size_t>(count, 1)) -
      1;
  std::vector<std::thread> pool;
  pool.reserve(helpers);
  try {
    for (std::size_t t = 0; t < helpers; ++t) pool.emplace_back(work);
  } catch (...) {
    // Thread spawn failed (resource exhaustion): stop the workers that
    // did start and surface a catchable error instead of terminating
    // via the vector's joinable-thread destructor.
    failed.store(true);
    for (std::thread& thread : pool) thread.join();
    throw;
  }
  work();
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace tictac::util
