// A work-stealing loop over an index range, shared by the experiment
// grid (harness::Session::RunAll) and the cluster sweep's fabrics
// (runtime::ClusterSweep::Run).
#pragma once

#include <cstddef>
#include <functional>

namespace tictac::util {

// Calls body(i) once for every i in [0, count) on up to `threads`
// threads, the calling thread among them; each thread claims the next
// unclaimed index from a shared counter. Results a body writes by index
// are therefore the same at any thread count. After a body throws no
// further index is claimed, and the first exception is rethrown once
// every thread has finished. If starting a thread throws, the started
// threads stop and are joined before that error propagates.
void ParallelFor(std::size_t count, int threads,
                 const std::function<void(std::size_t)>& body);

}  // namespace tictac::util
