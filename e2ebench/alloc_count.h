#ifndef STREAMAD_E2EBENCH_ALLOC_COUNT_H_
#define STREAMAD_E2EBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace e2ebench {

/// Exact heap-allocation counts from the benchmark binary's replacement
/// global `operator new` (alloc_count.cc). Counting is off until
/// `EnableAllocCounting(true)`; while off, the replacement costs one relaxed
/// load per allocation. Counts are kept per thread in padded slots, so
/// turning counting on does not make the threads contend on one line.
void EnableAllocCounting(bool on);

/// Allocations counted so far, summed over every thread of the process.
std::uint64_t AllocCount();

}  // namespace e2ebench

#endif  // STREAMAD_E2EBENCH_ALLOC_COUNT_H_
