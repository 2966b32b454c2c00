#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Heap allocations made through operator new since the process started.
/// alloc_count.cc replaces the global operator new/delete to count them;
/// the replacement lives in its own translation unit so the compiler never
/// sees a new expression and the malloc/free pair in one place.
uint64_t AllocationCount();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
