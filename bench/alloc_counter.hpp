// Heap allocations made by this process so far. Linked into
// serve_loadgen only: its alloc_counter.cpp replaces the global operator
// new and delete with malloc/free wrappers that count every allocation,
// so --perf can report allocations per job, a deterministic proxy for
// the host cost of a run that wall-clock floors on a shared machine
// cannot see.
#pragma once

#include <cstdint>

namespace ghs::bench {

std::uint64_t allocation_count();

}  // namespace ghs::bench
