// Process-wide heap allocation counter: alloc_count.cpp replaces the
// global operator new family with counting wrappers around malloc. The
// count covers every thread (a workload may step shards on pool threads),
// so it is one relaxed atomic.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through any operator new since process start.
std::uint64_t alloc_count() noexcept;

}  // namespace perfbench
