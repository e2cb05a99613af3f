// Instruction-set levels for the column kernels that are compiled more
// than once: the random-walk bank's vector pass (streams/random_walk.cpp)
// and the dense-step frame kernels (core/frame_kernels.cpp).
//
// Each such kernel is one always-inline loop body behind three explicit
// wrappers — baseline x86-64 (the only level off x86), AVX2 and x86-64-v4
// (AVX-512) — and the caller dispatches on an IsaLevel. Explicit wrappers
// rather than target_clones: tests and micro benchmarks call every level
// the host runs, and no ifunc resolver runs.
#pragma once

#include <string_view>
#include <vector>

namespace topkmon {

enum class IsaLevel { kBaseline, kAvx2, kX86_64_v4 };

/// "baseline", "avx2", "x86-64-v4".
std::string_view isa_name(IsaLevel level) noexcept;

/// True iff the host CPU runs code compiled for `level`.
bool host_supports(IsaLevel level) noexcept;

/// Levels the host CPU runs, baseline first, best last.
std::vector<IsaLevel> host_isa_levels();

/// The best level the host CPU runs.
IsaLevel best_host_isa() noexcept;

}  // namespace topkmon
