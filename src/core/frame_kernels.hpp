// Column kernels of the dense-step frame.
//
// A dense observation step reaches the driver and the ground truth as a
// (change mask, value column) pair: bit id of the mask is set iff node
// id's value moved this step, and the column holds every node's value.
// On such a step most nodes move, so the per-node work is done column by
// column, 64 lanes per mask word, without a branch per node:
//
//  * mark_out_of_range — SimDriver's range pass: one branch-free compare
//    of the value column against the quiet ranges, OR'd into the
//    needs-observe words;
//  * copy_masked — GroundTruthTracker's value write: a word-wise blend of
//    the column into its value mirror.
//
// Both are compiled per ISA level with the walk kernel's explicit-wrapper
// dispatch (util/isa.hpp); callers pass best_host_isa(), micro benchmarks
// and tests pass each level the host runs.
#pragma once

#include <cstdint>
#include <span>

#include "sim/node_runtime.hpp"
#include "util/isa.hpp"
#include "util/types.hpp"

namespace topkmon {

/// The range pass over a dense frame. For every word w of `needs`, sets
/// the bits of changed[w] & alive[w] whose node's value lies outside its
/// quiet range: afterwards bit id of `needs` is set iff it was set before
/// or node id moved, is alive and left quiet[id]. `alive` empty means
/// every node is alive. A word with only a few candidates (moved, alive,
/// bit clear) tests them one by one; a denser word compares all 64
/// lanes. Requires values.size() == quiet.size() == n and
/// changed/alive/needs of (n + 63) / 64 words.
void mark_out_of_range(IsaLevel isa, std::span<const Value> values,
                       std::span<const QuietRange> quiet,
                       std::span<const std::uint64_t> changed,
                       std::span<const std::uint64_t> alive,
                       std::span<std::uint64_t> needs) noexcept;

/// dst[i] = src[i] for every i whose bit is set in `mask` (word i / 64);
/// every other dst[i] keeps its value. Requires src.size() == dst.size()
/// and mask of (dst.size() + 63) / 64 words.
void copy_masked(IsaLevel isa, std::span<const std::uint64_t> mask,
                 std::span<const Value> src, std::span<Value> dst) noexcept;

}  // namespace topkmon
