// The dense-step frame's column kernels must equal their one-node-at-a-
// time definitions at every ISA level the host runs: the range pass sets
// exactly the needs-observe bits of the moved, alive nodes outside their
// quiet range (empty, point and unbounded ranges included), and the
// masked copy writes exactly the masked lanes — for any n (tail words
// included) and any mask density, both sides of the range pass's
// per-word cut-over between single tests and the 64-lane compare.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/frame_kernels.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace topkmon {
namespace {

/// A random bitset over n ids with each bit set with probability
/// percent / 100.
IdBitset random_bits(std::size_t n, std::uint64_t percent, Rng& rng) {
  IdBitset bits(n);
  for (NodeId id = 0; id < n; ++id) {
    if (rng.uniform_below(100) < percent) bits.set(id);
  }
  return bits;
}

QuietRange random_range(Value v, Rng& rng) {
  switch (rng.uniform_below(6)) {
    case 0: return QuietRange{};                   // empty: never quiet
    case 1: return QuietRange{v, v};               // point range
    case 2: return QuietRange{kMinusInf, kPlusInf};
    case 3: return QuietRange{v + 1, v + 50};      // v just below
    case 4: return QuietRange{v - 50, v - 1};      // v just above
    default: {
      const Value lo = v - rng.uniform_int(0, 100);
      return QuietRange{lo, lo + rng.uniform_int(0, 200)};
    }
  }
}

TEST(FrameKernels, RangePassMatchesPerNodeDefinitionAtEveryLevel) {
  Rng rng(31);
  for (const IsaLevel isa : host_isa_levels()) {
    for (const std::size_t n : {1, 63, 64, 65, 1000, 4096}) {
      for (const std::uint64_t percent : {1, 10, 30, 60, 100}) {
        SCOPED_TRACE(::testing::Message() << isa_name(isa) << " n=" << n
                                          << " " << percent << "%");
        std::vector<Value> values(n);
        std::vector<QuietRange> quiet(n);
        for (std::size_t i = 0; i < n; ++i) {
          values[i] = rng.uniform_int(-1'000'000, 1'000'000);
          quiet[i] = random_range(values[i], rng);
        }
        const IdBitset changed = random_bits(n, percent, rng);
        const IdBitset alive = random_bits(n, 95, rng);
        IdBitset needs = random_bits(n, 20, rng);
        const IdBitset before = needs;
        for (const bool all_alive : {false, true}) {
          needs = before;
          mark_out_of_range(
              isa, values, quiet, changed.words(),
              all_alive ? std::span<const std::uint64_t>{} : alive.words(),
              needs.mutable_words());
          for (NodeId id = 0; id < n; ++id) {
            const bool want =
                before.test(id) ||
                (changed.test(id) && (all_alive || alive.test(id)) &&
                 !quiet[id].contains(values[id]));
            ASSERT_EQ(needs.test(id), want)
                << "node " << id << " all_alive=" << all_alive;
          }
          if (n % 64 != 0) {
            ASSERT_EQ(needs.words().back() >> (n % 64), 0u);
          }
        }
      }
    }
  }
}

TEST(FrameKernels, MaskedCopyWritesExactlyTheMaskedLanesAtEveryLevel) {
  Rng rng(32);
  for (const IsaLevel isa : host_isa_levels()) {
    for (const std::size_t n : {1, 63, 64, 65, 1000, 4096}) {
      for (const std::uint64_t percent : {0, 5, 50, 100}) {
        SCOPED_TRACE(::testing::Message() << isa_name(isa) << " n=" << n
                                          << " " << percent << "%");
        std::vector<Value> src(n), dst(n);
        for (std::size_t i = 0; i < n; ++i) {
          src[i] = rng.uniform_int(kMinusInf + 1, kPlusInf);
          dst[i] = i % 7 == 0 ? kMinusInf : rng.uniform_int(-100, 100);
        }
        const std::vector<Value> before = dst;
        const IdBitset mask = random_bits(n, percent, rng);
        copy_masked(isa, mask.words(), src, dst);
        for (NodeId id = 0; id < n; ++id) {
          ASSERT_EQ(dst[id], mask.test(id) ? src[id] : before[id])
              << "node " << id;
        }
      }
    }
  }
}

}  // namespace
}  // namespace topkmon
