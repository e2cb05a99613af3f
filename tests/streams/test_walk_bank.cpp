// The random-walk column bank must be a pure layout and instruction
// choice: every kernel variant the host runs produces exactly the values
// (and consumes exactly the RNG draws) of one RandomWalkStream per node,
// for any n (vector tails included), with and without distinctness, in
// any mix of whole-set and per-id advances — including the rare lanes
// whose draw lands in Lemire's rejection zone, and parameters wide
// enough that every lane takes the scalar step.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "streams/factory.hpp"
#include "streams/random_walk.hpp"

namespace topkmon {
namespace {

constexpr std::uint64_t kSeed = 2024;
constexpr std::size_t kSteps = 2000;

struct WalkCase {
  std::string name;
  RandomWalkParams walk;
};

WalkCase walk_case(std::string name, Value max_step, Value lo, Value hi) {
  RandomWalkParams p;
  p.max_step = max_step;
  p.lo = lo;
  p.hi = hi;
  return {std::move(name), p};
}

std::vector<WalkCase> walk_cases() {
  constexpr Value kWide = Value{1} << 40;
  constexpr Value kHalf = Value{1} << 31;
  std::vector<WalkCase> cases;
  cases.push_back({"default", RandomWalkParams{}});
  // max_step > hi - lo: both reflections fire, and overshoots clamp.
  cases.push_back(walk_case("narrow", 10, 0, 3));
  cases.push_back(walk_case("zero_step", 0, 0, 1000));
  cases.push_back(walk_case("pinned", 100, 5, 5));
  cases.push_back(walk_case("negative_lo", 50, -1000, 1000));
  // span = 2^32 - 1, the widest the vector pass takes.
  cases.push_back(walk_case("widest_vector", kHalf - 1, -kWide, kWide));
  // span = 2^32 + 1: every lane takes the scalar step.
  cases.push_back(walk_case("scalar_span", kHalf, -kWide, kWide));
  return cases;
}

void PrintTo(const WalkCase& c, std::ostream* os) { *os << c.name; }

/// Node id's walk as a stand-alone stream, plus the distinctness map.
class Reference {
 public:
  Reference(const StreamSpec& spec, std::size_t n)
      : distinct_(spec.enforce_distinct), n_(static_cast<Value>(n)) {
    for (NodeId id = 0; id < n; ++id) {
      streams_.push_back(make_stream(spec, id, n, kSeed));
    }
  }

  Value next(NodeId id) {
    const Value v = streams_[id]->next();
    return distinct_ ? distinct_value(v, id, n_) : v;
  }

 private:
  std::vector<std::unique_ptr<Stream>> streams_;
  bool distinct_;
  Value n_;
};

class WalkBankGrid : public ::testing::TestWithParam<WalkCase> {};

TEST_P(WalkBankGrid, EveryKernelMatchesPerNodeStreams) {
  for (const std::size_t n : {1, 3, 7, 64, 1000, 4097}) {
    for (const bool distinct : {false, true}) {
      StreamSpec spec;
      spec.family = StreamFamily::kRandomWalk;
      spec.enforce_distinct = distinct;
      spec.walk = GetParam().walk;
      Reference ref(spec, n);
      // One set per kernel variant, plus make_stream_set's own choice.
      std::vector<StreamSet> sets;
      std::vector<std::string> names;
      for (const WalkKernel k : RandomWalkBank::host_kernels()) {
        auto bank = make_walk_bank(spec, n, kSeed);
        bank->set_kernel(k);
        sets.emplace_back(std::move(bank));
        names.emplace_back(kernel_name(k));
      }
      sets.push_back(make_stream_set(spec, n, kSeed));
      names.emplace_back("make_stream_set");
      std::vector<Value> want(n), got(n);
      for (std::size_t t = 0; t < kSteps; ++t) {
        if (t % 11 == 5) {
          // One node draws an extra value per-id between whole steps.
          const auto extra = static_cast<NodeId>(t % n);
          const Value w = ref.next(extra);
          for (auto& set : sets) ASSERT_EQ(set.advance(extra), w);
        }
        for (NodeId id = 0; id < n; ++id) want[id] = ref.next(id);
        for (std::size_t s = 0; s < sets.size(); ++s) {
          if (t % 7 == 3) {
            // Per-id, in reverse id order: lanes are independent.
            for (auto id = static_cast<NodeId>(n); id-- > 0;) {
              got[id] = sets[s].advance(id);
            }
          } else {
            sets[s].advance_all(got);
          }
          for (NodeId id = 0; id < n; ++id) {
            ASSERT_EQ(got[id], want[id])
                << GetParam().name << " " << names[s] << " n=" << n
                << " distinct=" << distinct << " t=" << t << " node=" << id;
          }
        }
      }
    }
  }
}

/// The bits of `mask` at and above `n` (the tail of the last word).
std::uint64_t bits_past(const IdBitset& mask, std::size_t n) {
  if (n % 64 == 0) return 0;
  return mask.words().back() & (~std::uint64_t{0} << (n % 64));
}

TEST_P(WalkBankGrid, EveryKernelEmitsTheChangeMask) {
  // The mask the vector pass packs is exactly new != previous for every
  // lane, whole words (64, 4096) and a vector tail (1000) alike, and the
  // observations equal advance_all's.
  for (const std::size_t n : {64, 1000, 4096}) {
    for (const bool distinct : {false, true}) {
      StreamSpec spec;
      spec.family = StreamFamily::kRandomWalk;
      spec.enforce_distinct = distinct;
      spec.walk = GetParam().walk;
      for (const WalkKernel k : RandomWalkBank::host_kernels()) {
        auto masked = make_walk_bank(spec, n, kSeed);
        auto plain = make_walk_bank(spec, n, kSeed);
        masked->set_kernel(k);
        plain->set_kernel(k);
        StreamSet set(std::move(masked));
        std::vector<Value> values(n, 0), previous(n), want(n);
        IdBitset mask(n);
        std::size_t moved = 0;
        for (std::size_t t = 0; t < 60; ++t) {
          previous = values;
          set.advance_all_masked(values, mask);
          plain->advance_all(want);
          ASSERT_EQ(values, want) << kernel_name(k) << " t=" << t;
          for (NodeId id = 0; id < n; ++id) {
            ASSERT_EQ(mask.test(id), values[id] != previous[id])
                << GetParam().name << " " << kernel_name(k) << " n=" << n
                << " distinct=" << distinct << " t=" << t << " node=" << id;
          }
          ASSERT_EQ(bits_past(mask, n), 0u) << kernel_name(k) << " t=" << t;
          moved += mask.count();
        }
        if (GetParam().walk.max_step == 0) {
          // Only the first step moves off the all-zero start (a walk
          // pinned at 0 by a zero start never does).
          EXPECT_LE(moved, n) << kernel_name(k);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Walks, WalkBankGrid, ::testing::ValuesIn(walk_cases()),
                         [](const auto& info) { return info.param.name; });

/// A state whose next xoshiro256** output is 0: s1 = 0 gives
/// rotl(0 * 5, 7) * 9 = 0, so the low word of 0 * span is 0 — below
/// Lemire's threshold for any span that is not a power of two.
std::array<std::uint64_t, 4> zero_draw_state(std::uint64_t salt) {
  return {0x9E3779B97F4A7C15ull ^ salt, 0, 0xBF58476D1CE4E5B9ull + salt,
          0x94D049BB133111EBull * (salt | 1)};
}

TEST(WalkBank, RejectedLanesFinishWithLemiresScalarContinuation) {
  constexpr std::size_t kN = 37;  // full vectors plus a tail
  RandomWalkParams p;
  p.max_step = 8;  // span 17, threshold (2^64 - 17) % 17 = 1
  p.lo = 0;
  p.hi = 1000;
  const std::array<NodeId, 3> crafted = {0, 5, kN - 1};
  for (const WalkKernel k : RandomWalkBank::host_kernels()) {
    RandomWalkBank bank(p, kN, false);
    bank.set_kernel(k);
    std::vector<RandomWalkStream> ref;
    std::vector<Value> first_step(kN, 0);
    for (NodeId id = 0; id < kN; ++id) {
      const bool zero = std::find(crafted.begin(), crafted.end(), id) !=
                        crafted.end();
      const auto state = zero ? zero_draw_state(id)
                              : Rng(kSeed).derive(id).state();
      const Value start = 100 + 20 * static_cast<Value>(id);
      bank.set_walk(id, start, state);
      RandomWalkParams q = p;
      q.start = start;
      ref.emplace_back(q, Rng::from_state(state));
      // The scalar reference of the first step: Rng::uniform_below
      // retries the rejected draw from the same state.
      Rng scalar = Rng::from_state(state);
      first_step[id] =
          reflect_into(start - p.max_step +
                           static_cast<Value>(scalar.uniform_below(17)),
                       p.lo, p.hi);
      if (zero) {
        Rng probe = Rng::from_state(state);
        ASSERT_EQ(probe.next_u64(), 0u);
      }
    }
    std::vector<Value> got(kN, 0);
    std::vector<std::uint64_t> mask(1);
    for (int t = 0; t < 200; ++t) {
      const std::vector<Value> previous = got;
      bank.advance_all_masked(got, mask);
      for (NodeId id = 0; id < kN; ++id) {
        const Value want = ref[id].next();
        if (t == 0) {
          ASSERT_EQ(want, first_step[id]) << "node " << id;
        }
        ASSERT_EQ(got[id], want)
            << kernel_name(k) << " t=" << t << " node=" << id;
        // A fixed-up lane's bit comes from the scalar continuation; the
        // crafted lanes move on step 0 (start 100 + 20 id, span 17).
        ASSERT_EQ((mask[0] >> id) & 1, std::uint64_t{got[id] != previous[id]})
            << kernel_name(k) << " t=" << t << " node=" << id;
      }
      ASSERT_EQ(mask[0] >> kN, 0u) << kernel_name(k) << " t=" << t;
    }
  }
}

TEST(WalkBank, HostKernelsStartWithBaselineAndDefaultToTheBest) {
  const std::vector<WalkKernel> kernels = RandomWalkBank::host_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), WalkKernel::kBaseline);
  RandomWalkBank bank(RandomWalkParams{}, 4, true);
  EXPECT_EQ(bank.kernel(), kernels.back());
  for (const WalkKernel k : kernels) {
    bank.set_kernel(k);
    EXPECT_EQ(bank.kernel(), k);
  }
}

TEST(WalkBank, IsNotQuietCapableAndChecksIds) {
  StreamSpec spec;
  spec.family = StreamFamily::kRandomWalk;
  StreamSet set = make_stream_set(spec, 5, kSeed);
  EXPECT_FALSE(set.quiet_capable());
  EXPECT_THROW(set.advance(5), std::out_of_range);
  RandomWalkBank bank(RandomWalkParams{}, 5, false);
  EXPECT_THROW(bank.set_walk(5, 0, Rng(1).state()), std::out_of_range);
  EXPECT_THROW(RandomWalkBank(RandomWalkParams{}, 0, false),
               std::invalid_argument);
}

}  // namespace
}  // namespace topkmon
