// Property test for the differential harness itself: the harness only
// proves equivalence if it would *fail* on an inequivalent port. The
// slack role port carries a test-only `?nudge=<v>` mutation knob that
// shifts every applied filter boundary by `v` value units — the classic
// off-by-one porting bug. The harness comparison (messages by kind,
// per-step series, counters, error pattern) must flag the mutant
//
//   * against the golden lock-step record under the instant network, and
//   * against the clean native port under every scheduled network
//     policy (where no golden record exists),
//
// pinning that the comparison has teeth on each policy rather than
// vacuously passing on dimensions a policy happens not to exercise.
#include <gtest/gtest.h>

#include <string>

#include "role_port_harness.hpp"

namespace topkmon {
namespace {

using harness::Shape;
using harness::results_identical;
using harness::run_lockstep;
using harness::run_native;

constexpr Shape kShape{16, 4};
constexpr std::uint64_t kSeed = 5;
constexpr std::size_t kSteps = 600;

// A ±1 boundary error is only observable when values actually visit the
// integers next to a boundary. The default walk jumps ~128 transformed
// units per step and sails straight over a one-unit shift; this slow
// unit-step walk in a compressed range crawls *through* every boundary
// it crosses, so the off-by-one flips real filter decisions.
StreamSpec dense_walk() {
  StreamSpec stream;
  stream.family = StreamFamily::kRandomWalk;
  stream.walk.max_step = 1;
  stream.walk.hi = 300;
  return stream;
}

TEST(PortMutant, HarnessCatchesMutantAgainstLockstepOracle) {
  const auto oracle =
      run_lockstep("slack", dense_walk(), kShape, kSeed, kSteps);
  const auto mutant =
      run_native("slack?nudge=1", dense_walk(), kShape, kSeed, kSteps);
  EXPECT_FALSE(results_identical(oracle, mutant))
      << "an off-by-one boundary survived the differential comparison";
}

TEST(PortMutant, HarnessCatchesMutantOnEveryNetworkPolicy) {
  for (const std::string network :
       {"instant", "delay=2", "jitter=2", "drop=0.02"}) {
    SCOPED_TRACE(network);
    const auto clean =
        run_native("slack", dense_walk(), kShape, kSeed, kSteps,
                   RunConfig::Validation::kWeak, network);
    const auto mutant =
        run_native("slack?nudge=1", dense_walk(), kShape, kSeed, kSteps,
                   RunConfig::Validation::kWeak, network);
    EXPECT_FALSE(results_identical(clean, mutant))
        << "mutant indistinguishable from the clean port under " << network;
  }
}

TEST(PortMutant, CleanPortStillPassesTheSameComparison) {
  // Control arm: the exact comparison that catches the mutant must hold
  // for the unperturbed port, or the property above proves nothing.
  const auto oracle =
      run_lockstep("slack", dense_walk(), kShape, kSeed, kSteps);
  const auto native = run_native("slack", dense_walk(), kShape, kSeed, kSteps);
  EXPECT_TRUE(results_identical(oracle, native));
}

}  // namespace
}  // namespace topkmon
