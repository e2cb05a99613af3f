// One-stop construction of n-node stream sets from a declarative spec.
// The factory spreads per-node parameters (walk starting points, wave
// phases) so that the n streams interleave realistically, and derives all
// per-stream RNGs from a single seed for reproducibility.
//
// Each family gets one bank: random walks a RandomWalkBank of columns,
// the sparse family a SparseBank around the bank its inner family gets
// (built by the same path, so every node keeps its RNG stream), every
// other family a TypedBank of its concrete stream. The SparseBank stripes
// activity phases as id % period, so at whole-set advance c >= 1 only the
// ids with id % period == (period - c % period) % period draw.
// make_stream builds one node's stream of the same set, the per-node
// reference the banks are tested against.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "streams/adversarial.hpp"
#include "streams/bursty.hpp"
#include "streams/iid.hpp"
#include "streams/random_walk.hpp"
#include "streams/sensor.hpp"
#include "streams/sinusoidal.hpp"
#include "streams/sparse.hpp"
#include "streams/stream.hpp"
#include "streams/zipf.hpp"

namespace topkmon {

enum class StreamFamily {
  kRandomWalk,
  kIidUniform,
  kIidGaussian,
  kZipf,
  kPareto,
  kSinusoidal,
  kBursty,
  kRotatingMax,
  kCrossingPairs,
  kSensor,
  kSparse,
};

/// Display name ("random_walk", ...).
std::string_view family_name(StreamFamily family) noexcept;

/// Inverse of family_name. Throws std::invalid_argument on unknown names.
StreamFamily family_from_name(std::string_view name);

/// All families, for sweeps over workloads.
std::vector<StreamFamily> all_families();

/// Declarative stream-set description. Only the sub-struct matching
/// `family` is consulted. `n` fields inside adversarial params are filled
/// by the factory.
struct StreamSpec {
  StreamFamily family = StreamFamily::kRandomWalk;

  /// Wrap every stream in the order-preserving distinctness transform
  /// (paper's pairwise-distinct assumption). Scales values and Δ by n.
  bool enforce_distinct = true;

  /// kRandomWalk: starts are spread evenly across [lo, hi] per node.
  RandomWalkParams walk{};

  /// kIidUniform
  Value iid_lo = 0;
  Value iid_hi = 1'000'000;

  /// kIidGaussian
  double gauss_mean = 500'000.0;
  double gauss_sigma = 50'000.0;

  /// kZipf
  std::size_t zipf_ranks = 1'000;
  double zipf_s = 1.2;
  Value zipf_peak = 1'000'000;

  /// kPareto
  Value pareto_xm = 1'000;
  double pareto_alpha = 1.5;
  Value pareto_cap = 100'000'000;

  /// kSinusoidal: phases are spread evenly over one period per node.
  SinusoidalParams sinus{};

  /// kBursty: starts are spread evenly across [lo, hi] per node.
  BurstyParams bursty{};

  /// kRotatingMax / kCrossingPairs
  RotatingMaxParams rotating{};
  CrossingPairsParams crossing{};

  /// kSensor: diurnal phases spread evenly per node.
  SensorParams sensor{};

  /// kSparse: activity-gated wrapper around `sparse_inner` — each step
  /// exactly a `sparse.rate` fraction of the nodes draws a fresh inner
  /// value (activity phases striped as id % period); the rest repeat.
  SparseParams sparse{};
  StreamFamily sparse_inner = StreamFamily::kRandomWalk;
};

/// Builds the n per-node streams described by `spec`, deterministically
/// from `seed`: random walks in a RandomWalkBank (make_walk_bank), the
/// sparse family in a SparseBank over its inner family's bank (the one
/// make_stream_set would build for that family), every other family in a
/// typed bank of its concrete stream type. Throws std::invalid_argument
/// for n == 0 or invalid parameters; with enforce_distinct, walk bounds
/// (also a sparse wrapper's inner walks) whose distinct values overflow
/// are invalid.
StreamSet make_stream_set(const StreamSpec& spec, std::size_t n,
                          std::uint64_t seed);

/// The column bank of make_stream_set(spec, n, seed) for spec.walk
/// (whatever spec.family says): node id's walk starts and draws exactly
/// as make_stream(spec, id, n, seed) with family kRandomWalk.
std::unique_ptr<RandomWalkBank> make_walk_bank(const StreamSpec& spec,
                                               std::size_t n,
                                               std::uint64_t seed);

/// Node `id`'s bare stream of that set (no distinctness transform): it
/// yields the raw values that make_stream_set(spec, n, seed) maps through
/// distinct_value when spec.enforce_distinct. For the sparse family it is
/// a SparseStream at phase id % period around node id's inner stream.
/// Throws std::invalid_argument unless id < n.
std::unique_ptr<Stream> make_stream(const StreamSpec& spec, NodeId id,
                                    std::size_t n, std::uint64_t seed);

/// Parses a workload spec string into `base`: a bare family name
/// ("random_walk"), or a parameterized one read by SpecReader
/// (util/strings.hpp) like every spec — currently
/// "sparse?rate=0.01,inner=random_walk", whose rate must give a period
/// SparseStream::period_for accepts. Unknown families (with a
/// did-you-mean hint), malformed parameters, or parameters on families
/// without a grammar throw std::invalid_argument.
StreamSpec parse_stream_spec(std::string_view text, StreamSpec base = {});

}  // namespace topkmon
