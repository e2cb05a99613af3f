#include "streams/factory.hpp"

#include <memory>
#include <optional>
#include <stdexcept>

#include "util/strings.hpp"

namespace topkmon {

std::string_view family_name(StreamFamily family) noexcept {
  switch (family) {
    case StreamFamily::kRandomWalk: return "random_walk";
    case StreamFamily::kIidUniform: return "iid_uniform";
    case StreamFamily::kIidGaussian: return "iid_gaussian";
    case StreamFamily::kZipf: return "zipf";
    case StreamFamily::kPareto: return "pareto";
    case StreamFamily::kSinusoidal: return "sinusoidal";
    case StreamFamily::kBursty: return "bursty";
    case StreamFamily::kRotatingMax: return "rotating_max";
    case StreamFamily::kCrossingPairs: return "crossing_pairs";
    case StreamFamily::kSensor: return "sensor";
    case StreamFamily::kSparse: return "sparse";
  }
  return "?";
}

std::vector<StreamFamily> all_families() {
  return {StreamFamily::kRandomWalk,    StreamFamily::kIidUniform,
          StreamFamily::kIidGaussian,   StreamFamily::kZipf,
          StreamFamily::kPareto,        StreamFamily::kSinusoidal,
          StreamFamily::kBursty,        StreamFamily::kRotatingMax,
          StreamFamily::kCrossingPairs, StreamFamily::kSensor,
          StreamFamily::kSparse};
}

StreamFamily family_from_name(std::string_view name) {
  for (const StreamFamily family : all_families()) {
    if (family_name(family) == name) return family;
  }
  throw std::invalid_argument("unknown stream family '" + std::string(name) +
                              "'");
}

namespace {

constexpr auto box = [](auto s) -> std::unique_ptr<Stream> {
  return std::make_unique<decltype(s)>(std::move(s));
};

/// Node `id`'s start, spread evenly across [lo, hi] over n nodes. The
/// width and offset are unsigned, so ranges wider than INT64_MAX are
/// exact.
Value spread_start(Value lo, Value hi, NodeId id, std::size_t n) {
  const double frac =
      static_cast<double>(id + 1) / static_cast<double>(n + 1);
  const auto ulo = static_cast<std::uint64_t>(lo);
  const auto width = static_cast<double>(static_cast<std::uint64_t>(hi) - ulo);
  return static_cast<Value>(ulo + static_cast<std::uint64_t>(width * frac));
}

/// Node `id`'s generator.
Rng node_rng(const Rng& root, NodeId id) { return root.derive(0x57AEull + id); }

/// Builds node `id`'s concrete stream and hands it to `f` by value, so
/// callers can either box it or store it in a typed bank. The sparse
/// wrapper is not one: make_stream and make_bank wrap its inner family.
template <typename F>
auto with_stream(const StreamSpec& spec, NodeId id, std::size_t n,
                 const Rng& root, F&& f) {
  const Rng rng = node_rng(root, id);
  switch (spec.family) {
    case StreamFamily::kRandomWalk: {
      RandomWalkParams p = spec.walk;
      p.start = spread_start(p.lo, p.hi, id, n);
      return f(RandomWalkStream(p, rng));
    }
    case StreamFamily::kIidUniform:
      return f(IidUniformStream(spec.iid_lo, spec.iid_hi, rng));
    case StreamFamily::kIidGaussian:
      return f(IidGaussianStream(spec.gauss_mean, spec.gauss_sigma,
                                 spec.iid_lo, spec.iid_hi, rng));
    case StreamFamily::kZipf:
      return f(ZipfStream(spec.zipf_ranks, spec.zipf_s, spec.zipf_peak, rng));
    case StreamFamily::kPareto:
      return f(ParetoStream(spec.pareto_xm, spec.pareto_alpha,
                            spec.pareto_cap, rng));
    case StreamFamily::kSinusoidal: {
      SinusoidalParams p = spec.sinus;
      p.phase = p.period * static_cast<double>(id) / static_cast<double>(n);
      return f(SinusoidalStream(p, rng));
    }
    case StreamFamily::kBursty: {
      BurstyParams p = spec.bursty;
      p.start = spread_start(p.lo, p.hi, id, n);
      return f(BurstyStream(p, rng));
    }
    case StreamFamily::kRotatingMax: {
      RotatingMaxParams p = spec.rotating;
      p.n = n;
      return f(RotatingMaxStream(p, id));
    }
    case StreamFamily::kCrossingPairs: {
      CrossingPairsParams p = spec.crossing;
      p.n = n;
      return f(CrossingPairsStream(p, id));
    }
    case StreamFamily::kSensor: {
      SensorParams p = spec.sensor;
      p.phase = p.diurnal_period * static_cast<double>(id) /
                static_cast<double>(n);
      return f(SensorStream(p, rng));
    }
    case StreamFamily::kSparse:
      break;
  }
  throw std::invalid_argument("make_stream_set: unknown family");
}

/// The family a sparse spec wraps, as a spec of its own.
StreamSpec sparse_inner_spec(const StreamSpec& spec) {
  if (spec.sparse_inner == StreamFamily::kSparse) {
    throw std::invalid_argument("make_stream_set: sparse cannot wrap itself");
  }
  StreamSpec inner = spec;
  inner.family = spec.sparse_inner;
  return inner;
}

/// The bank of make_stream_set(spec, n, seed).
std::unique_ptr<StreamBank> make_bank(const StreamSpec& spec, std::size_t n,
                                      std::uint64_t seed) {
  if (spec.family == StreamFamily::kRandomWalk) {
    return make_walk_bank(spec, n, seed);
  }
  if (spec.family == StreamFamily::kSparse) {
    return std::make_unique<SparseBank>(
        make_bank(sparse_inner_spec(spec), n, seed),
        SparseStream::period_for(spec.sparse.rate));
  }
  const Rng root(seed);
  // Every id yields the same concrete type, so the first one picks the
  // bank and the rest append to it.
  std::unique_ptr<StreamBank> bank;
  for (NodeId id = 0; id < n; ++id) {
    with_stream(spec, id, n, root, [&](auto s) {
      using S = decltype(s);
      if (!bank) {
        std::vector<S> streams;
        streams.reserve(n);
        bank = std::make_unique<TypedBank<S>>(std::move(streams),
                                              spec.enforce_distinct);
      }
      static_cast<TypedBank<S>&>(*bank).push_back(std::move(s));
    });
  }
  return bank;
}

}  // namespace

StreamSpec parse_stream_spec(std::string_view text, StreamSpec base) {
  SpecReader r("stream", text);
  const auto family = [&r](std::string_view name) {
    std::vector<std::string> names;
    for (const StreamFamily f : all_families()) {
      if (family_name(f) == name) return f;
      names.emplace_back(family_name(f));
    }
    r.fail_unknown("family", name, names);
  };
  base.family = family(r.name());
  if (!r.has_query()) return base;
  if (base.family != StreamFamily::kSparse) {
    r.fail("family '" + std::string(r.name()) + "' has no parameter grammar");
  }
  // period_for owns the rate's range: (0, 1], with 1/rate rounding to a
  // std::int64_t.
  r.read("rate", base.sparse.rate, "a rate in (0, 1] with 1/rate < 2^63",
         [](std::string_view v) -> std::optional<double> {
           const auto rate = to_double(v);
           if (!rate) return std::nullopt;
           try {
             SparseStream::period_for(*rate);
           } catch (const std::invalid_argument&) {
             return std::nullopt;
           }
           return rate;
         });
  r.read("inner", base.sparse_inner, "a family other than sparse",
         [&family](std::string_view v) -> std::optional<StreamFamily> {
           const StreamFamily inner = family(v);
           if (inner == StreamFamily::kSparse) return std::nullopt;
           return inner;
         });
  r.done();
  return base;
}

std::unique_ptr<Stream> make_stream(const StreamSpec& spec, NodeId id,
                                    std::size_t n, std::uint64_t seed) {
  if (id >= n) throw std::invalid_argument("make_stream: id >= n");
  if (spec.family != StreamFamily::kSparse) {
    return with_stream(spec, id, n, Rng(seed), box);
  }
  // Activity phases are striped id % period, as in SparseBank: every
  // window of `period` consecutive ids covers all phases once, so exactly
  // floor/ceil(rate * n) nodes draw fresh values on any given step.
  const std::uint64_t period = SparseStream::period_for(spec.sparse.rate);
  return std::make_unique<SparseStream>(
      make_stream(sparse_inner_spec(spec), id, n, seed), spec.sparse.rate,
      id % period);
}

std::unique_ptr<RandomWalkBank> make_walk_bank(const StreamSpec& spec,
                                               std::size_t n,
                                               std::uint64_t seed) {
  auto bank =
      std::make_unique<RandomWalkBank>(spec.walk, n, spec.enforce_distinct);
  const Rng root(seed);
  for (NodeId id = 0; id < n; ++id) {
    bank->set_walk(id, spread_start(spec.walk.lo, spec.walk.hi, id, n),
                   node_rng(root, id).state());
  }
  return bank;
}

StreamSet make_stream_set(const StreamSpec& spec, std::size_t n,
                          std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("make_stream_set: n == 0");
  return StreamSet(make_bank(spec, n, seed));
}

}  // namespace topkmon
