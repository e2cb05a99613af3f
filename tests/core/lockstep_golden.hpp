// Frozen reference runs of the retired lock-step monitor implementations.
//
// Every native role port was first proven message-, counter- and
// coin-flip-identical to a lock-step twin that drove the cluster
// synchronously. Those twins are gone; what they produced over the
// differential harness's grids is kept here as data. One GoldenRun per
// (monitor spec, workload, n, k, seed, steps) cell holds what the twin did
// under the instant network with weak validation: message totals by
// direction and by kind, a digest of the per-step message series, every
// MonitorStats counter, the steps whose answer diverged from the ground
// truth, a digest of the coordinator's answer after every step (the rank
// order too for the ordered monitor), and digests of the final state of
// every node RNG and of the coordinator RNG. The table itself is
// lockstep_golden.inc; role_port_harness.hpp compares native runs
// against it.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitor.hpp"
#include "core/runner.hpp"
#include "sim/cluster.hpp"
#include "sim/message.hpp"
#include "streams/factory.hpp"
#include "util/types.hpp"

namespace topkmon::golden {

/// FNV-1a (64-bit) over the little-endian bytes of each folded word.
class Digest {
 public:
  void add(std::uint64_t x) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (x >> (8 * byte)) & 0xFFu;
      h_ *= 0x100000001b3ull;
    }
  }
  /// Folds the length, then every id.
  void add_ids(const std::vector<NodeId>& ids) noexcept {
    add(ids.size());
    for (const NodeId id : ids) add(id);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Digest of a per-step message series (length, then every entry).
inline std::uint64_t series_digest(const std::vector<std::uint64_t>& series) {
  Digest d;
  d.add(series.size());
  for (const std::uint64_t x : series) d.add(x);
  return d.value();
}

/// Digest of the four xoshiro256** state words of every node RNG, in id
/// order. (The cached Gaussian is not folded: protocol coins never draw
/// one.)
inline std::uint64_t node_rng_digest(Cluster& cluster) {
  Digest d;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    for (const std::uint64_t w : cluster.node_rng(id).state()) d.add(w);
  }
  return d.value();
}

inline std::uint64_t coordinator_rng_digest(Cluster& cluster) {
  Digest d;
  for (const std::uint64_t w : cluster.coordinator_rng().state()) d.add(w);
  return d.value();
}

/// Lookup name of a workload: the family name, plus the random-walk
/// bounds when they differ from the defaults ("random_walk?max_step=1,
/// hi=300"). The golden grids vary no other StreamSpec field.
inline std::string stream_key(const StreamSpec& s) {
  std::string key(family_name(s.family));
  const RandomWalkParams def{};
  if (s.family == StreamFamily::kRandomWalk &&
      (s.walk.max_step != def.max_step || s.walk.lo != def.lo ||
       s.walk.hi != def.hi || s.walk.start != def.start)) {
    key += "?max_step=" + std::to_string(s.walk.max_step) +
           ",lo=" + std::to_string(s.walk.lo) +
           ",hi=" + std::to_string(s.walk.hi) +
           ",start=" + std::to_string(s.walk.start);
  }
  return key;
}

/// What a run produced, in the form both a RunResult and a frozen record
/// can be reduced to.
struct Fingerprint {
  std::string monitor_name;
  std::uint64_t upstream = 0;
  std::uint64_t unicast = 0;
  std::uint64_t broadcast = 0;
  std::array<std::uint64_t, kNumMsgKinds> by_kind{};
  std::uint64_t series = 0;  ///< series_digest of the per-step series
  std::array<std::uint64_t, std::size(kMonitorCounters)> counters{};
  std::vector<TimeStep> error_steps;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

inline Fingerprint fingerprint(const RunResult& r) {
  Fingerprint fp;
  fp.monitor_name = r.monitor_name;
  fp.upstream = r.comm.upstream();
  fp.unicast = r.comm.unicast();
  fp.broadcast = r.comm.broadcast();
  for (std::size_t kind = 0; kind < kNumMsgKinds; ++kind) {
    fp.by_kind[kind] = r.comm.by_kind(static_cast<MsgKind>(kind));
  }
  fp.series = series_digest(r.comm.series());
  for (std::size_t i = 0; i < std::size(kMonitorCounters); ++i) {
    fp.counters[i] = r.monitor.*kMonitorCounters[i].field;
  }
  fp.error_steps = r.error_step_list;
  return fp;
}

/// One frozen lock-step run.
struct GoldenRun {
  // Key.
  std::string_view monitor;  ///< registry spec
  std::string_view stream;   ///< stream_key()
  std::size_t n;
  std::size_t k;
  std::uint64_t seed;
  std::size_t steps;
  // Outcome.
  Fingerprint fp;
  std::uint64_t answers;     ///< per-step answer digest
  std::uint64_t node_rng;    ///< node_rng_digest at the end of the run
  std::uint64_t coord_rng;   ///< coordinator_rng_digest at the end
};

/// The frozen table.
inline const std::vector<GoldenRun>& golden_runs() {
  static const std::vector<GoldenRun> runs = {
#include "lockstep_golden.inc"
  };
  return runs;
}

}  // namespace topkmon::golden
