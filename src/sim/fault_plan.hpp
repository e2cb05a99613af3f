// Declarative, deterministic fault injection for simulated runs.
//
// A FaultPlan is an immutable, pre-validated schedule of membership and
// reconfiguration events that the SimDriver fires inside run_tick at the
// first tick of the scheduled observation step:
//
//   crash   — the node stops: its queued mail is dropped, its timers are
//             frozen, and the transport discards anything addressed to it
//             until recovery (Network::set_node_down).
//   recover — the node comes back with its pre-crash algorithm state; the
//             driver raises NodeAlgo::on_recover on the node and
//             CoordinatorAlgo::on_node_up on the coordinator, which starts
//             the monitor's re-sync handshake.
//   join    — a block of pre-provisioned node ids (n, n+1, ...) goes live
//             for the first time (same wire path as recover).
//   leave   — a permanent crash: the node never returns and the ground
//             truth retires it.
//   k       — dynamic reconfiguration: the coordinator renegotiates a new
//             top-k size mid-run without a cold restart.
//
// Adversarial degradation modes (the node stays up at the transport but
// stops behaving; the coordinator gets no failure-detector event and must
// *infer* the degradation — see the suspicion machinery in
// core/filter_roles.hpp):
//
//   lag     — lag=ID@STEP:TICKS: every charged message the node sends is
//             held in the driver for TICKS delivery ticks before entering
//             the network.
//   stale   — stale=ID@STEP: the node keeps answering probes and reports
//             with its value frozen at degradation time (observations
//             continue; only the reported payloads freeze).
//   mute    — mute=ID@STEP: the node's charged sends are discarded — it
//             goes silent without a transport-level crash.
//   heal    — heal=ID@STEP: ends the node's active degradation.
//
// Spec grammar: name '?' items, read by SpecReader (util/strings.hpp) like
// every monitor, stream and network spec. An event key may repeat; its
// events keep their spec order within a step:
//
//   none                                   empty plan
//   churn?crash=17@500,recover=17@900,join=+64@1200,leave=12@1500,k=32@2000
//   churn?every=200,down=3,count=5,outage=80[,k=32@600]
//   churn?lag=3@100:40,stale=5@200,mute=7@300,heal=5@400
//
// The second form generates `count` crash bursts of `down` seeded-random
// live victims at steps every, 2*every, ..., each recovering after
// `outage` steps. Victim selection derives from the run seed exactly like
// the Network derives link randomness — independent of the node / stream
// RNG streams — so a schedule is byte-reproducible across `--jobs` and
// never perturbs a fault-free run. Explicit membership events cannot be
// mixed with the generated form; `k=K@S` composes with either.
//
// Construction validates the full timeline (ids in range, no crash of a
// down node, no recovery of a live node, no leave while down, k never
// exceeding the live node count) and throws std::invalid_argument with a
// did-you-mean hint for unknown keys and plan names, so a plan that
// constructed is a plan the driver can apply without further checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace topkmon {

/// One scheduled fault. Fired by the SimDriver at the first tick of the
/// settle phase of observation step `step` (step >= 1; step 0 is
/// initialization and cannot carry events).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,
    kRecover,
    kJoin,
    kLeave,
    kSetK,
    kLag,
    kStale,
    kMute,
    kHeal,
  };
  Kind kind = Kind::kCrash;
  TimeStep step = 0;
  /// Target node (kCrash/kRecover/kLeave/kLag/kStale/kMute/kHeal); first
  /// id of the joining block (kJoin); unused for kSetK.
  NodeId node = 0;
  /// Number of joining nodes (kJoin); the new k (kSetK); the hold delay
  /// in delivery ticks (kLag); 0 otherwise.
  std::size_t count = 0;
};

/// Human-readable kind name for error messages and logs.
std::string_view fault_kind_name(FaultEvent::Kind kind) noexcept;

/// An immutable, validated fault schedule (see file comment for grammar).
class FaultPlan {
 public:
  /// The empty plan (no events, no extra provisioned nodes).
  FaultPlan() = default;

  /// Parses and validates `spec` against a run of `n` initial nodes with
  /// initial top-k size `k`. Generated churn derives its victim sequence
  /// from `seed` (tagged, SplitMix64-seeded — the Network's link-hash
  /// pattern). Throws std::invalid_argument on any grammar or timeline
  /// violation.
  FaultPlan(std::string_view spec, std::size_t n, std::size_t k,
            std::uint64_t seed);

  /// Trusted factory: wraps pre-validated `events` (already sorted by
  /// step, ids legal against a cluster of `total_nodes` nodes) without
  /// re-parsing or re-validating. The sharded runtime uses it to carve a
  /// validated deployment-level plan into per-shard plans with
  /// shard-local ids; join events keep their explicit node base.
  /// `total_nodes` is the provisioned cluster size (initial nodes plus
  /// every joining block).
  static FaultPlan from_events(std::size_t total_nodes,
                               std::vector<FaultEvent> events);

  /// No events scheduled (also true for spec "none" / "").
  bool empty() const noexcept { return events_.empty(); }

  /// True iff any event changes membership (crash/recover/join/leave).
  /// Degradations and kSetK are not churn.
  bool has_churn() const noexcept { return has_churn_; }

  /// True iff any event is an adversarial degradation (lag/stale/mute/
  /// heal). Sharded deployments accept churn and k plans but reject
  /// degradations (the held-send machinery is per-driver).
  bool has_degradation() const noexcept { return has_degradation_; }

  /// Canonical explicit-form spec that reparses to this exact plan:
  /// "none" for the empty plan, else "churn?" followed by every event in
  /// stored (step-sorted) order. Generated churn round-trips through its
  /// expansion: parse(spec_name()) yields identical events for any seed.
  std::string spec_name() const;

  /// Initial node count the plan was validated against.
  std::size_t initial_nodes() const noexcept { return n_; }

  /// n plus every joining block: the capacity the cluster, streams and
  /// ground truth must be provisioned with. Ids [initial_nodes(),
  /// total_nodes()) start down and go live at their join event.
  std::size_t total_nodes() const noexcept { return total_nodes_; }

  /// All events, sorted by step (stable in spec order within a step).
  const std::vector<FaultEvent>& events() const noexcept { return events_; }

 private:
  std::size_t n_ = 0;
  std::size_t total_nodes_ = 0;
  bool has_churn_ = false;
  bool has_degradation_ = false;
  std::vector<FaultEvent> events_;
};

}  // namespace topkmon
