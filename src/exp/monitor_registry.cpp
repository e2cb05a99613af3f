#include "exp/monitor_registry.hpp"

#include <optional>
#include <utility>

#include "util/strings.hpp"

#include "core/dominance_roles.hpp"
#include "core/filter_roles.hpp"
#include "core/multik_roles.hpp"
#include "core/naive_roles.hpp"
#include "core/ordered_roles.hpp"
#include "core/recompute_roles.hpp"
#include "core/slack_roles.hpp"

namespace topkmon::exp {

namespace {

/// "2+8+16" -> {2, 8, 16}; nullopt unless every k is positive and
/// larger than the one before it, and there are at most
/// MultiKCoordinator::kMaxBoundaries of them (its preconditions).
std::optional<std::vector<std::size_t>> parse_ks(std::string_view text) {
  std::vector<std::size_t> out;
  for (const std::string_view item : split(text, '+')) {
    const auto v = to_u64(item);
    if (!v || *v == 0 || (!out.empty() && *v <= out.back()) ||
        out.size() == MultiKCoordinator::kMaxBoundaries) {
      return std::nullopt;
    }
    out.push_back(static_cast<std::size_t>(*v));
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// A role pair: `coordinator` plus one Node(args...) per cluster node.
template <typename Node, typename... Args>
RolePair native_pair(std::unique_ptr<CoordinatorAlgo> coordinator,
                     const Cluster& cluster, const Args&... args) {
  RolePair pair;
  pair.coordinator = std::move(coordinator);
  pair.nodes.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    pair.nodes.push_back(std::make_unique<Node>(args...));
  }
  return pair;
}

// Each factory reads its knobs, then done() rejects any other parameter
// before a role is built.

RolePair filter_roles(const Cluster& cluster, SpecReader& r, std::size_t k) {
  // The ε-approximate monitor is the filter monitor with half-widened
  // boundaries (FilterCoordinator::Options::approx), so it composes with
  // the same knobs as topk_filter.
  FilterCoordinator::Options o;
  o.approx = (r.name() == "approx");
  if (o.approx) {
    r.read("eps", o.epsilon, "an integer >= 0",
           [](std::string_view v) -> std::optional<std::int64_t> {
             const auto x = to_i64(v);
             if (!x || *x < 0) return std::nullopt;
             return x;
           });
  }
  r.read_flag("nobeacon", o.suppress_idle_broadcasts);
  // Seeded exponential backoff on defensive resets, for the lossy-network
  // and churn suites.
  r.read_flag("backoff", o.reset_backoff);
  // Adversarial-degradation suspicion machinery (lag/stale/mute plans;
  // see core/filter_roles.hpp).
  r.read_flag("suspect", o.suspect);
  // Warm-standby assignment replay on recovery/join (one kFilterAssign
  // instead of the resync handshake).
  r.read_flag("replay", o.replay);
  r.done();
  return native_pair<FilterNode>(std::make_unique<FilterCoordinator>(k, o),
                                 cluster, o.epsilon);
}

RolePair naive_roles(const Cluster& cluster, SpecReader& r, std::size_t k) {
  // The suspicion machinery for adversarial degradations (silence scan /
  // audit probes; core/naive_roles.hpp).
  bool suspect = false;
  r.read_flag("suspect", suspect);
  r.done();
  const bool chg = (r.name() == "naive_chg");
  return native_pair<NaiveNode>(
      std::make_unique<NaiveCoordinator>(k, chg, /*sharded=*/false, suspect),
      cluster, chg);
}

RolePair slack_roles(const Cluster& cluster, SpecReader& r, std::size_t k) {
  SlackCoordinator::Options o;
  // The negated range test also rejects NaN.
  r.read("alpha", o.alpha, "a number in (0, 1)",
         [](std::string_view v) -> std::optional<double> {
           const auto x = to_double(v);
           if (!x || !(*x > 0.0 && *x < 1.0)) return std::nullopt;
           return x;
         });
  r.read_flag("adaptive", o.adaptive);
  // TEST-ONLY: off-by-`nudge` boundary mutation for the differential
  // harness's self-test (tests/core/test_port_mutant.cpp). Never a
  // documented monitor parameter.
  r.read_signed("nudge", o.debug_boundary_nudge);
  r.done();
  return native_pair<SlackNode>(std::make_unique<SlackCoordinator>(k, o),
                                cluster);
}

RolePair dominance_roles(const Cluster& cluster, SpecReader& r,
                         std::size_t k) {
  r.done();
  return native_pair<DominanceNode>(std::make_unique<DominanceCoordinator>(k),
                                    cluster);
}

RolePair ordered_roles(const Cluster& cluster, SpecReader& r, std::size_t k) {
  OrderedCoordinator::Options o;
  r.read_flag("nobeacon", o.suppress_idle_broadcasts);
  r.done();
  return native_pair<OrderedNode>(std::make_unique<OrderedCoordinator>(k, o),
                                  cluster, k);
}

RolePair recompute_roles(const Cluster& cluster, SpecReader& r,
                         std::size_t k) {
  RecomputeCoordinator::Options o;
  r.read_flag("nobeacon", o.suppress_idle_broadcasts);
  r.done();
  return native_pair<RecomputeNode>(
      std::make_unique<RecomputeCoordinator>(k, o), cluster);
}

RolePair multik_roles(const Cluster& cluster, SpecReader& r, std::size_t k) {
  std::vector<std::size_t> ks{k};
  MultiKCoordinator::Options o;
  const std::string ks_form =
      "at most " + std::to_string(MultiKCoordinator::kMaxBoundaries) +
      " increasing positive k values joined by '+' (2+8+16)";
  r.read("ks", ks, ks_form, parse_ks);
  r.read_flag("nobeacon", o.suppress_idle_broadcasts);
  r.done();
  return native_pair<MultiKNode>(std::make_unique<MultiKCoordinator>(ks, o),
                                 cluster, ks);
}

/// One registered monitor. Every capability list the library exposes is
/// derived from kMonitors, so a new monitor is one new row.
struct MonitorRow {
  std::string_view name;
  /// Role factory.
  RolePair (*roles)(const Cluster&, SpecReader&, std::size_t);
  /// Monitor kind of the two-tier ShardedDeployment, if it has one.
  std::optional<ShardedSpec::Monitor> sharded;
  /// The coordinator implements on_set_k (dynamic-k fault events).
  bool dynamic_k;
};

/// Canonical order: the paper's Algorithm 1 first, then baselines.
/// multi_k monitors a fixed set of k values, so it takes no dynamic k.
constexpr MonitorRow kMonitors[] = {
    {"topk_filter", &filter_roles, ShardedSpec::Monitor::kFilter, true},
    {"ordered", &ordered_roles, std::nullopt, true},
    {"slack", &slack_roles, std::nullopt, true},
    {"dominance", &dominance_roles, std::nullopt, true},
    {"recompute", &recompute_roles, std::nullopt, true},
    {"naive", &naive_roles, ShardedSpec::Monitor::kNaive, true},
    {"naive_chg", &naive_roles, ShardedSpec::Monitor::kNaiveChg, true},
    {"approx", &filter_roles, std::nullopt, true},
    {"multi_k", &multik_roles, std::nullopt, false},
};

const MonitorRow* find_row(std::string_view name) noexcept {
  for (const MonitorRow& row : kMonitors) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

/// Names of the rows matching `keep`, in table order.
template <typename Pred>
std::vector<std::string> row_names(Pred keep) {
  std::vector<std::string> out;
  for (const MonitorRow& row : kMonitors) {
    if (keep(row)) out.emplace_back(row.name);
  }
  return out;
}

/// The row `r` names; an unknown name throws with a did-you-mean hint.
const MonitorRow& named_row(const SpecReader& r) {
  const MonitorRow* row = find_row(r.name());
  if (row == nullptr) r.fail_unknown("monitor", r.name(), all_monitor_names());
  return *row;
}

}  // namespace

RolePair make_role_pair(Cluster& cluster, std::string_view spec,
                        std::size_t k) {
  SpecReader r("monitor", spec);
  const MonitorRow& row = named_row(r);
  RolePair pair = row.roles(cluster, r, k);
  pair.dynamic_k = row.dynamic_k;
  return pair;
}

ShardedSpec parse_sharded_spec(std::string_view spec) {
  SpecReader r("monitor", spec);
  const MonitorRow& row = named_row(r);
  if (!row.sharded.has_value()) {
    r.fail("'" + std::string(row.name) +
           "' has no sharded deployment (shardable: " +
           join_names(row_names(
               [](const MonitorRow& x) { return x.sharded.has_value(); })) +
           ")");
  }
  ShardedSpec out;
  out.monitor = *row.sharded;
  // The shard adapters forward topk_filter's beacon suppression and
  // nothing else: any other parameter (backoff, suspect, replay, ...)
  // would be silently dropped, so done() rejects it and says so.
  if (out.monitor == ShardedSpec::Monitor::kFilter) {
    r.read_flag("nobeacon", out.suppress_idle_broadcasts);
  }
  r.done("sharded deployments forward only topk_filter's 'nobeacon'");
  return out;
}

bool is_known_monitor(std::string_view spec) noexcept {
  return find_row(SpecReader::name_of(spec)) != nullptr;
}

const std::vector<std::string>& all_monitor_names() {
  static const std::vector<std::string> names =
      row_names([](const MonitorRow&) { return true; });
  return names;
}

}  // namespace topkmon::exp
