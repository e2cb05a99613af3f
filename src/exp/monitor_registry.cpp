#include "exp/monitor_registry.hpp"

#include <optional>
#include <stdexcept>
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

struct Param {
  std::string key;
  std::string value;  ///< empty for bare flags ("?adaptive")
};

struct ParsedSpec {
  std::string name;
  std::vector<Param> params;
};

ParsedSpec parse_spec(std::string_view spec) {
  ParsedSpec out;
  const std::size_t q = spec.find('?');
  out.name = std::string(spec.substr(0, q));
  if (q == std::string_view::npos) return out;
  for (const std::string_view item : split(spec.substr(q + 1), ',')) {
    const std::size_t eq = item.find('=');
    Param p;
    p.key = std::string(item.substr(0, eq));
    if (eq != std::string_view::npos) {
      p.value = std::string(item.substr(eq + 1));
    }
    out.params.push_back(std::move(p));
  }
  return out;
}

[[noreturn]] void bad_param(const ParsedSpec& spec, const Param& p) {
  throw std::invalid_argument("monitor '" + spec.name +
                              "': unknown or malformed parameter '" + p.key +
                              (p.value.empty() ? "" : "=" + p.value) + "'");
}

bool parse_flag(const Param& p) {
  if (p.value.empty() || p.value == "1" || p.value == "true") return true;
  if (p.value == "0" || p.value == "false") return false;
  throw std::invalid_argument("monitor parameter '" + p.key +
                              "': expected a boolean, got '" + p.value + "'");
}

std::int64_t parse_int(const ParsedSpec& spec, const Param& p) {
  const auto out = to_i64(p.value);
  if (!out) bad_param(spec, p);
  return *out;
}

double parse_double(const ParsedSpec& spec, const Param& p) {
  const auto out = to_double(p.value);
  if (!out) bad_param(spec, p);
  return *out;
}

/// Shared grammar of the specs that accept only `nobeacon` (ordered and
/// recompute).
bool parse_nobeacon_only(const ParsedSpec& spec) {
  bool nobeacon = false;
  for (const auto& p : spec.params) {
    if (p.key == "nobeacon") nobeacon = parse_flag(p);
    else bad_param(spec, p);
  }
  return nobeacon;
}

/// Rejects any parameter (specs without a parameter grammar).
void expect_no_params(const ParsedSpec& spec) {
  for (const auto& p : spec.params) bad_param(spec, p);
}

/// "2+8+16" -> {2, 8, 16}.
std::vector<std::size_t> parse_ks(const ParsedSpec& spec, const Param& p) {
  std::vector<std::size_t> out;
  for (const std::string_view item : split(p.value, '+')) {
    const auto v = to_u64(item);
    if (!v) bad_param(spec, p);
    out.push_back(static_cast<std::size_t>(*v));
  }
  if (out.empty()) bad_param(spec, p);
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

RolePair filter_roles(const Cluster& cluster, const ParsedSpec& spec,
                      std::size_t k) {
  // The ε-approximate monitor is the filter monitor with half-widened
  // boundaries (FilterCoordinator::Options::approx), so it composes with
  // the same knobs as topk_filter.
  FilterCoordinator::Options o;
  o.approx = (spec.name == "approx");
  for (const auto& p : spec.params) {
    if (o.approx && p.key == "eps") o.epsilon = parse_int(spec, p);
    else if (p.key == "nobeacon") o.suppress_idle_broadcasts = parse_flag(p);
    // Seeded exponential backoff on defensive resets, for the
    // lossy-network and churn suites.
    else if (p.key == "backoff") o.reset_backoff = parse_flag(p);
    // Adversarial-degradation suspicion machinery (lag/stale/mute
    // plans; see core/filter_roles.hpp).
    else if (p.key == "suspect") o.suspect = parse_flag(p);
    // Warm-standby assignment replay on recovery/join (one
    // kFilterAssign instead of the resync handshake).
    else if (p.key == "replay") o.replay = parse_flag(p);
    else bad_param(spec, p);
  }
  return native_pair<FilterNode>(std::make_unique<FilterCoordinator>(k, o),
                                 cluster, o.epsilon);
}

RolePair naive_roles(const Cluster& cluster, const ParsedSpec& spec,
                     std::size_t k) {
  // The suspicion machinery for adversarial degradations (silence scan /
  // audit probes; core/naive_roles.hpp).
  bool suspect = false;
  for (const auto& p : spec.params) {
    if (p.key == "suspect") suspect = parse_flag(p);
    else bad_param(spec, p);
  }
  const bool chg = (spec.name == "naive_chg");
  return native_pair<NaiveNode>(
      std::make_unique<NaiveCoordinator>(k, chg, /*sharded=*/false, suspect),
      cluster, chg);
}

RolePair slack_roles(const Cluster& cluster, const ParsedSpec& spec,
                     std::size_t k) {
  SlackCoordinator::Options o;
  for (const auto& p : spec.params) {
    if (p.key == "alpha") o.alpha = parse_double(spec, p);
    else if (p.key == "adaptive") o.adaptive = parse_flag(p);
    // TEST-ONLY: off-by-`nudge` boundary mutation for the differential
    // harness's self-test (tests/core/test_port_mutant.cpp). Never a
    // documented monitor parameter.
    else if (p.key == "nudge") o.debug_boundary_nudge = parse_int(spec, p);
    else bad_param(spec, p);
  }
  return native_pair<SlackNode>(std::make_unique<SlackCoordinator>(k, o),
                                cluster);
}

RolePair dominance_roles(const Cluster& cluster, const ParsedSpec& spec,
                         std::size_t k) {
  expect_no_params(spec);
  return native_pair<DominanceNode>(std::make_unique<DominanceCoordinator>(k),
                                    cluster);
}

RolePair ordered_roles(const Cluster& cluster, const ParsedSpec& spec,
                       std::size_t k) {
  OrderedCoordinator::Options o;
  o.suppress_idle_broadcasts = parse_nobeacon_only(spec);
  return native_pair<OrderedNode>(std::make_unique<OrderedCoordinator>(k, o),
                                  cluster, k);
}

RolePair recompute_roles(const Cluster& cluster, const ParsedSpec& spec,
                         std::size_t k) {
  RecomputeCoordinator::Options o;
  o.suppress_idle_broadcasts = parse_nobeacon_only(spec);
  return native_pair<RecomputeNode>(
      std::make_unique<RecomputeCoordinator>(k, o), cluster);
}

RolePair multik_roles(const Cluster& cluster, const ParsedSpec& spec,
                      std::size_t k) {
  std::vector<std::size_t> ks{k};
  MultiKCoordinator::Options o;
  for (const auto& p : spec.params) {
    if (p.key == "ks") ks = parse_ks(spec, p);
    else if (p.key == "nobeacon") o.suppress_idle_broadcasts = parse_flag(p);
    else bad_param(spec, p);
  }
  return native_pair<MultiKNode>(std::make_unique<MultiKCoordinator>(ks, o),
                                 cluster, ks);
}

/// One registered monitor. Every capability list the library exposes is
/// derived from kMonitors, so a new monitor is one new row.
struct MonitorRow {
  std::string_view name;
  /// Role factory.
  RolePair (*roles)(const Cluster&, const ParsedSpec&, std::size_t);
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

}  // namespace

RolePair make_role_pair(Cluster& cluster, std::string_view spec,
                        std::size_t k) {
  const ParsedSpec parsed = parse_spec(spec);
  const MonitorRow* row = find_row(parsed.name);
  if (row == nullptr) {
    throw std::invalid_argument("unknown monitor '" + parsed.name + "'");
  }
  RolePair pair = row->roles(cluster, parsed, k);
  pair.dynamic_k = row->dynamic_k;
  return pair;
}

ShardedSpec parse_sharded_spec(std::string_view spec) {
  const ParsedSpec parsed = parse_spec(spec);
  const MonitorRow* row = find_row(parsed.name);
  if (row == nullptr || !row->sharded.has_value()) {
    throw std::invalid_argument(
        "monitor '" + std::string(spec) +
        "' has no sharded deployment (shardable: " +
        join_names(row_names(
            [](const MonitorRow& r) { return r.sharded.has_value(); })) +
        ")");
  }
  ShardedSpec out;
  out.monitor = *row->sharded;
  // The shard adapters forward topk_filter's beacon suppression and
  // nothing else: any other parameter (backoff, suspect, replay, ...)
  // would be silently dropped, so it is rejected.
  for (const auto& p : parsed.params) {
    if (out.monitor == ShardedSpec::Monitor::kFilter && p.key == "nobeacon") {
      out.suppress_idle_broadcasts = parse_flag(p);
    } else {
      bad_param(parsed, p);
    }
  }
  return out;
}

std::pair<std::string, std::size_t> split_shards_param(std::string_view spec) {
  const ParsedSpec parsed = parse_spec(spec);
  std::size_t shards = 0;
  std::string rest = parsed.name;
  char sep = '?';
  for (const auto& p : parsed.params) {
    if (p.key == "shards") {
      const auto v = to_u64(p.value);
      if (!v || *v == 0) {
        throw std::invalid_argument("monitor '" + parsed.name +
                                    "': shards expects a positive integer, "
                                    "got '" +
                                    p.value + "'");
      }
      shards = static_cast<std::size_t>(*v);
      continue;
    }
    rest += sep;
    sep = ',';
    rest += p.key;
    if (!p.value.empty()) {
      rest += '=';
      rest += p.value;
    }
  }
  return {std::move(rest), shards};
}

bool is_known_monitor(std::string_view spec) noexcept {
  return find_row(spec.substr(0, spec.find('?'))) != nullptr;
}

const std::vector<std::string>& all_monitor_names() {
  static const std::vector<std::string> names =
      row_names([](const MonitorRow&) { return true; });
  return names;
}

}  // namespace topkmon::exp
