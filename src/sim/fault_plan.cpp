#include "sim/fault_plan.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace topkmon {
namespace {

[[noreturn]] void bad(std::string_view spec, const std::string& what) {
  throw std::invalid_argument("fault plan '" + std::string(spec) +
                              "': " + what);
}

const std::vector<std::string>& known_keys() {
  static const std::vector<std::string> keys = {
      "crash", "recover", "join",  "leave",  "k",    "every", "down",
      "count", "outage",  "lag",   "stale",  "mute", "heal"};
  return keys;
}

std::string state_phrase(int state) {
  switch (state) {
    case 0: return "is up";
    case 1: return "is already down";
    case 2: return "has left";
    default: return "has not joined yet (its join event is scheduled later)";
  }
}

}  // namespace

std::string_view fault_kind_name(FaultEvent::Kind kind) noexcept {
  switch (kind) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kRecover: return "recover";
    case FaultEvent::Kind::kJoin: return "join";
    case FaultEvent::Kind::kLeave: return "leave";
    case FaultEvent::Kind::kSetK: return "k";
    case FaultEvent::Kind::kLag: return "lag";
    case FaultEvent::Kind::kStale: return "stale";
    case FaultEvent::Kind::kMute: return "mute";
    case FaultEvent::Kind::kHeal: return "heal";
  }
  return "?";
}

FaultPlan::FaultPlan(std::string_view spec, std::size_t n, std::size_t k,
                     std::uint64_t seed)
    : n_(n), total_nodes_(n) {
  if (n == 0) bad(spec, "a fault plan needs at least one node");

  const std::size_t q = spec.find('?');
  const std::string_view name = spec.substr(0, q);
  const std::string_view params =
      q == std::string_view::npos ? std::string_view{} : spec.substr(q + 1);

  if (name.empty() || name == "none") {
    if (!params.empty()) bad(spec, "plan 'none' takes no parameters");
    return;
  }
  if (name != "churn") {
    std::string msg = "unknown plan '" + std::string(name) + "'";
    const auto hints =
        closest_matches(name, std::vector<std::string>{"churn", "none"});
    if (!hints.empty()) msg += "; did you mean '" + hints[0] + "'?";
    bad(spec, msg);
  }

  // -- grammar pass: explicit events + generated-churn parameters ----------
  std::uint64_t gen_every = 0, gen_down = 1, gen_count = 4, gen_outage = 0;
  bool gen_used = false, gen_outage_set = false, explicit_membership = false;

  const auto parse_step = [&](std::string_view text,
                              std::string_view item) -> TimeStep {
    const auto s = to_u64(text);
    if (!s) bad(spec, "malformed step in '" + std::string(item) + "'");
    if (*s == 0) {
      bad(spec, "event '" + std::string(item) +
                    "' is scheduled at step 0 (step 0 is initialization; "
                    "events fire from step 1 on)");
    }
    return *s;
  };

  for (const std::string_view item : split(params, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      bad(spec, "malformed parameter '" + std::string(item) +
                    "' (expected key=value)");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view rest = item.substr(eq + 1);
    const std::size_t at = rest.find('@');

    if (key == "every" || key == "down" || key == "count" ||
        key == "outage") {
      if (at != std::string_view::npos) {
        bad(spec, "'" + std::string(key) +
                      "' is a generated-churn parameter and takes no @step");
      }
      const auto v = to_u64(rest);
      if (!v || *v == 0) {
        bad(spec, "malformed value in '" + std::string(item) + "'");
      }
      gen_used = true;
      if (key == "every") gen_every = *v;
      if (key == "down") gen_down = *v;
      if (key == "count") gen_count = *v;
      if (key == "outage") gen_outage = *v, gen_outage_set = true;
      continue;
    }

    if (key == "lag" || key == "stale" || key == "mute" || key == "heal") {
      if (at == std::string_view::npos) {
        bad(spec, "event '" + std::string(item) +
                      "' is missing its @step schedule");
      }
      std::string_view step_text = rest.substr(at + 1);
      FaultEvent ev;
      if (key == "lag") {
        const std::size_t colon = step_text.find(':');
        if (colon == std::string_view::npos) {
          bad(spec, "lag takes a hold delay: lag=ID@STEP:TICKS, got '" +
                        std::string(item) + "'");
        }
        const auto ticks = to_u64(step_text.substr(colon + 1));
        if (!ticks || *ticks == 0) {
          bad(spec, "malformed lag ticks in '" + std::string(item) +
                        "' (must be >= 1)");
        }
        ev.count = *ticks;
        step_text = step_text.substr(0, colon);
        ev.kind = FaultEvent::Kind::kLag;
      } else {
        ev.kind = key == "stale"  ? FaultEvent::Kind::kStale
                  : key == "mute" ? FaultEvent::Kind::kMute
                                  : FaultEvent::Kind::kHeal;
      }
      ev.step = parse_step(step_text, item);
      const auto id = to_u64(rest.substr(0, at));
      if (!id) bad(spec, "malformed node id in '" + std::string(item) + "'");
      ev.node = static_cast<NodeId>(*id);
      if (*id != ev.node) {
        bad(spec, "node id in '" + std::string(item) +
                      "' exceeds the 32-bit id space");
      }
      events_.push_back(ev);
      continue;
    }

    if (key == "crash" || key == "recover" || key == "leave" ||
        key == "join" || key == "k") {
      if (at == std::string_view::npos) {
        bad(spec, "event '" + std::string(item) +
                      "' is missing its @step schedule");
      }
      const TimeStep step = parse_step(rest.substr(at + 1), item);
      const std::string_view value = rest.substr(0, at);
      FaultEvent ev;
      ev.step = step;
      if (key == "k") {
        const auto kk = to_u64(value);
        if (!kk || *kk == 0) {
          bad(spec, "malformed k in '" + std::string(item) +
                        "' (k must be >= 1)");
        }
        ev.kind = FaultEvent::Kind::kSetK;
        ev.count = *kk;
      } else if (key == "join") {
        if (value.empty() || value[0] != '+') {
          bad(spec, "join takes a node count: join=+N@step, got '" +
                        std::string(item) + "'");
        }
        const auto c = to_u64(value.substr(1));
        if (!c || *c == 0) {
          bad(spec, "malformed join count in '" + std::string(item) + "'");
        }
        ev.kind = FaultEvent::Kind::kJoin;
        ev.count = *c;
        explicit_membership = true;
      } else {
        const auto id = to_u64(value);
        if (!id) bad(spec, "malformed node id in '" + std::string(item) + "'");
        ev.kind = key == "crash"   ? FaultEvent::Kind::kCrash
                  : key == "leave" ? FaultEvent::Kind::kLeave
                                   : FaultEvent::Kind::kRecover;
        ev.node = static_cast<NodeId>(*id);
        if (*id != ev.node) {
          bad(spec, "node id in '" + std::string(item) +
                        "' exceeds the 32-bit id space");
        }
        explicit_membership = true;
      }
      events_.push_back(ev);
      continue;
    }

    std::string msg = "unknown key '" + std::string(key) + "'";
    const auto hints = closest_matches(key, known_keys());
    if (!hints.empty()) msg += "; did you mean '" + hints[0] + "'?";
    bad(spec, msg);
  }

  if (gen_used && explicit_membership) {
    bad(spec,
        "generated churn (every/down/count/outage) cannot be mixed with "
        "explicit membership events; only k=K@step composes with it");
  }

  // -- generated churn: expand bursts into crash/recover events ------------
  // Victim draws derive from the run seed through a tagged generator (the
  // Network link-hash pattern): independent of node/stream RNG streams,
  // identical across --jobs, and consumed only when a plan is
  // configured — a fault-free run never touches it.
  if (gen_used) {
    if (gen_every == 0) {
      bad(spec, "generated churn requires a period: every=T");
    }
    if (!gen_outage_set) gen_outage = std::max<std::uint64_t>(1, gen_every / 2);
    Rng rng(seed ^ 0x6661756C745F706Cull);  // "fault_pl"
    std::vector<NodeId> live(n);
    std::iota(live.begin(), live.end(), NodeId{0});
    std::vector<std::pair<TimeStep, NodeId>> pending;  // scheduled recoveries
    std::vector<FaultEvent> gen;
    const auto drain_pending = [&](TimeStep up_to) {
      std::sort(pending.begin(), pending.end());
      std::size_t i = 0;
      for (; i < pending.size() && pending[i].first <= up_to; ++i) {
        gen.push_back({FaultEvent::Kind::kRecover, pending[i].first,
                       pending[i].second, 0});
        live.push_back(pending[i].second);
      }
      pending.erase(pending.begin(), pending.begin() + i);
    };
    for (std::uint64_t burst = 0; burst < gen_count; ++burst) {
      const TimeStep s = gen_every * (burst + 1);
      drain_pending(s);
      for (std::uint64_t d = 0; d < gen_down; ++d) {
        if (live.empty()) {
          bad(spec, "churn burst at step " + std::to_string(s) +
                        " has no live node left to crash (down=" +
                        std::to_string(gen_down) + " is too aggressive)");
        }
        const std::size_t idx =
            static_cast<std::size_t>(rng.uniform_below(live.size()));
        const NodeId victim = live[idx];
        live[idx] = live.back();
        live.pop_back();
        gen.push_back({FaultEvent::Kind::kCrash, s, victim, 0});
        pending.emplace_back(s + gen_outage, victim);
      }
    }
    drain_pending(~TimeStep{0});  // emit the tail recoveries
    // Generated events first (chronological), explicit k events after;
    // the stable sort keeps that order within a step.
    gen.insert(gen.end(), events_.begin(), events_.end());
    events_ = std::move(gen);
  }

  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.step < b.step; });

  // -- timeline validation: replay every event against simulated state -----
  std::size_t joins = 0;
  for (const FaultEvent& ev : events_) {
    if (ev.kind == FaultEvent::Kind::kJoin) joins += ev.count;
  }
  total_nodes_ = n + joins;

  // 0 = alive, 1 = down, 2 = left, 3 = not joined yet.
  std::vector<int> state(total_nodes_, 0);
  for (std::size_t id = n; id < total_nodes_; ++id) state[id] = 3;
  // Degradation is orthogonal to liveness but only legal on a live node;
  // a crash or leave implicitly clears it (the node restarts clean).
  std::vector<char> degraded(total_nodes_, 0);
  std::size_t live = n;
  std::size_t cur_k = k;
  std::size_t next_base = n;

  const auto check_range = [&](const FaultEvent& ev) {
    if (ev.node >= total_nodes_) {
      bad(spec, std::string(fault_kind_name(ev.kind)) + " target " +
                    std::to_string(ev.node) +
                    " is out of range; valid node ids are 0.." +
                    std::to_string(total_nodes_ - 1) + " (closest valid id: " +
                    std::to_string(total_nodes_ - 1) + ")");
    }
  };
  const auto require_state = [&](const FaultEvent& ev, int want) {
    check_range(ev);
    if (state[ev.node] != want) {
      bad(spec, "cannot " + std::string(fault_kind_name(ev.kind)) + " node " +
                    std::to_string(ev.node) + " at step " +
                    std::to_string(ev.step) + ": node " +
                    state_phrase(state[ev.node]));
    }
  };

  for (FaultEvent& ev : events_) {
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
        require_state(ev, 0);
        state[ev.node] = 1;
        degraded[ev.node] = 0;
        --live;
        break;
      case FaultEvent::Kind::kRecover:
        require_state(ev, 1);
        state[ev.node] = 0;
        ++live;
        break;
      case FaultEvent::Kind::kLeave:
        if (ev.node < total_nodes_ && state[ev.node] == 1) {
          bad(spec, "cannot leave node " + std::to_string(ev.node) +
                        " at step " + std::to_string(ev.step) +
                        " while it is down (recover it first)");
        }
        require_state(ev, 0);
        state[ev.node] = 2;
        degraded[ev.node] = 0;
        --live;
        break;
      case FaultEvent::Kind::kJoin:
        ev.node = static_cast<NodeId>(next_base);
        for (std::size_t id = next_base; id < next_base + ev.count; ++id) {
          state[id] = 0;
        }
        next_base += ev.count;
        live += ev.count;
        break;
      case FaultEvent::Kind::kSetK:
        if (ev.count > live) {
          bad(spec, "k=" + std::to_string(ev.count) + " at step " +
                        std::to_string(ev.step) +
                        " exceeds the live node count (" +
                        std::to_string(live) + ")");
        }
        cur_k = ev.count;
        break;
      case FaultEvent::Kind::kLag:
      case FaultEvent::Kind::kStale:
      case FaultEvent::Kind::kMute:
        require_state(ev, 0);
        if (degraded[ev.node]) {
          bad(spec, "cannot " + std::string(fault_kind_name(ev.kind)) +
                        " node " + std::to_string(ev.node) + " at step " +
                        std::to_string(ev.step) +
                        ": node is already degraded (heal it first)");
        }
        degraded[ev.node] = 1;
        break;
      case FaultEvent::Kind::kHeal:
        require_state(ev, 0);
        if (!degraded[ev.node]) {
          bad(spec, "cannot heal node " + std::to_string(ev.node) +
                        " at step " + std::to_string(ev.step) +
                        ": node is not degraded");
        }
        degraded[ev.node] = 0;
        break;
    }
    if (live < cur_k) {
      bad(spec, "event '" + std::string(fault_kind_name(ev.kind)) +
                    "' at step " + std::to_string(ev.step) +
                    " leaves fewer live nodes (" + std::to_string(live) +
                    ") than k (" + std::to_string(cur_k) + ")");
    }
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kRecover:
      case FaultEvent::Kind::kJoin:
      case FaultEvent::Kind::kLeave:
        has_churn_ = true;
        break;
      case FaultEvent::Kind::kLag:
      case FaultEvent::Kind::kStale:
      case FaultEvent::Kind::kMute:
      case FaultEvent::Kind::kHeal:
        has_degradation_ = true;
        break;
      case FaultEvent::Kind::kSetK:
        break;
    }
  }
}

FaultPlan FaultPlan::from_events(std::size_t total_nodes,
                                 std::vector<FaultEvent> events) {
  FaultPlan plan;
  std::size_t joins = 0;
  for (const FaultEvent& ev : events) {
    switch (ev.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kRecover:
      case FaultEvent::Kind::kLeave:
        plan.has_churn_ = true;
        break;
      case FaultEvent::Kind::kJoin:
        plan.has_churn_ = true;
        joins += ev.count;
        break;
      case FaultEvent::Kind::kLag:
      case FaultEvent::Kind::kStale:
      case FaultEvent::Kind::kMute:
      case FaultEvent::Kind::kHeal:
        plan.has_degradation_ = true;
        break;
      case FaultEvent::Kind::kSetK:
        break;
    }
  }
  plan.n_ = total_nodes - joins;
  plan.total_nodes_ = total_nodes;
  plan.events_ = std::move(events);
  return plan;
}

std::string FaultPlan::spec_name() const {
  if (events_.empty()) return "none";
  std::string out = "churn?";
  bool first = true;
  for (const FaultEvent& ev : events_) {
    if (!first) out += ',';
    first = false;
    out += fault_kind_name(ev.kind);
    out += '=';
    switch (ev.kind) {
      case FaultEvent::Kind::kJoin:
        out += '+' + std::to_string(ev.count);
        break;
      case FaultEvent::Kind::kSetK:
        out += std::to_string(ev.count);
        break;
      default:
        out += std::to_string(ev.node);
        break;
    }
    out += '@' + std::to_string(ev.step);
    if (ev.kind == FaultEvent::Kind::kLag) {
      out += ':' + std::to_string(ev.count);
    }
  }
  return out;
}

}  // namespace topkmon
