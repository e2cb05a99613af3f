#include "sim/fault_plan.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace topkmon {
namespace {

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
  SpecReader r("fault plan", spec);
  if (n == 0) r.fail("a fault plan needs at least one node");

  if (r.name().empty() || r.name() == "none") {
    if (!r.query().empty()) r.fail("plan 'none' takes no parameters");
    return;
  }
  if (r.name() != "churn") r.fail_unknown("plan", r.name(), {"churn", "none"});

  // -- grammar pass: generated-churn parameters + explicit events ----------
  std::uint64_t gen_every = 0, gen_down = 1, gen_count = 4, gen_outage = 0;
  const std::string positive_text = "a positive integer";
  const auto positive = [](std::string_view v) -> std::optional<std::uint64_t> {
    const auto x = to_u64(v);
    if (!x || *x == 0) return std::nullopt;
    return x;
  };
  bool gen_used = r.read("every", gen_every, positive_text, positive);
  gen_used |= r.read("down", gen_down, positive_text, positive);
  gen_used |= r.read("count", gen_count, positive_text, positive);
  const bool gen_outage_set =
      r.read("outage", gen_outage, positive_text, positive);
  gen_used |= gen_outage_set;

  // An event item is KIND=VALUE@STEP, with VALUE a node id (a `+N` node
  // count for join, the new k for k) and lag's STEP:TICKS hold delay.
  // The keys are the kinds' names, indexed by kind (kHeal is the last).
  std::vector<std::string_view> event_keys;
  for (int kind = 0; kind <= static_cast<int>(FaultEvent::Kind::kHeal);
       ++kind) {
    event_keys.push_back(fault_kind_name(static_cast<FaultEvent::Kind>(kind)));
  }
  bool explicit_membership = false;
  r.each(event_keys, [&](const SpecItem& spec_item, std::size_t which) {
    const std::string item(spec_item.text);
    FaultEvent ev;
    ev.kind = static_cast<FaultEvent::Kind>(which);
    const std::size_t at = spec_item.value.find('@');
    if (at == std::string_view::npos) {
      r.fail("event '" + item + "' is missing its @step schedule");
    }
    const std::string_view value = spec_item.value.substr(0, at);
    std::string_view step_text = spec_item.value.substr(at + 1);
    if (ev.kind == FaultEvent::Kind::kLag) {
      const std::size_t colon = step_text.find(':');
      if (colon == std::string_view::npos) {
        r.fail("lag takes a hold delay: lag=ID@STEP:TICKS, got '" + item +
               "'");
      }
      const auto ticks = positive(step_text.substr(colon + 1));
      if (!ticks) r.fail("malformed lag ticks in '" + item + "' (must be > 0)");
      ev.count = *ticks;
      step_text = step_text.substr(0, colon);
    }
    const auto step = to_u64(step_text);
    if (!step) r.fail("malformed step in '" + item + "'");
    if (*step == 0) {
      r.fail("event '" + item +
             "' is scheduled at step 0 (step 0 is initialization; events "
             "fire from step 1 on)");
    }
    ev.step = *step;
    if (ev.kind == FaultEvent::Kind::kSetK) {
      const auto kk = positive(value);
      if (!kk) r.fail("malformed k in '" + item + "' (k must be >= 1)");
      ev.count = *kk;
    } else if (ev.kind == FaultEvent::Kind::kJoin) {
      if (value.empty() || value[0] != '+') {
        r.fail("join takes a node count: join=+N@step, got '" + item + "'");
      }
      const auto c = positive(value.substr(1));
      if (!c) r.fail("malformed join count in '" + item + "'");
      ev.count = *c;
      explicit_membership = true;
    } else {
      const auto id = to_u64(value);
      if (!id) r.fail("malformed node id in '" + item + "'");
      ev.node = static_cast<NodeId>(*id);
      if (*id != ev.node) {
        r.fail("node id in '" + item + "' exceeds the 32-bit id space");
      }
      // Degradations (lag/stale/mute/heal) leave membership alone.
      explicit_membership |= ev.kind == FaultEvent::Kind::kCrash ||
                             ev.kind == FaultEvent::Kind::kRecover ||
                             ev.kind == FaultEvent::Kind::kLeave;
    }
    events_.push_back(ev);
  });
  r.done();

  if (gen_used && explicit_membership) {
    r.fail(
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
      r.fail("generated churn requires a period: every=T");
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
          r.fail("churn burst at step " + std::to_string(s) +
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
      r.fail(std::string(fault_kind_name(ev.kind)) + " target " +
                    std::to_string(ev.node) +
                    " is out of range; valid node ids are 0.." +
                    std::to_string(total_nodes_ - 1) + " (closest valid id: " +
                    std::to_string(total_nodes_ - 1) + ")");
    }
  };
  const auto require_state = [&](const FaultEvent& ev, int want) {
    check_range(ev);
    if (state[ev.node] != want) {
      r.fail("cannot " + std::string(fault_kind_name(ev.kind)) + " node " +
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
          r.fail("cannot leave node " + std::to_string(ev.node) +
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
          r.fail("k=" + std::to_string(ev.count) + " at step " +
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
          r.fail("cannot " + std::string(fault_kind_name(ev.kind)) +
                        " node " + std::to_string(ev.node) + " at step " +
                        std::to_string(ev.step) +
                        ": node is already degraded (heal it first)");
        }
        degraded[ev.node] = 1;
        break;
      case FaultEvent::Kind::kHeal:
        require_state(ev, 0);
        if (!degraded[ev.node]) {
          r.fail("cannot heal node " + std::to_string(ev.node) +
                        " at step " + std::to_string(ev.step) +
                        ": node is not degraded");
        }
        degraded[ev.node] = 0;
        break;
    }
    if (live < cur_k) {
      r.fail("event '" + std::string(fault_kind_name(ev.kind)) +
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
