// Communication accounting.
//
// The paper's objective is the *number of messages*: node->coordinator
// reports, coordinator->node unicasts and coordinator broadcasts each cost
// one unit (the broadcast channel delivers one message to all nodes at unit
// cost, following Cormode et al.'s enhanced model). CommStats counts every
// message by direction and kind, and optionally keeps a per-time-step
// series for the time-series experiments.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "util/types.hpp"

namespace topkmon {

/// Per-direction / per-kind message counters plus an optional time series.
class CommStats {
 public:
  /// Counters are zero on construction; the time series is disabled until
  /// `enable_series` is called.
  CommStats() = default;

  // -- recording (called by Network) ---------------------------------------
  // Inline: the transport charges every message through one of these.
  void record_upstream(MsgKind kind) noexcept {
    ++upstream_;
    bump(kind);
  }
  void record_unicast(MsgKind kind) noexcept {
    ++unicast_;
    bump(kind);
  }
  void record_broadcast(MsgKind kind) noexcept {
    ++broadcast_;
    bump(kind);
  }

  /// Marks the beginning of time step `t`; subsequent messages are charged
  /// to this step in the series (if enabled).
  void begin_step(TimeStep t);

  // -- totals ---------------------------------------------------------------
  std::uint64_t upstream() const noexcept { return upstream_; }
  std::uint64_t unicast() const noexcept { return unicast_; }
  std::uint64_t broadcast() const noexcept { return broadcast_; }

  /// Unweighted total message count (the paper's cost measure).
  std::uint64_t total() const noexcept {
    return upstream_ + unicast_ + broadcast_;
  }

  /// Weighted cost with broadcast weight `beta` (sensitivity analysis:
  /// beta = 1 is the paper's model, beta = n charges a broadcast like n
  /// unicasts).
  double weighted_total(double beta) const noexcept {
    return static_cast<double>(upstream_ + unicast_) +
           beta * static_cast<double>(broadcast_);
  }

  std::uint64_t by_kind(MsgKind kind) const noexcept {
    return by_kind_[static_cast<std::size_t>(kind)];
  }

  // -- per-step series ------------------------------------------------------
  /// Enables per-step recording (costs one vector push per step).
  void enable_series() noexcept { series_enabled_ = true; }
  bool series_enabled() const noexcept { return series_enabled_; }

  /// Message count charged to each recorded step, in step order.
  const std::vector<std::uint64_t>& series() const noexcept { return series_; }

  /// Cumulative message count at each recorded step.
  std::vector<std::uint64_t> cumulative_series() const;

  /// Adds another instance's totals into this one — the per-tier
  /// aggregation of a sharded deployment (core/root_merge.hpp) sums its
  /// shard clusters' counters this way. When `other` carries a per-step
  /// series it is merged element-wise (shorter series are zero-padded to
  /// the longer length): the sharded runner begins every shard's steps in
  /// lockstep, so per-shard series align by index and the sum is the
  /// deployment-level per-step message count.
  void accumulate(const CommStats& other) {
    upstream_ += other.upstream_;
    unicast_ += other.unicast_;
    broadcast_ += other.broadcast_;
    for (std::size_t i = 0; i < kNumMsgKinds; ++i) {
      by_kind_[i] += other.by_kind_[i];
    }
    if (other.series_enabled_) {
      series_enabled_ = true;
      if (series_.size() < other.series_.size()) {
        series_.resize(other.series_.size(), 0);
      }
      for (std::size_t i = 0; i < other.series_.size(); ++i) {
        series_[i] += other.series_[i];
      }
    }
  }

  /// Resets all counters and the series.
  void reset() noexcept;

  /// One-line summary for logs: "total=N (up=.., uni=.., bcast=..)".
  std::string summary() const;

 private:
  void bump(MsgKind kind) noexcept {
    ++by_kind_[static_cast<std::size_t>(kind)];
    if (series_enabled_ && !series_.empty()) ++series_.back();
  }

  std::uint64_t upstream_ = 0;
  std::uint64_t unicast_ = 0;
  std::uint64_t broadcast_ = 0;
  std::array<std::uint64_t, kNumMsgKinds> by_kind_{};

  bool series_enabled_ = false;
  std::vector<std::uint64_t> series_;
};

}  // namespace topkmon
