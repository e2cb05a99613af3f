// Activity-gated streams — the "almost nothing happens almost all the
// time" workload the paper's premise lives on. Each node re-draws from
// its inner stream only on its *activity steps* and repeats its last
// value otherwise, so exactly a `rate` fraction of nodes changes per
// global step: activity steps recur with period round(1/rate) and the
// factory stripes the per-node phases as id % period, giving
// floor/ceil(rate * n) changing nodes every step (not merely in
// expectation). The first draw is never gated — every node needs a real
// initial value.
//
// One schedule rule (sparse_draws) serves two forms, as RandomWalkStream
// sits beside RandomWalkBank: SparseStream is one node's wrapper
// (make_stream, the per-node reference), and SparseBank is the factory's
// n-node bank. SparseBank wraps the inner family's own bank (the
// RandomWalkBank columns for random walks, a TypedBank<S> otherwise) and
// counts whole-set advances: at advance c >= 1 the due nodes are exactly
// the ids with id % period == sparse_due_phase(c, period), i.e. that
// phase, phase + period, phase + 2 * period, ..., so
// StreamSet::advance_all_active visits only that stride.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "streams/stream.hpp"

namespace topkmon {

struct SparseParams {
  /// Fraction of nodes that change per step, in (0, 1]. Internally
  /// realized as an activity period of round(1/rate) steps.
  double rate = 0.1;
};

/// The phase whose nodes draw at advance c >= 1 (c counts a node's
/// advances from 0): the p in [0, period) with (c + p) % period == 0.
inline std::uint64_t sparse_due_phase(std::uint64_t c,
                                      std::uint64_t period) noexcept {
  return (period - c % period) % period;
}

/// The schedule rule: does advance c of a node at `phase` draw a fresh
/// inner value? Advance 0 draws at every phase; later advances draw on
/// the node's activity steps only.
inline bool sparse_draws(std::uint64_t c, std::uint64_t phase,
                         std::uint64_t period) noexcept {
  return c == 0 || phase == sparse_due_phase(c, period);
}

class SparseStream final : public Stream {
 public:
  /// Activity period implied by `rate`: round(1/rate) steps. Throws
  /// std::invalid_argument unless rate lies in (0, 1] and 1/rate < 2^63,
  /// so the period fits in a std::int64_t.
  static std::uint64_t period_for(double rate);

  /// Wraps `inner`; this node draws a fresh value on the advances where
  /// sparse_draws(c, phase, period) holds, with period = period_for(rate).
  /// `phase` must lie in [0, period); the factory spreads phases across
  /// nodes.
  SparseStream(std::unique_ptr<Stream> inner, double rate,
               std::uint64_t phase);

  Value next() override;

  std::uint64_t period() const noexcept { return period_; }

 private:
  std::unique_ptr<Stream> inner_;
  std::uint64_t period_;
  std::uint64_t phase_;
  std::uint64_t advances_ = 0;  ///< next() calls so far
  Value current_ = 0;
};

/// The factory's bank for the sparse family: node id's stream is
/// SparseStream(inner stream of node id, rate, id % period), with the
/// inner family's values (and its distinctness transform) taken from
/// `inner`, a bank over the same n nodes.
///
/// Whole-set advances share one counter; at advance c only the due class
/// draws (every node at c == 0 or when period == 1, else the stride of
/// ids from sparse_due_phase(c, period)). A per-id advance() switches the
/// bank to per-node counts, which exact per-id and whole-set mixes need;
/// from then on advance_all_active throws, as the nodes no longer share
/// one clock.
class SparseBank final : public StreamBank {
 public:
  /// Throws std::invalid_argument unless `inner` is non-empty and period
  /// is at least 1.
  SparseBank(std::unique_ptr<StreamBank> inner, std::uint64_t period);

  std::uint64_t period() const noexcept { return period_; }

  std::size_t size() const noexcept override { return current_.size(); }
  bool quiet_capable() const override { return true; }
  Value advance(NodeId id) override;

  /// Draws the due class, then copies every node's observation into
  /// `values` and packs the compare (StreamBank::advance_all hands in a
  /// scratch buffer, so the non-due observations come from the bank).
  void advance_all_masked(std::span<Value> values,
                          std::span<std::uint64_t> changed) override;

  /// Visits only the due class: `values` must hold the previous
  /// observations. Throws std::logic_error after a per-id advance().
  void advance_all_active(std::span<Value> values,
                          std::vector<NodeId>& changed) override;

 private:
  /// True when whole-set advance c draws every node (c == 0, or a period
  /// of 1): the inner bank's own whole-set pass then serves it.
  bool draws_all(std::uint64_t c) const noexcept {
    return c == 0 || period_ == 1;
  }

  std::unique_ptr<StreamBank> inner_;
  std::uint64_t period_;
  std::uint64_t step_ = 0;              ///< whole-set advances so far
  std::vector<std::uint64_t> counts_;   ///< per-node advances, once per-id
  std::vector<Value> current_;          ///< every node's last observation
};

}  // namespace topkmon
