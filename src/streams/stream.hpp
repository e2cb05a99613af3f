// Data-stream generator interface.
//
// Each distributed node observes a private online stream (v^1, v^2, ...).
// A Stream produces that sequence one value per call; the runner calls
// `next()` exactly once per node per time step, so generators that model
// global time (adversarial rotations, sinusoids) may keep an internal step
// counter and stay synchronized across nodes.
//
// Step-major banks: a StreamSet keeps its n streams in one StreamBank and
// generates a whole step with one virtual call. Most factory families use
// TypedBank<S>, which stores the concrete `final` streams by value in one
// contiguous vector and calls the qualified s.S::next() — bound statically
// and inlined where each family's .cpp instantiates the bank. Random
// walks use a column bank instead (RandomWalkBank, streams/random_walk.hpp).
// Nothing is generated ahead of demand: every value is drawn at the
// advance that returns it, so a finite strict trace throws at exactly
// that advance.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace topkmon {

/// One node's private data stream.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Advances the stream by one observation and returns the new value.
  virtual Value next() = 0;

  /// True when the stream can certify quiet runs (advance_quiet below):
  /// the activity-gated wrapper family. Lets StreamSet::advance_all_active
  /// skip untouched nodes in O(1) per step instead of materializing their
  /// repeated values.
  virtual bool supports_quiet_runs() const { return false; }

  /// Consumes up to `max_steps` upcoming advances whose values are
  /// guaranteed equal to the last produced value, returning how many were
  /// consumed (0: the next advance may change the value). The default —
  /// and any generator without change tracking — never certifies a quiet
  /// step.
  virtual std::uint64_t advance_quiet(std::uint64_t max_steps) {
    (void)max_steps;
    return 0;
  }
};

/// Order-preserving distinctness transform (the paper assumes pairwise
/// distinct values): v' = v*n + (n-1-id). Raw-value order is preserved;
/// raw ties are broken toward smaller node ids; Δ scales by n.
inline Value distinct_value(Value v, NodeId id, Value n) noexcept {
  return v * n + (n - 1 - static_cast<Value>(id));
}

/// A single stream under the distinctness transform, for hand-built sets.
class DistinctStream final : public Stream {
 public:
  DistinctStream(std::unique_ptr<Stream> inner, NodeId id, std::size_t n)
      : inner_(std::move(inner)), id_(id), n_(static_cast<Value>(n)) {}

  Value next() override { return distinct_value(inner_->next(), id_, n_); }

  /// The affine map is stateless and injective, so inner quiet runs are
  /// outer quiet runs.
  bool supports_quiet_runs() const override {
    return inner_->supports_quiet_runs();
  }
  std::uint64_t advance_quiet(std::uint64_t max_steps) override {
    return inner_->advance_quiet(max_steps);
  }

 private:
  std::unique_ptr<Stream> inner_;
  NodeId id_;
  Value n_;
};

/// The n per-node streams of a StreamSet (index = node id). Ids are not
/// checked here; StreamSet checks them.
class StreamBank {
 public:
  virtual ~StreamBank() = default;

  virtual std::size_t size() const noexcept = 0;

  /// True when every node's stream certifies quiet runs (see
  /// Stream::supports_quiet_runs). Banks without change tracking keep
  /// the default.
  virtual bool quiet_capable() const { return false; }

  /// Stream::advance_quiet of node `id`'s stream.
  virtual std::uint64_t advance_quiet(NodeId id, std::uint64_t max_steps) {
    (void)id;
    (void)max_steps;
    return 0;
  }

  /// Advances node `id` once and returns its observation.
  virtual Value advance(NodeId id) = 0;

  /// Advances every node once: out[id] receives node id's observation.
  /// The bank's one whole-set pass is advance_all_masked; this runs it
  /// into a scratch mask (observations never depend on `out`'s previous
  /// contents). Requires out.size() == size().
  void advance_all(std::span<Value> out) {
    mask_scratch_.resize((out.size() + 63) / 64);
    advance_all_masked(out, mask_scratch_);
  }

  /// advance_all in place, plus the change mask of the dense-step frame:
  /// `values` holds every node's previous observation on entry, and bit
  /// id of `changed` (word id / 64) is set iff node id's new observation
  /// differs from it. Requires values.size() == size() and
  /// changed.size() == (size() + 63) / 64; bits past size() come out
  /// zero.
  virtual void advance_all_masked(std::span<Value> values,
                                  std::span<std::uint64_t> changed) = 0;

 private:
  std::vector<std::uint64_t> mask_scratch_;  ///< advance_all's change mask
};

/// Bank over a contiguous vector of `Elem`: either a concrete `final`
/// stream type held by value, or std::unique_ptr<Stream> (one virtual
/// call per value) for sets built from arbitrary streams. With
/// `distinct`, every observation passes through distinct_value with
/// n = size().
///
/// A concrete stream type declares `extern template class TypedBank<S>;`
/// in its header and instantiates the bank in its .cpp, next to the
/// definition of next(), so advance_all_masked's qualified call inlines
/// there.
template <typename Elem>
class TypedBank final : public StreamBank {
 public:
  TypedBank(std::vector<Elem> streams, bool distinct)
      : streams_(std::move(streams)), distinct_(distinct) {}

  /// Appends node size()'s stream (construction only).
  void push_back(Elem stream) { streams_.push_back(std::move(stream)); }

  std::size_t size() const noexcept override { return streams_.size(); }
  bool quiet_capable() const override {
    return std::all_of(streams_.begin(), streams_.end(), [](const Elem& e) {
      return deref(e).supports_quiet_runs();
    });
  }
  std::uint64_t advance_quiet(NodeId id, std::uint64_t max_steps) override {
    return deref(streams_[id]).advance_quiet(max_steps);
  }
  Value advance(NodeId id) override;
  void advance_all_masked(std::span<Value> values,
                          std::span<std::uint64_t> changed) override;

 private:
  static constexpr bool kByValue = std::is_base_of_v<Stream, Elem>;

  template <typename E>
  static auto& deref(E& e) noexcept {
    if constexpr (kByValue) {
      return e;
    } else {
      return *e;
    }
  }

  /// Statically bound for by-value streams, virtual through a pointer.
  static Value next_of(Elem& e) {
    if constexpr (kByValue) {
      return e.Elem::next();
    } else {
      return e->next();
    }
  }

  std::vector<Elem> streams_;
  bool distinct_;
};

template <typename Elem>
Value TypedBank<Elem>::advance(NodeId id) {
  const Value v = next_of(streams_[id]);
  return distinct_ ? distinct_value(v, id, static_cast<Value>(size())) : v;
}

template <typename Elem>
void TypedBank<Elem>::advance_all_masked(std::span<Value> values,
                                         std::span<std::uint64_t> changed) {
  // The branch-free compare fallback: each lane's "moved" bit is packed
  // into its word as the value is written. One loop (one call site, so
  // the compiler inlines next() once); the distinct branch is
  // loop-invariant and always predicted.
  const std::size_t n = streams_.size();
  const auto vn = static_cast<Value>(n);
  for (std::size_t w = 0; w < changed.size(); ++w) {
    std::uint64_t bits = 0;
    const std::size_t end = std::min(n, w * 64 + 64);
    for (std::size_t id = w * 64; id < end; ++id) {
      const Value raw = next_of(streams_[id]);
      const Value v =
          distinct_ ? distinct_value(raw, static_cast<NodeId>(id), vn) : raw;
      bits |= std::uint64_t{v != values[id]} << (id & 63);
      values[id] = v;
    }
    changed[w] = bits;
  }
}

/// A collection of n per-node streams (one per node id). Every advance
/// draws straight from the streams; nothing is generated ahead.
class StreamSet {
 public:
  /// Takes ownership of one stream per node id (index = id).
  explicit StreamSet(std::vector<std::unique_ptr<Stream>> streams)
      : bank_(std::make_unique<TypedBank<std::unique_ptr<Stream>>>(
            std::move(streams), false)) {}

  /// Takes ownership of a ready-made bank (the factory's typed banks).
  explicit StreamSet(std::unique_ptr<StreamBank> bank)
      : bank_(std::move(bank)) {}

  /// Number of per-node streams.
  std::size_t size() const noexcept { return bank_->size(); }

  /// No-op, kept only for perfbench's traced re-drive, which still calls
  /// it: every value is generated at the advance that returns it, so
  /// there is no horizon to plan.
  void plan_steps(std::uint64_t /*total*/) {}

  /// Advances node `id`'s stream and returns the new observation.
  /// Throws std::out_of_range for a bad id, std::logic_error after
  /// advance_all_active took over the set.
  Value advance(NodeId id) {
    if (active_mode_) throw_mixed_mode();
    if (id >= size()) throw std::out_of_range("StreamSet::advance: bad id");
    return bank_->advance(id);
  }

  /// True when every stream certifies quiet runs (see Stream::
  /// supports_quiet_runs) — the precondition of advance_all_active.
  bool quiet_capable() const { return size() != 0 && bank_->quiet_capable(); }

  /// Activity-driven advance: `values` must hold every node's previous
  /// observation on entry (all zeros before the first call, matching a
  /// fresh cluster) and is updated in place; `changed` (cleared first)
  /// receives exactly the nodes whose value differs from the previous
  /// step, in no particular order. Nodes inside a certified quiet run are
  /// not visited at all — a calendar ring keyed by next-activity step
  /// makes a step cost O(active), independent of n. Requires
  /// quiet_capable() and values.size() == size() (else
  /// std::invalid_argument). advance()/advance_all() throw afterwards:
  /// the calendar has already consumed the quiet runs it scheduled.
  void advance_all_active(std::span<Value> values,
                          std::vector<NodeId>& changed) {
    check_span(values.size());
    changed.clear();
    if (!active_mode_) {
      active_mode_ = true;
      calendar_.assign(kCalendarSlots, {});
      due_step_.assign(size(), 0);
      // Every node is due at step 0 (the initial draw).
      calendar_[0].reserve(size());
      for (NodeId id = 0; id < size(); ++id) calendar_[0].push_back(id);
    }
    calendar_scratch_.clear();
    calendar_scratch_.swap(calendar_[active_step_ % kCalendarSlots]);
    for (const NodeId id : calendar_scratch_) {
      if (due_step_[id] > active_step_) {
        // Quiet run longer than the ring: parked at the horizon, hop on.
        reschedule(id, due_step_[id]);
        continue;
      }
      const Value v = bank_->advance(id);
      if (v != values[id]) {
        values[id] = v;
        changed.push_back(id);
      }
      reschedule(id, active_step_ + 1 +
                         bank_->advance_quiet(id, ~std::uint64_t{0}));
    }
    ++active_step_;
  }

  /// Advances every stream once: out[id] receives node id's observation.
  /// Identical values to per-id advance(), in one bank call. Throws
  /// std::invalid_argument unless out.size() == size().
  void advance_all(std::span<Value> out) {
    if (active_mode_) throw_mixed_mode();
    check_span(out.size());
    bank_->advance_all(out);
  }

  /// The dense step's advance: advance_all in place plus the change mask.
  /// `values` must hold every node's previous observation on entry (all
  /// zeros before the first advance, matching a fresh cluster) and
  /// receives the new ones, identical to advance_all's; `changed` is
  /// overwritten with exactly the nodes whose value moved. The random-walk
  /// bank writes the mask in its vector pass; every other bank packs a
  /// branch-free compare. Throws std::invalid_argument unless
  /// values.size() == changed.size() == size(), std::logic_error after
  /// advance_all_active took over the set.
  void advance_all_masked(std::span<Value> values, IdBitset& changed) {
    if (active_mode_) throw_mixed_mode();
    check_span(values.size());
    check_span(changed.size());
    bank_->advance_all_masked(values, changed.mutable_words());
  }

 private:
  void check_span(std::size_t got) const {
    if (got != size()) {
      throw std::invalid_argument("StreamSet: span size != number of streams");
    }
  }

  [[noreturn]] static void throw_mixed_mode() {
    throw std::logic_error(
        "StreamSet: advance()/advance_all() cannot follow "
        "advance_all_active() (the calendar has consumed quiet runs)");
  }

  /// Calendar ring size: quiet runs shorter than this take one hop;
  /// longer ones park at the horizon and hop every kCalendarSlots steps.
  static constexpr std::uint64_t kCalendarSlots = 512;

  void reschedule(NodeId id, std::uint64_t due) {
    due_step_[id] = due;
    const std::uint64_t hop =
        std::min<std::uint64_t>(due - active_step_, kCalendarSlots - 1);
    calendar_[(active_step_ + hop) % kCalendarSlots].push_back(id);
  }

  std::unique_ptr<StreamBank> bank_;

  // Activity-driven mode (advance_all_active) state.
  std::vector<std::vector<NodeId>> calendar_;  ///< ring of due-node lists
  std::vector<NodeId> calendar_scratch_;       ///< current slot, detached
  std::vector<std::uint64_t> due_step_;        ///< absolute next-draw step
  std::uint64_t active_step_ = 0;
  bool active_mode_ = false;               ///< advance_all_active took over
};

}  // namespace topkmon
