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
// The activity-gated sparse family wraps its inner family's bank in a
// SparseBank (streams/sparse.hpp) whose activity pass, advance_all_active,
// visits only the nodes due at a step: at whole-set advance c >= 1, the
// ids with id % period == (period - c % period) % period.
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

  /// True for banks with an activity schedule (SparseBank), which
  /// implement advance_all_active. Every other bank keeps the default.
  virtual bool quiet_capable() const { return false; }

  /// StreamSet::advance_all_active's pass (`changed` arrives cleared).
  /// Banks that are not quiet_capable() throw std::logic_error.
  virtual void advance_all_active(std::span<Value> values,
                                  std::vector<NodeId>& changed) {
    (void)values;
    (void)changed;
    throw std::logic_error("StreamBank: no activity schedule");
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
  Value advance(NodeId id) override;
  void advance_all_masked(std::span<Value> values,
                          std::span<std::uint64_t> changed) override;

 private:
  static constexpr bool kByValue = std::is_base_of_v<Stream, Elem>;

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

  /// True when the bank has an activity schedule (the sparse family's
  /// SparseBank) — the precondition of advance_all_active.
  bool quiet_capable() const { return size() != 0 && bank_->quiet_capable(); }

  /// Activity-driven advance: `values` must hold every node's previous
  /// observation on entry (all zeros before the first call, matching a
  /// fresh cluster) and is updated in place; `changed` (cleared first)
  /// receives exactly the nodes whose value differs from the previous
  /// step, in ascending id order. Only the step's due nodes are visited:
  /// every node at whole-set advance 0, then at advance c the ids with
  /// id % period == (period - c % period) % period, one per-id
  /// inner-bank call each, so a step costs O(n / period).
  /// Throws std::logic_error unless quiet_capable() (before any stream
  /// advances) and after a per-id advance() (see SparseBank);
  /// std::invalid_argument unless values.size() == size(). It continues
  /// earlier whole-set advance_all calls exactly. advance(), advance_all()
  /// and advance_all_masked() throw afterwards: the pass trusts `values`
  /// to hold the previous observations, so the set is driven one way.
  void advance_all_active(std::span<Value> values,
                          std::vector<NodeId>& changed) {
    if (!quiet_capable()) {
      throw std::logic_error(
          "StreamSet::advance_all_active: the set has no activity schedule "
          "(quiet_capable() is false)");
    }
    check_span(values.size());
    changed.clear();
    bank_->advance_all_active(values, changed);
    active_mode_ = true;
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
        "advance_all_active() (the set is driven one way)");
  }

  std::unique_ptr<StreamBank> bank_;
  bool active_mode_ = false;  ///< advance_all_active took over
};

}  // namespace topkmon
