// Incremental ground-truth maintenance for per-step validation.
//
// The batch helpers in core/ground_truth.hpp recompute the true top-k from
// scratch: every call snapshots all n values, allocates an id vector and
// partial-sorts it. Validating a monitor after *every* observation step —
// what run_scenario does — turns that into the dominant cost
// of a run once the monitor itself is quiet.
//
// GroundTruthTracker keeps the answer alive across steps instead. It
// mirrors the value vector, the membership flags of the current true
// top-k, and the two boundary extrema that decide whether the set is
// still correct:
//
//   member_min_     the worst-ranked member (min value, ties by id),
//   nonmember_max_  the best-ranked non-member.
//
// Ranking is the library's canonical total order (value descending, ties
// toward the smaller id), so the tracked set is exactly
// true_topk_set / true_topk_ordered at every query — the equivalence the
// unit tests enforce over randomized trajectories of every stream family.
//
// Cost model: updates take one of two schedules.
//
//  * Per id — set_value(), and set_values() on a sparse batch. O(1) for
//    members and typically O(1) for non-members, which also update a
//    lazy 64-ary max index over the non-members (level 0 keeps the best
//    non-member of each block of 64 ids, every higher level the best of
//    64 entries below, up to a top of at most 64 entries). An update
//    climbs only while it beats the entry above, so the worst case is
//    O(log_64 n); when an entry's own argmax decays it is marked dirty
//    instead of recomputed.
//  * One sweep — set_values() on a dense batch (at least n / 8 ids once
//    the tracker is built, k < n). The values are written and members
//    keep their O(1) bookkeeping, then the whole index is recomputed
//    bottom-up in O(n) branch-free block sweeps and the best non-member
//    read off the top. On a step that moves most ids this is several
//    times cheaper than n climbs, and it leaves the index exact.
//
// A query first repairs the extrema — O(k) when a member update stalled
// the member minimum, O(64 * dirty entries + 64) when the boundary
// non-member decayed (the dirty entries are recomputed bottom-up and the
// top level scanned) — and only when the boundary was actually crossed
// performs a full O(n log k) rebuild (full_rebuilds), which rebuilds the
// index in O(n). boundary_rescans counts the events "the boundary
// non-member decayed": a per-id schedule pays for each with a repair at
// the next query, a dense batch counts it when the batch moved the
// previous boundary outsider down and its sweep absorbs the repair. The
// index is sized once at construction, so at steady state no query or
// update allocates: all scratch is owned by the tracker and reused.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace topkmon {

class GroundTruthTracker {
 public:
  /// Tracks the top `k` of `n` values, all initially 0. Requires
  /// 1 <= k <= n.
  GroundTruthTracker(std::size_t n, std::size_t k);

  std::size_t size() const noexcept { return values_.size(); }
  std::size_t k() const noexcept { return k_; }

  /// Updates node `id`'s value. O(1) typical, O(log_64 n) worst case;
  /// the membership consequence is settled lazily at the next query.
  void set_value(NodeId id, Value v);

  /// Bulk update: sets node `ids[i]` to `values[ids[i]]` for every i, so
  /// `values` is indexed by id (typically the whole step's value vector)
  /// and `ids` lists the nodes to write, repeats allowed. A batch of
  /// fewer than n / 8 ids (or any batch before the first query, or at
  /// k == n) applies set_value per id; a denser one writes the values
  /// and recomputes the non-member index in one O(n) sweep. Either way
  /// every later query answers exactly as after the per-id calls.
  void set_values(std::span<const NodeId> ids, std::span<const Value> values);

  /// Current value of node `id`.
  Value value(NodeId id) const { return values_[id]; }

  /// The true top-k ids sorted ascending — element-identical to
  /// true_topk_set(values, k).
  const std::vector<NodeId>& topk_set();

  /// The true top-k ids in rank order (best first) — element-identical to
  /// true_topk_ordered(values, k). O(k log k) per call.
  const std::vector<NodeId>& ordered_topk();

  /// Strict validation: `answer` equals the canonical sorted top-k set.
  bool matches_strict(std::span<const NodeId> answer);

  /// Weak validation: true iff `answer` has no bad/duplicate ids, every
  /// member's value >= every non-member's value (any tie-break accepted;
  /// is_valid_topk(values, answer) is this part) and its size is right:
  /// at most k, and at least the number of true top-k members whose value
  /// is not kMinusInf — down or unjoined nodes may be left out, live ones
  /// may not.
  bool is_valid(std::span<const NodeId> answer);

  /// Value of the worst-ranked member (repairs lazily first). The sharded
  /// runtime reads this as the shard's weakest-member extremum U_s.
  Value member_min_value() {
    ensure_current();
    return member_min_val_;
  }

  /// Value of the best-ranked non-member, or -inf when k == n leaves no
  /// non-member. The sharded runtime reads this as the shard's
  /// strongest-outsider extremum L_s.
  Value nonmember_max_value() {
    if (k_ == size()) return kMinusInf;
    ensure_current();
    return nonmember_max_val_;
  }

  // -- diagnostics ----------------------------------------------------------
  /// Full O(n log k) rebuilds performed (boundary crossings + the initial
  /// build).
  std::uint64_t full_rebuilds() const noexcept { return full_rebuilds_; }

  /// Boundary repairs performed because the boundary non-member's value
  /// decayed (no membership change) — each recomputes the index's dirty
  /// entries and scans its top level instead of rescanning all n values.
  std::uint64_t boundary_rescans() const noexcept { return boundary_rescans_; }

  /// Non-member index entries marked for recomputation by the next
  /// boundary repair. Zero after a full rebuild, a boundary repair or a
  /// dense set_values() batch, all of which leave the index exact.
  std::size_t dirty_index_entries() const noexcept;

 private:
  /// Canonical ranking: a before b <=> larger value, ties to smaller id.
  static bool ranks_before(Value va, NodeId a, Value vb, NodeId b) noexcept {
    return va != vb ? va > vb : a < b;
  }

  /// Repairs extrema dirt and rebuilds membership if the boundary was
  /// crossed; afterwards member flags / sorted set / extrema are exact.
  void ensure_current();
  void rescan_member_min();
  void repair_nonmember_max();
  void full_rebuild();
  /// Recomputes every index entry bottom-up from the current membership
  /// and values, clears all dirt, and reads the non-member maximum off
  /// the top. O(n). Requires k < n.
  void rebuild_index();
  /// Member-side bookkeeping of a member's update from `old` to `v`.
  void note_member_update(NodeId id, Value old, Value v);

  /// One index entry: the best-ranked non-member below it, or the empty
  /// sentinel (kMinusInf, kNoNode), which ranks after every real node.
  struct IndexEntry {
    Value value;
    NodeId id;
  };
  static constexpr NodeId kNoNode = ~NodeId{0};

  /// Climbs the index from `id`'s block after a non-member update.
  void nm_index_update(NodeId id, Value v);

  /// Best non-member of the level-0 block `slot`: for a full block, the
  /// branch-free max of its values with members masked to kMinusInf,
  /// then the first non-member holding it (ties go to the smaller id).
  /// A kMinusInf maximum and the short last block take
  /// nm_block_best_scan, which ranks a kMinusInf outsider before the
  /// empty sentinel.
  IndexEntry nm_block_best(std::size_t slot) const;
  IndexEntry nm_block_best_scan(std::size_t slot) const;

  /// Best of the up to 64 ids (level 0) or entries of `level` - 1 under
  /// entry `slot` of `level`; level == nm_index_.size() (slot 0) scans
  /// the top level.
  IndexEntry nm_index_best_below(std::size_t level, std::size_t slot) const;

  std::size_t k_;
  std::vector<Value> values_;
  std::vector<char> member_;       ///< current true top-k membership
  std::vector<NodeId> sorted_set_; ///< members sorted by id (canonical)

  Value member_min_val_ = 0;       ///< worst-ranked member
  NodeId member_min_id_ = 0;
  Value nonmember_max_val_ = 0;    ///< best-ranked non-member (k < n only)
  NodeId nonmember_max_id_ = 0;

  bool built_ = false;             ///< first query triggers the initial build
  bool member_dirty_ = false;      ///< member minimum may have risen
  bool nonmember_dirty_ = false;   ///< non-member maximum may have fallen

  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t boundary_rescans_ = 0;

  // Reused scratch (no per-query allocations at steady state).
  std::vector<NodeId> rank_scratch_;    ///< rebuild / ordered-query ids
  std::vector<NodeId> ordered_topk_;
  std::vector<char> cand_member_;       ///< is_valid() candidate flags

  /// Lazy 64-ary max index over non-members, level 0 first. Every entry
  /// ranks at or before every non-member below it; an entry that is not
  /// exactly the best of them is dirty itself or has a dirty descendant,
  /// so repairing the dirty entries bottom-up makes the whole index exact.
  std::vector<std::vector<IndexEntry>> nm_index_;
  std::vector<std::vector<std::uint64_t>> nm_dirty_;  ///< bit per entry
};

}  // namespace topkmon
