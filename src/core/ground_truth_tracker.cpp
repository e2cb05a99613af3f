#include "core/ground_truth_tracker.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/frame_kernels.hpp"

namespace topkmon {

GroundTruthTracker::GroundTruthTracker(std::size_t n, std::size_t k)
    : k_(k),
      values_(n, 0),
      member_(n, 0),
      cand_member_(n, 0) {
  if (k == 0 || k > n) {
    throw std::invalid_argument("GroundTruthTracker: k out of range");
  }
  sorted_set_.reserve(k);
  ordered_topk_.reserve(k);
  rank_scratch_.resize(n);
  // Index levels: blocks of 64 ids, then 64 entries per parent, until the
  // top level has at most 64 entries.
  for (std::size_t width = (n + 63) / 64;; width = (width + 63) / 64) {
    nm_index_.emplace_back(width);
    nm_dirty_.emplace_back((width + 63) / 64, 0);
    if (width <= 64) break;
  }
}

namespace {

/// A batch of at least n / kDenseBatchDivisor ids takes the one-sweep
/// schedule: below it, the per-id climbs touch less memory than an O(n)
/// index recompute.
constexpr std::size_t kDenseBatchDivisor = 8;

/// True iff `words` hold at least `target` set bits. Stops counting once
/// there: a dense mask decides within its first few words.
bool has_bits(std::span<const std::uint64_t> words, std::size_t target) {
  std::size_t seen = 0;
  for (const std::uint64_t w : words) {
    if (seen >= target) return true;
    seen += static_cast<std::size_t>(popcount_word(w));
  }
  return seen >= target;
}

}  // namespace

void GroundTruthTracker::set_value(NodeId id, Value v) {
  const Value old = values_[id];
  values_[id] = v;
  if (!built_ || v == old) return;

  if (member_[id]) {
    note_member_update(id, old, v);
    return;
  }
  if (k_ == values_.size()) return;  // no non-members to track
  nm_index_update(id, v);
  if (id == nonmember_max_id_) {
    if (v > old) {
      nonmember_max_val_ = v;  // best outsider got better: still best
    } else {
      nonmember_dirty_ = true;  // may no longer be the maximum
    }
  } else if (ranks_before(v, id, nonmember_max_val_, nonmember_max_id_)) {
    nonmember_max_val_ = v;  // this outsider now ranks ahead of the old max
    nonmember_max_id_ = id;
  }
}

void GroundTruthTracker::set_values(std::span<const NodeId> ids,
                                    std::span<const Value> values) {
  const std::size_t n = values_.size();
  if (!built_ || k_ == n || ids.size() < n / kDenseBatchDivisor) {
    for (const NodeId id : ids) set_value(id, values[id]);
    return;
  }
  for (const NodeId id : ids) {
    const Value v = values[id];
    if (member_[id] && v != values_[id]) note_member_update(id, values_[id], v);
    values_[id] = v;
  }
  finish_dense_batch();
}

void GroundTruthTracker::set_values_masked(const IdBitset& changed,
                                           std::span<const Value> column) {
  const std::size_t n = values_.size();
  if (changed.size() != n || column.size() != n) {
    throw std::invalid_argument(
        "GroundTruthTracker::set_values_masked: mask or column size != n");
  }
  const auto words = changed.words();
  if (!built_ || k_ == n || !has_bits(words, n / kDenseBatchDivisor)) {
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const auto id = static_cast<NodeId>(w * 64 + std::countr_zero(bits));
        set_value(id, column[id]);
      }
    }
    return;
  }
  // Member bookkeeping visits the k members and tests their bits; then
  // the whole column is blended in by word, members included.
  for (const NodeId id : sorted_set_) {
    if (changed.test(id) && column[id] != values_[id]) {
      note_member_update(id, values_[id], column[id]);
    }
  }
  copy_masked(isa_, words, column, values_);
  finish_dense_batch();
}

void GroundTruthTracker::finish_dense_batch() {
  // Outside the dirty flag nonmember_max_val_ is the boundary outsider's
  // exact value from before the batch. A per-id pass in ascending id
  // order would leave the boundary dirty iff it already was, or the
  // outsider decayed before a lower id overtook it — reached its old
  // value, the only way an id below it can rank ahead. The sweep makes
  // the index exact either way; the repair that pass would pay at the
  // next query is only counted there.
  const NodeId boundary = nonmember_max_id_;
  const Value boundary_val = nonmember_max_val_;
  const bool was_dirty = nonmember_dirty_;
  const bool decayed = values_[boundary] < boundary_val;
  rebuild_index();
  if (was_dirty || (decayed && !nonmember_reaches(boundary, boundary_val))) {
    rescan_pending_ = true;
  }
}

bool GroundTruthTracker::nonmember_reaches(NodeId end, Value v) const {
  // The ids of end's own block first, then, level by level, the entries
  // left of end's ancestor under the same parent; the top level has at
  // most 64 entries, so its scan covers everything left of the path.
  std::size_t pos = end;
  for (std::size_t i = pos & ~std::size_t{63}; i < pos; ++i) {
    if (!member_[i] && values_[i] >= v) return true;
  }
  for (const auto& level : nm_index_) {
    pos /= 64;
    for (std::size_t i = pos & ~std::size_t{63}; i < pos; ++i) {
      if (level[i].id != kNoNode && level[i].value >= v) return true;
    }
  }
  return false;
}

void GroundTruthTracker::note_member_update(NodeId id, Value old, Value v) {
  if (id == member_min_id_) {
    if (v < old) {
      // The worst member got worse: still the worst, new key.
      member_min_val_ = v;
    } else {
      member_dirty_ = true;  // may no longer be the minimum
    }
  } else if (ranks_before(member_min_val_, member_min_id_, v, id)) {
    member_min_val_ = v;  // this member now ranks behind the old minimum
    member_min_id_ = id;
  }
}

void GroundTruthTracker::rescan_member_min() {
  // Members are listed in sorted_set_: O(k).
  bool first = true;
  for (const NodeId id : sorted_set_) {
    if (first || ranks_before(member_min_val_, member_min_id_, values_[id],
                              id)) {
      member_min_val_ = values_[id];
      member_min_id_ = id;
    }
    first = false;
  }
  member_dirty_ = false;
}

void GroundTruthTracker::nm_index_update(NodeId id, Value v) {
  std::size_t slot = id;
  for (std::size_t level = 0; level < nm_index_.size(); ++level) {
    slot /= 64;
    IndexEntry& entry = nm_index_[level][slot];
    if (ranks_before(v, id, entry.value, entry.id)) {
      entry = IndexEntry{v, id};  // new best below: the parent may change
      continue;
    }
    // The entry still ranks first. If it is this node's (now stale)
    // value it may overstate the best below, so the next repair
    // recomputes it; either way nothing above changes.
    if (entry.id == id) nm_dirty_[level][slot / 64] |= 1ULL << (slot % 64);
    return;
  }
}

GroundTruthTracker::IndexEntry GroundTruthTracker::nm_block_best(
    std::size_t slot) const {
  const std::size_t begin = slot * 64;
  if (begin + 64 > values_.size()) return nm_block_best_scan(slot);
  const Value* v = values_.data() + begin;
  const char* member = member_.data() + begin;
  // Eight lanes of eight consecutive ids: independent max chains, with
  // members masked to kMinusInf.
  Value lane[8];
  for (Value& m : lane) m = kMinusInf;
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t l = 0; l < 8; ++l) {
      const std::size_t i = l * 8 + j;
      lane[l] = std::max(lane[l], member[i] != 0 ? kMinusInf : v[i]);
    }
  }
  const Value best = *std::max_element(std::begin(lane), std::end(lane));
  // A kMinusInf maximum may be held by a member (masked) or by nobody;
  // the plain scan settles it.
  if (best == kMinusInf) return nm_block_best_scan(slot);
  // The first non-member holding the maximum — the smallest id — sits in
  // the first lane that reaches it.
  const Value* first = std::find(std::begin(lane), std::end(lane), best);
  std::size_t i = 8 * static_cast<std::size_t>(first - std::begin(lane));
  while (member[i] != 0 || v[i] != best) ++i;
  return IndexEntry{best, static_cast<NodeId>(begin + i)};
}

GroundTruthTracker::IndexEntry GroundTruthTracker::nm_block_best_scan(
    std::size_t slot) const {
  IndexEntry best{kMinusInf, kNoNode};
  const std::size_t begin = slot * 64;
  const std::size_t end = std::min(begin + 64, values_.size());
  for (std::size_t i = begin; i < end; ++i) {
    const auto id = static_cast<NodeId>(i);
    if (!member_[i] && ranks_before(values_[i], id, best.value, best.id)) {
      best = IndexEntry{values_[i], id};
    }
  }
  return best;
}

GroundTruthTracker::IndexEntry GroundTruthTracker::nm_index_best_below(
    std::size_t level, std::size_t slot) const {
  if (level == 0) return nm_block_best(slot);
  IndexEntry best{kMinusInf, kNoNode};
  const auto& below = nm_index_[level - 1];
  const std::size_t begin = slot * 64;
  const std::size_t end = std::min(begin + 64, below.size());
  for (std::size_t i = begin; i < end; ++i) {
    if (ranks_before(below[i].value, below[i].id, best.value, best.id)) {
      best = below[i];
    }
  }
  return best;
}

void GroundTruthTracker::repair_nonmember_max() {
  ++boundary_rescans_;
  // Membership is fixed between full rebuilds, so recomputing the dirty
  // entries bottom-up — each one dirties its parent — leaves every entry
  // exact, and the best of the top level is the true non-member maximum.
  // A dirty word's 64 entries share one parent.
  const std::size_t levels = nm_index_.size();
  for (std::size_t level = 0; level < levels; ++level) {
    auto& dirty = nm_dirty_[level];
    for (std::size_t w = 0; w < dirty.size(); ++w) {
      if (dirty[w] == 0) continue;
      if (level + 1 < levels) {
        nm_dirty_[level + 1][w / 64] |= 1ULL << (w % 64);
      }
      for (auto bits = std::exchange(dirty[w], 0); bits != 0;
           bits &= bits - 1) {
        const std::size_t slot = w * 64 + std::countr_zero(bits);
        nm_index_[level][slot] = nm_index_best_below(level, slot);
      }
    }
  }
  const IndexEntry top = nm_index_best_below(levels, 0);
  nonmember_max_val_ = top.value;
  nonmember_max_id_ = top.id;
  nonmember_dirty_ = false;
}

void GroundTruthTracker::full_rebuild() {
  ++full_rebuilds_;
  const std::size_t n = values_.size();
  for (std::size_t i = 0; i < n; ++i) {
    rank_scratch_[i] = static_cast<NodeId>(i);
  }
  // Rank the k members; position k - 1 is the worst of them. The best
  // non-member is read off the rebuilt index below.
  std::partial_sort(
      rank_scratch_.begin(),
      rank_scratch_.begin() + static_cast<std::ptrdiff_t>(k_),
      rank_scratch_.end(), [&](NodeId a, NodeId b) {
        return ranks_before(values_[a], a, values_[b], b);
      });

  for (const NodeId id : sorted_set_) member_[id] = 0;  // clear old members
  if (!built_) std::fill(member_.begin(), member_.end(), char{0});
  sorted_set_.clear();
  for (std::size_t i = 0; i < k_; ++i) {
    member_[rank_scratch_[i]] = 1;
    sorted_set_.push_back(rank_scratch_[i]);
  }
  std::sort(sorted_set_.begin(), sorted_set_.end());

  member_min_id_ = rank_scratch_[k_ - 1];
  member_min_val_ = values_[member_min_id_];
  // Membership changed: recompute the index over the new non-members.
  // O(n), dominated by the partial sort above.
  if (k_ < n) rebuild_index();
  built_ = true;
  member_dirty_ = false;
}

void GroundTruthTracker::rebuild_index() {
  for (std::size_t level = 0; level < nm_index_.size(); ++level) {
    for (std::size_t slot = 0; slot < nm_index_[level].size(); ++slot) {
      nm_index_[level][slot] = nm_index_best_below(level, slot);
    }
    std::fill(nm_dirty_[level].begin(), nm_dirty_[level].end(), 0);
  }
  const IndexEntry top = nm_index_best_below(nm_index_.size(), 0);
  nonmember_max_val_ = top.value;
  nonmember_max_id_ = top.id;
  nonmember_dirty_ = false;
}

std::size_t GroundTruthTracker::dirty_index_entries() const noexcept {
  std::size_t dirty = 0;
  for (const auto& words : nm_dirty_) {
    for (const std::uint64_t w : words) {
      dirty += static_cast<std::size_t>(popcount_word(w));
    }
  }
  return dirty;
}

void GroundTruthTracker::ensure_current() {
  if (!built_) {
    full_rebuild();
    return;
  }
  if (member_dirty_) rescan_member_min();
  if (k_ == values_.size()) return;  // the set can never change
  if (nonmember_dirty_) {
    repair_nonmember_max();
  } else if (rescan_pending_) {
    ++boundary_rescans_;  // a dense batch's sweep already repaired it
  }
  rescan_pending_ = false;
  // Boundary intact <=> every member still ranks before every non-member
  // <=> the worst member ranks before the best non-member. (The ranking
  // is a total order — ids break value ties — so this is exact even on
  // tied values, matching true_topk_set's tie-break.)
  if (!ranks_before(member_min_val_, member_min_id_, nonmember_max_val_,
                    nonmember_max_id_)) {
    full_rebuild();
  }
}

const std::vector<NodeId>& GroundTruthTracker::topk_set() {
  ensure_current();
  return sorted_set_;
}

const std::vector<NodeId>& GroundTruthTracker::ordered_topk() {
  ensure_current();
  // Membership is exact; rank order within the set may drift without any
  // boundary crossing, so (re-)sort the k members per query.
  ordered_topk_.assign(sorted_set_.begin(), sorted_set_.end());
  std::sort(ordered_topk_.begin(), ordered_topk_.end(),
            [&](NodeId a, NodeId b) {
              return ranks_before(values_[a], a, values_[b], b);
            });
  return ordered_topk_;
}

bool GroundTruthTracker::matches_strict(std::span<const NodeId> answer) {
  ensure_current();
  return answer.size() == sorted_set_.size() &&
         std::equal(answer.begin(), answer.end(), sorted_set_.begin());
}

bool GroundTruthTracker::is_valid(std::span<const NodeId> answer) {
  ensure_current();
  // Fast path: the true top-k (canonical sorted form) is always a valid
  // answer, and correct monitors emit exactly it on almost every step.
  if (answer.size() == sorted_set_.size() &&
      std::equal(answer.begin(), answer.end(), sorted_set_.begin())) {
    return true;
  }
  // Size: at most k ids, and no fewer than the true top-k's live members
  // (kMinusInf marks down or unjoined nodes, which may be left out).
  if (answer.size() > k_) return false;
  const auto live_members = static_cast<std::size_t>(
      std::count_if(sorted_set_.begin(), sorted_set_.end(),
                    [&](NodeId id) { return values_[id] != kMinusInf; }));
  if (answer.size() < live_members) return false;
  // General path, mirroring is_valid_topk: reject bad/duplicate ids, then
  // compare the candidate's boundary extrema by value only (any
  // tie-break accepted). cand_member_ is tracker-owned and wiped after
  // use, so the check allocates nothing.
  const std::size_t n = values_.size();
  bool ok = true;
  std::size_t marked = 0;
  for (const NodeId id : answer) {
    if (id >= n || cand_member_[id]) {
      ok = false;
      break;
    }
    cand_member_[id] = 1;
    ++marked;
  }
  if (ok && !answer.empty() && marked < n) {
    Value min_in = kPlusInf;
    Value max_out = kMinusInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (cand_member_[i]) {
        min_in = std::min(min_in, values_[i]);
      } else {
        max_out = std::max(max_out, values_[i]);
      }
    }
    ok = min_in >= max_out;
  }
  for (std::size_t i = 0; i < marked; ++i) cand_member_[answer[i]] = 0;
  return ok;
}

}  // namespace topkmon
