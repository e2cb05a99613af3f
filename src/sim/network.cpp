#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace topkmon {

namespace {

/// Min-heap comparator for the overflow heap: the entry with the
/// smallest (due, seq) is popped first, so deliveries surface in send
/// order within a tick.
struct LaterDelivery {
  bool operator()(const auto& a, const auto& b) const noexcept {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }
};

/// "No scheduled tick" sentinel.
constexpr SimTime kNoTick = std::numeric_limits<SimTime>::max();

/// Retained-log length that triggers a compaction scan. Large enough that
/// the O(n) min-cursor scan and the O(tail) erase amortize to nothing per
/// broadcast; small enough that long instant-mode runs stay flat in memory.
constexpr std::size_t kLogCompactThreshold = 4096;

/// Calls f(id) for every set bit of `bits`, word `w` of an id bitset, in
/// ascending id order.
template <class F>
void for_each_id(std::size_t w, std::uint64_t bits, F&& f) {
  while (bits != 0) {
    f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    bits &= bits - 1;
  }
}

/// Appends `m` to `out` with its sender set to `from`, field by field:
/// copying `m` whole and then stamping the copy stores the sender twice,
/// and stamping a local before copying it reloads a fresh 4-byte store
/// with a 16-byte load, which stalls store forwarding on every message.
template <class Vec>
[[gnu::always_inline]] inline void push_stamped(Vec& out, const Message& m,
                                                NodeId from) {
  Message& dst = out.emplace_back();
  dst.kind = m.kind;
  dst.from = from;
  dst.a = m.a;
  dst.b = m.b;
}

/// Upper bound on the timing-wheel span in ticks. Specs whose worst-case
/// delay fits under this bound (all realistic ones) never touch the
/// overflow heap; larger delays merely fall back to O(log pending) pushes
/// for the far-future tail.
constexpr std::uint64_t kMaxWheelSpan = 4096;

}  // namespace

Network::Network(std::size_t n, CommStats* stats)
    : Network(n, stats, NetworkSpec{}, 0) {}

Network::Network(std::size_t n, CommStats* stats, const NetworkSpec& spec,
                 std::uint64_t seed, NodeRuntime* runtime)
    : spec_(spec),
      instant_(spec.is_instant()),
      stats_(stats),
      jitter_mod_(static_cast<std::uint64_t>(spec.jitter) + 1),
      // First arena chunk: room for about four queued messages per node.
      arena_((n + 1) * 4 * sizeof(Stamped)),
      cursors_(n, 0) {
  if (stats_ == nullptr) {
    throw std::invalid_argument("Network requires a CommStats sink");
  }
  // Element by element: a copied pmr vector would rebind to the default
  // resource.
  std::pmr::memory_resource* const inbox_memory =
      instant_ ? std::pmr::new_delete_resource() : &arena_;
  unicasts_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) unicasts_.emplace_back(inbox_memory);
  if (runtime != nullptr) {
    due_mail_ = &runtime->due_mail;  // shared structure-of-arrays state
    alive_ = &runtime->alive;
    beacon_deaf_ = &runtime->beacon_deaf;
  } else {
    owned_due_mail_ = IdBitset(n);
    due_mail_ = &owned_due_mail_;
    owned_alive_ = IdBitset(n);
    owned_alive_.set_all();
    alive_ = &owned_alive_;
    owned_beacon_deaf_ = IdBitset(n);  // nobody deaf
    beacon_deaf_ = &owned_beacon_deaf_;
  }
  // Mix the seed once so that a zero scenario seed still decorrelates the
  // link hash from the message sequence numbers.
  std::uint64_t state = seed ^ 0x6E65745F6C696E6Bull;  // "net_link"
  hash_seed_ = splitmix64(state);
  if (!instant_) {
    // Wheel span: one slot per tick of the spec's worst-case schedule
    // offset (delay + jitter, plus batch-window rounding), power-of-two
    // sized for mask indexing and capped so a pathological delay cannot
    // allocate an unbounded wheel (the overflow heap absorbs the rest).
    std::uint64_t span = spec_.max_delay() + 2;
    if (spec_.batch_window > 1) span += spec_.batch_window - 1;
    const std::uint64_t size = next_pow2(std::min(span, kMaxWheelSpan));
    wheel_.reserve(size);
    coord_wheel_.reserve(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      wheel_.emplace_back(&arena_);
      coord_wheel_.emplace_back(&arena_);
    }
    wheel_bits_.assign((size + 63) / 64, 0);
    wheel_mask_ = size - 1;
  }
}

// schedule_link and schedule_delivery are forced inline: each runs once
// per scheduled delivery, and the calls cost about a third of a send.
[[gnu::always_inline]] inline std::optional<SimTime> Network::schedule_link(
    std::uint64_t seq, std::uint32_t link) {
  // One SplitMix64 step over (seed, seq, link) yields independent,
  // drain-order-free randomness for this message instance on this link.
  std::uint64_t state =
      hash_seed_ ^ (seq * 0x9E3779B97F4A7C15ull) ^
      (static_cast<std::uint64_t>(link) + 1) * 0xBF58476D1CE4E5B9ull;
  const std::uint64_t h = splitmix64(state);
  if (spec_.drop_rate > 0.0) {
    // Top 53 bits -> uniform double in [0, 1).
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < spec_.drop_rate) return std::nullopt;
  }
  SimTime due = now_ + spec_.delay;
  if (spec_.jitter > 0) {
    due += jitter_mod_.mod(static_cast<std::uint32_t>(h));
  }
  if (spec_.batch_window > 1) {
    const std::uint64_t w = spec_.batch_window;
    due = (due + w - 1) / w * w;
  }
  return due;
}

void Network::deliver(std::uint32_t recipient, const Stamped& s) {
  if (recipient == num_nodes()) {
    coord_inbox_.push_back(s.msg);
    return;
  }
  const auto id = static_cast<NodeId>(recipient);
  if (down_count_ != 0 && !alive_->test(id)) {
    // Delivery-time drop: the recipient is down at the due tick. The send
    // was charged when it happened; the delivery just never lands.
    --pending_;
    ++dropped_;
    return;
  }
  unicasts_[id].push_back(s);
  due_mail_->set(id);
}

[[gnu::always_inline]] inline void Network::schedule_delivery(
    std::uint32_t recipient, SimTime due, std::uint64_t seq, const Message& m,
    NodeId from) {
  // Each branch copies `m` and stamps `from` into the copy.
  ++pending_;
  if (due <= now_) {
    Stamped s{seq, m};
    s.msg.from = from;
    deliver(recipient, s);
    return;
  }
  ++in_flight_;
  if (due - now_ <= wheel_mask_) {
    // Sends happen in global seq order, so each slot column is
    // automatically (due, seq)-sorted by appending. The coordinator
    // column keeps only the message: its inbox needs neither a recipient
    // nor a seq stamp.
    const auto slot = static_cast<std::size_t>(due & wheel_mask_);
    if (recipient == num_nodes()) {
      push_stamped(coord_wheel_[slot], m, from);
    } else {
      wheel_[slot].push_back(Slotted{recipient, Stamped{seq, m}});
      wheel_[slot].back().stamped.msg.from = from;
    }
    wheel_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    return;
  }
  overflow_.push_back(Overflow{due, seq, recipient, m});
  overflow_.back().msg.from = from;
  std::push_heap(overflow_.begin(), overflow_.end(), LaterDelivery{});
}

SimTime Network::next_wheel_tick() const {
  // Every occupied slot holds the unique in-span due tick congruent to
  // its slot index, so the first occupied slot in circular order starting
  // at (now_ + 1) is the earliest wheel delivery. Two linear word-wise
  // passes ([start, size) then the wrapped [0, start)) — O(span/64),
  // independent of n and of pending message count.
  const std::uint64_t size = wheel_mask_ + 1;
  const std::uint64_t start = (now_ + 1) & wheel_mask_;
  const auto first_set_in = [&](std::uint64_t from,
                                std::uint64_t to) -> std::uint64_t {
    // First occupied slot in [from, to), or `size` when none. Only the
    // range's first word needs masking; a hit in its last word may belong
    // to the other pass and is rejected by the `< to` check (the word's
    // lowest set bit being >= to implies no set bit below it).
    for (std::uint64_t w = from >> 6; w <= (to - 1) >> 6; ++w) {
      std::uint64_t word = wheel_bits_[w];
      if (w == (from >> 6)) word &= (~std::uint64_t{0}) << (from & 63);
      if (word == 0) continue;
      const std::uint64_t slot =
          w * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
      return slot < to ? slot : size;
    }
    return size;
  };
  std::uint64_t slot = first_set_in(start, size);
  if (slot == size && start != 0) slot = first_set_in(0, start);
  if (slot == size) return kNoTick;
  return now_ + 1 + ((slot - start) & wheel_mask_);
}

void Network::flush_tick(SimTime t) {
  // Overflow entries first: a tick-t overflow message was necessarily
  // sent before any tick-t wheel message (its schedule offset exceeded
  // the wheel span, so its send tick — and hence its seq — is smaller),
  // and heap pops with equal due come out in seq order.
  while (!overflow_.empty() && overflow_.front().due == t) {
    std::pop_heap(overflow_.begin(), overflow_.end(), LaterDelivery{});
    const Overflow& o = overflow_.back();
    deliver(o.recipient, Stamped{o.seq, o.msg});
    overflow_.pop_back();
    --in_flight_;
  }
  const auto slot = static_cast<std::size_t>(t & wheel_mask_);
  auto& due = wheel_[slot];
  for (const Slotted& d : due) deliver(d.recipient, d.stamped);
  // The coordinator column lands in one bulk copy. It is not swapped in:
  // rotating slot buffers through the inbox lets every slot grow to the
  // inbox's peak, which costs allocations during warm-up. The inbox grows
  // geometrically, as push_back would: a range insert past capacity
  // sizes it exactly, so each slightly larger burst would reallocate.
  auto& up = coord_wheel_[slot];
  const std::size_t need = coord_inbox_.size() + up.size();
  if (need > coord_inbox_.capacity()) {
    coord_inbox_.reserve(std::max(need, 2 * coord_inbox_.capacity()));
  }
  coord_inbox_.insert(coord_inbox_.end(), up.begin(), up.end());
  in_flight_ -= due.size() + up.size();
  due.clear();
  up.clear();
  wheel_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
}

void Network::advance_clock_to(SimTime t) {
  if (instant_ || wheel_.empty()) {
    if (t > now_) now_ = t;
    return;
  }
  while (now_ < t) {
    // Next event tick: min of the wheel's first occupied slot and the
    // overflow top. Empty tick ranges are skipped in one step.
    SimTime e = next_wheel_tick();
    if (!overflow_.empty()) e = std::min(e, overflow_.front().due);
    if (e > t) {
      now_ = t;
      return;
    }
    now_ = e;
    flush_tick(e);
  }
}

void Network::node_send(NodeId from, const Message& m) {
  if (from >= num_nodes()) {
    throw std::out_of_range("Network::node_send: bad node id");
  }
  assert(alive_->test(from) && "a down node cannot send");
  stats_->record_upstream(m.kind);
  if (tap_) tap_upstream(from, m);
  const std::uint64_t seq = seq_++;
  if (instant_) {
    push_stamped(coord_inbox_, m, from);
    ++pending_;
    return;
  }
  // The coordinator's "link" id is one past the node range.
  const auto coord_link = static_cast<std::uint32_t>(num_nodes());
  if (const auto due = schedule_link(seq, coord_link)) {
    schedule_delivery(coord_link, *due, seq, m, from);
  } else {
    ++dropped_;
  }
}

void Network::tap_upstream(NodeId from, const Message& m) {
  Message tapped = m;
  tapped.from = from;
  tap_(MsgDirection::kUpstream, tapped);
}

void Network::coord_unicast(NodeId to, const Message& m) {
  if (to >= num_nodes()) {
    throw std::out_of_range("Network::coord_unicast: bad node id");
  }
  stats_->record_unicast(m.kind);
  if (tap_) tap_(MsgDirection::kUnicast, m);
  const std::uint64_t seq = seq_++;
  if (instant_) {
    if (down_count_ != 0 && !alive_->test(to)) {
      ++dropped_;  // instant delivery to a down node: charged, never lands
      return;
    }
    unicasts_[to].push_back(Stamped{seq, m});
    ++pending_;
    if (!due_mail_->test(to)) {
      // Clear-bit cursor rule: whatever the node has not read is beacons
      // it was deaf to. Skip them; the node reads only this unicast.
      cursors_[to] = log_offset_ + bcast_msgs_.size();
      due_mail_->set(to);
    }
    return;
  }
  if (const auto due = schedule_link(seq, to)) {
    schedule_delivery(to, *due, seq, m, m.from);
  } else {
    ++dropped_;
  }
}

void Network::coord_broadcast(const Message& m) {
  stats_->record_broadcast(m.kind);
  if (tap_) tap_(MsgDirection::kBroadcast, m);
  const std::uint64_t seq = seq_++;
  if (instant_) {
    // Shared log + per-node cursors: O(1) per message regardless of n
    // (plus the n/64 word-wise due-bit pass). `end` is the new entry's
    // absolute log index: a node whose due bit rises now reads from it.
    const std::size_t end = log_offset_ + bcast_msgs_.size();
    bcast_msgs_.push_back(m);
    bcast_seqs_.push_back(seq);
    fan_out(end, m.kind == MsgKind::kRoundBeacon);
    return;
  }
  // Scheduled mode fans the broadcast out per link so each receiver gets
  // its own (possibly jittered/dropped) delivery tick; the shared log is
  // not kept (nothing reads it there, and it would grow without bound
  // over long delay/drop sweeps).
  ++broadcasts_issued_;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    if (const auto due = schedule_link(seq, id)) {
      schedule_delivery(id, *due, seq, m, m.from);
    } else {
      ++dropped_;
    }
  }
}

void Network::drain_coordinator(std::vector<Message>& out) {
  // Swap the burst out: both the caller's scratch and the inbox keep
  // their capacities, so steady-state protocol rounds allocate nothing
  // on either side.
  out.clear();
  std::swap(out, coord_inbox_);
  pending_ -= out.size();
}

void Network::drain_node(NodeId id, std::vector<Message>& out) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::drain_node: bad node id");
  }
  out.clear();
  if (!due_mail_->test(id)) {
    // Nothing deliverable: at most a suffix of beacons the node was deaf
    // to, which it skips (clear-bit cursor rule).
    cursors_[id] = log_offset_ + bcast_msgs_.size();
    return;
  }
  // Both sources are already seq-ascending (push order), so a two-pointer
  // merge replaces a collect-then-sort pass and the intermediate vector;
  // the unicast buffer and `out` keep their capacity across drains. The
  // log's parallel layout keeps the comparison loop on the dense seq
  // array. Under a scheduled policy the log is empty and the inbox is
  // already (due, seq)-ordered, so this only copies.
  auto& uni = unicasts_[id];
  const std::size_t bstart = cursors_[id] - log_offset_;
  out.reserve(uni.size() + (bcast_msgs_.size() - bstart));
  std::size_t u = 0;
  std::size_t b = bstart;
  while (u < uni.size() && b < bcast_msgs_.size()) {
    if (uni[u].seq < bcast_seqs_[b]) {
      out.push_back(uni[u++].msg);
    } else {
      out.push_back(bcast_msgs_[b++]);
    }
  }
  for (; u < uni.size(); ++u) out.push_back(uni[u].msg);
  for (; b < bcast_msgs_.size(); ++b) out.push_back(bcast_msgs_[b]);
  pending_ -= uni.size() + (bcast_msgs_.size() - bstart);
  uni.clear();
  cursors_[id] = log_offset_ + bcast_msgs_.size();
  due_mail_->clear(id);
  maybe_compact_broadcast_log();
}

void Network::set_node_down(NodeId id) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::set_node_down: bad node id");
  }
  if (!alive_->test(id)) return;
  alive_->clear(id);
  ++down_count_;
  // Queued-but-undrained mail dies with the node. In-flight wheel /
  // overflow entries addressed to it are dropped at their due tick by
  // deliver(). A clear due bit means nothing is queued: the unread
  // suffix, if any, holds only beacons the node was deaf to, which were
  // never pending and are not dropped either.
  const std::size_t total = log_offset_ + bcast_msgs_.size();
  const std::uint64_t queued =
      due_mail_->test(id) ? unicasts_[id].size() + (total - cursors_[id]) : 0;
  pending_ -= queued;
  dropped_ += queued;
  unicasts_[id].clear();
  cursors_[id] = total;
  due_mail_->clear(id);
}

void Network::set_node_up(NodeId id) {
  if (id >= num_nodes()) {
    throw std::out_of_range("Network::set_node_up: bad node id");
  }
  if (alive_->test(id)) return;
  alive_->set(id);
  --down_count_;
  // Skip every broadcast issued during the outage (each was already
  // counted dropped at issue time); delivery resumes with the next send.
  cursors_[id] = log_offset_ + bcast_msgs_.size();
}

void Network::maybe_compact_broadcast_log() {
  if (bcast_msgs_.size() < kLogCompactThreshold) return;
  // Only nodes with a set due bit have unread mail. A clear-bit node's
  // cursor jumps to the log end when its bit next rises, and a down
  // node's cursor is fast-forwarded on recovery (a down node's due bit is
  // always clear), so neither pins the log prefix.
  std::size_t min_cursor = log_offset_ + bcast_msgs_.size();
  const auto due = due_mail_->words();
  for (std::size_t w = 0; w < due.size(); ++w) {
    for_each_id(w, due[w], [&](std::size_t id) {
      min_cursor = std::min(min_cursor, cursors_[id]);
    });
  }
  const std::size_t read_prefix = min_cursor - log_offset_;
  // Only pay the erase when it reclaims at least half the retained log;
  // a straggler node that never drains simply defers compaction.
  if (read_prefix < bcast_msgs_.size() / 2) return;
  const auto cut = static_cast<std::ptrdiff_t>(read_prefix);
  bcast_msgs_.erase(bcast_msgs_.begin(), bcast_msgs_.begin() + cut);
  bcast_seqs_.erase(bcast_seqs_.begin(), bcast_seqs_.begin() + cut);
  log_offset_ += read_prefix;
}

void Network::fan_out(std::size_t end, bool beacon) {
  // Only live hearing nodes get a due bit (every live node hears a
  // non-beacon); a deaf node with mail already due reads the beacon with
  // that mail, so it counts as pending too. Down nodes never see the
  // entry: their due bits stay clear, set_node_up fast-forwards their
  // cursor past it, and their per-link deliveries are dropped here. A
  // live node left with a clear bit is skipped: neither pending nor
  // dropped, and its cursor goes stale until its bit next rises.
  const auto due = due_mail_->mutable_words();
  const auto alive = alive_->words();
  const auto deaf = beacon_deaf_->words();
  std::uint64_t reached = 0;
  std::uint64_t skipped = 0;
  for (std::size_t w = 0; w < due.size(); ++w) {
    const std::uint64_t hear = beacon ? alive[w] & ~deaf[w] : alive[w];
    if (stale_cursors_) {
      // Clear-bit cursor rule: a clear bit about to rise reads from here.
      for_each_id(w, hear & ~due[w],
                  [&](std::size_t id) { cursors_[id] = end; });
    }
    due[w] |= hear;
    reached += static_cast<std::uint64_t>(popcount_word(due[w]));
    skipped |= alive[w] & ~due[w];
  }
  pending_ += reached;
  dropped_ += down_count_;
  // Every live node not due now was skipped (possibly again); all others
  // read from a valid cursor.
  stale_cursors_ = skipped != 0;
}

std::optional<SimTime> Network::earliest_pending() const {
  if (pending_ == 0) return std::nullopt;
  if (instant_ || pending_ > in_flight_) return now_;  // deliverable now
  SimTime e = next_wheel_tick();
  if (!overflow_.empty()) e = std::min(e, overflow_.front().due);
  return e;
}

}  // namespace topkmon
