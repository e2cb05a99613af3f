#include "streams/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace topkmon {

std::uint64_t SparseStream::period_for(double rate) {
  // std::llround is unspecified past LLONG_MAX, so 1/rate must stay below
  // 2^63 (0x1p63) for the period to fit in a std::int64_t.
  if (!(rate > 0.0) || rate > 1.0 || !(1.0 / rate < 0x1p63)) {
    throw std::invalid_argument(
        "SparseStream: rate must be in (0, 1] with 1/rate < 2^63");
  }
  const auto period = static_cast<std::uint64_t>(std::llround(1.0 / rate));
  return period == 0 ? 1 : period;
}

SparseStream::SparseStream(std::unique_ptr<Stream> inner, double rate,
                           std::uint64_t phase)
    : inner_(std::move(inner)), period_(period_for(rate)), phase_(phase) {
  if (phase >= period_) {
    throw std::invalid_argument("SparseStream: phase out of range");
  }
}

Value SparseStream::next() {
  if (sparse_draws(advances_++, phase_, period_)) current_ = inner_->next();
  return current_;
}

SparseBank::SparseBank(std::unique_ptr<StreamBank> inner,
                       std::uint64_t period)
    : inner_(std::move(inner)), period_(period) {
  if (!inner_ || inner_->size() == 0 || period_ == 0) {
    throw std::invalid_argument("SparseBank: empty inner bank or period 0");
  }
  current_.resize(inner_->size());
}

Value SparseBank::advance(NodeId id) {
  if (counts_.empty()) counts_.assign(size(), step_);
  if (sparse_draws(counts_[id]++, id % period_, period_)) {
    current_[id] = inner_->advance(id);
  }
  return current_[id];
}

void SparseBank::advance_all_masked(std::span<Value> values,
                                    std::span<std::uint64_t> changed) {
  const std::size_t n = size();
  if (!counts_.empty()) {
    for (NodeId id = 0; id < n; ++id) {
      if (sparse_draws(counts_[id]++, id % period_, period_)) {
        current_[id] = inner_->advance(id);
      }
    }
  } else if (const std::uint64_t c = step_++; draws_all(c)) {
    inner_->advance_all(current_);
  } else {
    for (std::uint64_t id = sparse_due_phase(c, period_); id < n;
         id += period_) {
      current_[id] = inner_->advance(static_cast<NodeId>(id));
    }
  }
  // The branch-free compare of TypedBank's fallback, against the bank's
  // own column.
  for (std::size_t w = 0; w < changed.size(); ++w) {
    std::uint64_t bits = 0;
    const std::size_t end = std::min(n, w * 64 + 64);
    for (std::size_t id = w * 64; id < end; ++id) {
      bits |= std::uint64_t{current_[id] != values[id]} << (id & 63);
      values[id] = current_[id];
    }
    changed[w] = bits;
  }
}

void SparseBank::advance_all_active(std::span<Value> values,
                                    std::vector<NodeId>& changed) {
  if (!counts_.empty()) {
    throw std::logic_error(
        "SparseBank: advance_all_active cannot follow a per-id advance() "
        "(the nodes no longer share one advance count)");
  }
  const std::size_t n = size();
  const std::uint64_t c = step_++;
  if (draws_all(c)) {
    inner_->advance_all(current_);
    for (NodeId id = 0; id < n; ++id) {
      if (current_[id] != values[id]) {
        values[id] = current_[id];
        changed.push_back(id);
      }
    }
    return;
  }
  for (std::uint64_t id = sparse_due_phase(c, period_); id < n;
       id += period_) {
    const Value v = inner_->advance(static_cast<NodeId>(id));
    current_[id] = v;
    if (v != values[id]) {
      values[id] = v;
      changed.push_back(static_cast<NodeId>(id));
    }
  }
}

}  // namespace topkmon
