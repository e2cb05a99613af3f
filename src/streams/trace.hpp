// Replay streams: feed a monitor exactly the values you specify. The
// offline-optimal computation and many unit tests drive the system with
// hand-crafted traces through this generator.
#pragma once

#include <stdexcept>
#include <vector>

#include "streams/stream.hpp"

namespace topkmon {

/// What a TraceStream does after the recorded values are exhausted.
enum class TraceEnd {
  kHoldLast,   ///< keep returning the final value
  kCycle,      ///< wrap around to the beginning
  kThrow,      ///< throw std::out_of_range (strict tests)
};

class TraceStream final : public Stream {
 public:
  TraceStream(std::vector<Value> values,
              TraceEnd end_behavior = TraceEnd::kHoldLast);

  Value next() override;

  std::size_t length() const noexcept { return values_.size(); }

 private:
  std::vector<Value> values_;
  TraceEnd end_;
  std::size_t pos_ = 0;
};

/// A full n-node trace: row t holds the n observations of step t. Column
/// slices become per-node TraceStreams via `to_stream_set`.
class TraceMatrix {
 public:
  TraceMatrix(std::size_t n, std::size_t steps)
      : n_(n), rows_(steps, std::vector<Value>(n, 0)) {}

  std::size_t nodes() const noexcept { return n_; }
  std::size_t steps() const noexcept { return rows_.size(); }

  Value& at(std::size_t t, NodeId i) { return rows_.at(t).at(i); }
  Value at(std::size_t t, NodeId i) const { return rows_.at(t).at(i); }

  /// Builds per-node replay streams over this matrix.
  StreamSet to_stream_set(TraceEnd end_behavior = TraceEnd::kHoldLast) const;

 private:
  std::size_t n_;
  std::vector<std::vector<Value>> rows_;
};

}  // namespace topkmon
