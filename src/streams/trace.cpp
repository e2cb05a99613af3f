#include "streams/trace.hpp"

namespace topkmon {

TraceStream::TraceStream(std::vector<Value> values, TraceEnd end_behavior)
    : values_(std::move(values)), end_(end_behavior) {
  if (values_.empty()) {
    throw std::invalid_argument("TraceStream: empty trace");
  }
}

Value TraceStream::next() {
  if (pos_ >= values_.size()) {
    switch (end_) {
      case TraceEnd::kHoldLast:
        return values_.back();
      case TraceEnd::kCycle:
        pos_ = 0;
        break;
      case TraceEnd::kThrow:
        throw std::out_of_range("TraceStream exhausted");
    }
  }
  return values_[pos_++];
}

StreamSet TraceMatrix::to_stream_set(TraceEnd end_behavior) const {
  std::vector<std::unique_ptr<Stream>> streams;
  streams.reserve(n_);
  for (NodeId i = 0; i < n_; ++i) {
    std::vector<Value> column;
    column.reserve(rows_.size());
    for (const auto& row : rows_) column.push_back(row[i]);
    streams.push_back(
        std::make_unique<TraceStream>(std::move(column), end_behavior));
  }
  return StreamSet(std::move(streams));
}

}  // namespace topkmon
