#include "sim/comm_stats.hpp"

#include <sstream>

namespace topkmon {

void CommStats::begin_step(TimeStep) {
  if (series_enabled_) series_.push_back(0);
}

std::vector<std::uint64_t> CommStats::cumulative_series() const {
  std::vector<std::uint64_t> cum;
  cum.reserve(series_.size());
  std::uint64_t acc = 0;
  for (const auto s : series_) {
    acc += s;
    cum.push_back(acc);
  }
  return cum;
}

void CommStats::reset() noexcept {
  upstream_ = 0;
  unicast_ = 0;
  broadcast_ = 0;
  by_kind_.fill(0);
  series_.clear();
}

std::string CommStats::summary() const {
  std::ostringstream out;
  out << "total=" << total() << " (up=" << upstream_ << ", uni=" << unicast_
      << ", bcast=" << broadcast_ << ")";
  return out.str();
}

}  // namespace topkmon
