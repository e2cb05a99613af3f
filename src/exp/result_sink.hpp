// Thread-safe aggregation of trial results into mean/stddev rows.
//
// Trials report named metrics under a row key (the grid cell's labels,
// e.g. {"32", "4", "topk_filter", "random_walk"}). The sink is safe to
// feed from any thread AND produces bit-identical aggregates regardless
// of arrival order: samples are stored under their trial ordinal and only
// folded into Welford accumulators — in ordinal order — when the table is
// materialized. This is what makes `--jobs 8` output byte-identical to
// `--jobs 1`.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace topkmon::exp {

class ResultSink {
 public:
  /// `key_columns` label the grouping columns; `metric_columns` name the
  /// per-trial measurements (each yields a mean and stddev output column).
  ResultSink(std::vector<std::string> key_columns,
             std::vector<std::string> metric_columns);

  /// Records one trial's metrics (aligned with metric_columns) for the
  /// cell `key` (aligned with key_columns). `ordinal` must be unique per
  /// (key, trial) — use the trial's index in SweepGrid::expand()'s list.
  /// Thread-safe.
  void add(const std::vector<std::string>& key, std::size_t ordinal,
           const std::vector<double>& metrics);

  /// Number of distinct cells seen so far.
  std::size_t cells() const;

  /// Materializes `key columns + {metric, metric_sd}...` rows. Cells are
  /// ordered by their smallest ordinal (i.e. grid order); samples within
  /// a cell are folded in ordinal order. `prec` controls the fixed-point
  /// formatting of the metric cells.
  Table to_table(int prec = 2) const;

  /// Like to_table(), but with a single `mean` column per metric (no
  /// stddev) — for single-trial sweeps where stddev is noise.
  Table to_table_mean_only(int prec = 2) const;

 private:
  Table build(bool with_stddev, int prec) const;

  std::vector<std::string> key_columns_;
  std::vector<std::string> metric_columns_;

  mutable std::mutex mutex_;
  // key -> (ordinal -> metric samples); both maps ordered for determinism.
  std::map<std::vector<std::string>, std::map<std::size_t, std::vector<double>>>
      cells_;
};

}  // namespace topkmon::exp
