// The one writer and a minimal reader for the BENCH_*.json wall-clock
// records this binary writes (schema "topkmon-bench-v1"): just enough
// structure to diff two perf runs without pulling a JSON library into
// the tree. Every suite that keeps a BENCH record writes it through
// write_bench_file with its own row fields. The reader is tolerant of
// whitespace and field order; it is not a general-purpose parser.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace topkmon::bench {

struct BenchRecord {
  std::string name;
  double steps_per_sec = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t messages_total = 0;
  std::uint64_t error_steps = 0;
  /// Absent when the writing binary had the alloc hook compiled out.
  std::optional<std::uint64_t> allocs;
  /// Worst fault-recovery window of the run (RunResult::
  /// max_recovery_ticks). Absent in files written before the perf suite
  /// carried a faulted case.
  std::optional<std::uint64_t> max_recovery_ticks;
};

struct BenchFile {
  std::string label;
  bool alloc_hook = false;
  std::uint64_t steps = 0;
  std::vector<BenchRecord> scenarios;
};

/// One scenario object of a BENCH file: its fields in write order, each
/// value already in its JSON form.
class BenchRow {
 public:
  /// A string field, written quoted. The format has no escapes, so
  /// `value` must not contain '"'.
  BenchRow& text(std::string_view key, std::string_view value);
  /// An integer field, written bare.
  BenchRow& count(std::string_view key, std::uint64_t value);
  /// A fixed-point field with `precision` decimals (util/table.hpp's
  /// fmt), written bare.
  BenchRow& real(std::string_view key, double value, int precision);

  /// The fields as `"key": value, ...`, without the braces.
  const std::string& fields() const noexcept { return fields_; }

 private:
  void add_key(std::string_view key);

  std::string fields_;
};

/// Writes a topkmon-bench-v1 document to `path`: the schema, label,
/// alloc_hook and steps header, then one flat object per row — the form
/// read_bench_file reads. Returns false when `path` cannot be opened.
bool write_bench_file(const std::string& path, const std::string& label,
                      bool alloc_hook, std::uint64_t steps,
                      const std::vector<BenchRow>& rows);

/// Parses `path`. Returns nullopt when the file cannot be read or is not
/// a topkmon-bench-v1 document.
std::optional<BenchFile> read_bench_file(const std::string& path);

}  // namespace topkmon::bench
