// The BENCH record round trip: what write_bench_file writes,
// read_bench_file reads back — header, every row in order, the bare
// numbers, and the fields only some suites write (allocs,
// max_recovery_ticks).
#include "bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace topkmon::bench {
namespace {

TEST(BenchJson, WriteThenReadRoundTrips) {
  const std::string path = ::testing::TempDir() + "BENCH_roundtrip.json";
  std::vector<BenchRow> rows;
  rows.emplace_back()
      .text("name", "instant_small")
      .count("n", 64)
      .real("wall_seconds", 0.25, 6)
      .real("steps_per_sec", 8000.0, 1)
      .count("messages_total", 12345)
      .count("error_steps", 0)
      .count("max_recovery_ticks", 17)
      .count("allocs", 42);
  rows.emplace_back()
      .text("name", "sched_drop")
      .text("network", "delay=1,drop=0.01")
      .real("steps_per_sec", 1234.5, 1)
      .count("messages_total", 99)
      .count("error_steps", 3);
  ASSERT_TRUE(write_bench_file(path, "ci", true, 300, rows));

  const auto file = read_bench_file(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->label, "ci");
  EXPECT_TRUE(file->alloc_hook);
  EXPECT_EQ(file->steps, 300u);
  ASSERT_EQ(file->scenarios.size(), 2u);
  const BenchRecord& a = file->scenarios[0];
  EXPECT_EQ(a.name, "instant_small");
  EXPECT_DOUBLE_EQ(a.wall_seconds, 0.25);
  EXPECT_DOUBLE_EQ(a.steps_per_sec, 8000.0);
  EXPECT_EQ(a.messages_total, 12345u);
  EXPECT_EQ(a.error_steps, 0u);
  EXPECT_EQ(a.max_recovery_ticks, std::optional<std::uint64_t>{17});
  EXPECT_EQ(a.allocs, std::optional<std::uint64_t>{42});
  const BenchRecord& b = file->scenarios[1];
  EXPECT_EQ(b.name, "sched_drop");
  EXPECT_DOUBLE_EQ(b.steps_per_sec, 1234.5);
  EXPECT_EQ(b.messages_total, 99u);
  EXPECT_EQ(b.error_steps, 3u);
  EXPECT_FALSE(b.max_recovery_ticks.has_value());
  EXPECT_FALSE(b.allocs.has_value());

  // The exact text: the schema header and one flat object per row, with
  // numbers written bare.
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(),
            "{\n"
            "  \"schema\": \"topkmon-bench-v1\",\n"
            "  \"label\": \"ci\",\n"
            "  \"alloc_hook\": true,\n"
            "  \"steps\": 300,\n"
            "  \"scenarios\": [\n"
            "    {\"name\": \"instant_small\", \"n\": 64, \"wall_seconds\": "
            "0.250000, \"steps_per_sec\": 8000.0, \"messages_total\": 12345, "
            "\"error_steps\": 0, \"max_recovery_ticks\": 17, \"allocs\": "
            "42},\n"
            "    {\"name\": \"sched_drop\", \"network\": "
            "\"delay=1,drop=0.01\", \"steps_per_sec\": 1234.5, "
            "\"messages_total\": 99, \"error_steps\": 3}\n"
            "  ]\n"
            "}\n");
  std::remove(path.c_str());
}

TEST(BenchJson, EmptyFileHasNoScenariosAndUnwritablePathFails) {
  const std::string path = ::testing::TempDir() + "BENCH_empty.json";
  ASSERT_TRUE(write_bench_file(path, "x", false, 0, {}));
  const auto file = read_bench_file(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_FALSE(file->alloc_hook);
  EXPECT_TRUE(file->scenarios.empty());
  std::remove(path.c_str());
  EXPECT_FALSE(write_bench_file(::testing::TempDir() + "no-such-dir/x.json",
                                "x", false, 0, {}));
}

}  // namespace
}  // namespace topkmon::bench
