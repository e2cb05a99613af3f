#include "util/isa.hpp"

#include <array>

namespace topkmon {

namespace {

/// Every level, baseline first, best last.
constexpr std::array<IsaLevel, 3> kLevels = {
    IsaLevel::kBaseline, IsaLevel::kAvx2, IsaLevel::kX86_64_v4};

}  // namespace

std::string_view isa_name(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kBaseline: return "baseline";
    case IsaLevel::kAvx2: return "avx2";
    case IsaLevel::kX86_64_v4: return "x86-64-v4";
  }
  return "?";
}

bool host_supports(IsaLevel level) noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();
  switch (level) {
    case IsaLevel::kBaseline: return true;
    case IsaLevel::kAvx2:
      // Every AVX2 CPU has POPCNT; the range pass's AVX2 build uses it.
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("popcnt");
    case IsaLevel::kX86_64_v4:
      // The AVX-512 subsets x86-64-v4 adds, plus the v3 features the
      // compiled loops may use; spelled out because older compilers'
      // __builtin_cpu_supports do not know the level names.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512cd") &&
             __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi") &&
             __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("fma") &&
             __builtin_cpu_supports("popcnt");
  }
  return false;
#else
  return level == IsaLevel::kBaseline;
#endif
}

std::vector<IsaLevel> host_isa_levels() {
  std::vector<IsaLevel> levels;
  for (const IsaLevel level : kLevels) {
    if (host_supports(level)) levels.push_back(level);
  }
  return levels;
}

IsaLevel best_host_isa() noexcept {
  for (auto level = kLevels.rbegin(); level != kLevels.rend(); ++level) {
    if (host_supports(*level)) return *level;
  }
  return IsaLevel::kBaseline;
}

}  // namespace topkmon
