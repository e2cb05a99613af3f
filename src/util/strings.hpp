// Small string utilities shared by the spec parsers and the CLI.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace topkmon {

/// Splits `text` on `sep`, dropping empty items ("a,,b" -> {"a", "b"}).
/// Views point into `text`; the caller keeps the backing storage alive.
inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(sep, start);
    const std::string_view item = text.substr(
        start,
        pos == std::string_view::npos ? std::string_view::npos : pos - start);
    if (!item.empty()) out.push_back(item);
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

/// Full-string unsigned parse: nullopt on empty input, signs, trailing
/// junk, or overflow (unlike std::stoull, which wraps "-1" to 2^64-1).
inline std::optional<std::uint64_t> to_u64(std::string_view text) {
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return out;
}

/// Full-string signed parse: nullopt on empty input, trailing junk, or
/// overflow.
inline std::optional<std::int64_t> to_i64(std::string_view text) {
  std::int64_t out = 0;
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, out);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return out;
}

/// Full-string double parse: nullopt on empty input or trailing junk.
inline std::optional<double> to_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string copy(text);  // strtod needs NUL termination
  char* end = nullptr;
  const double out = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size()) return std::nullopt;
  return out;
}

/// Classic dynamic-programming edit distance (insert/delete/substitute),
/// case-insensitive — small strings, so the O(|a|·|b|) table is fine.
/// Shared by every did-you-mean hint (CLI --suite names, fault-plan
/// names and keys) so they suggest with identical tolerance.
inline std::size_t edit_distance(std::string_view a, std::string_view b) {
  const auto lower = [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  };
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub =
          prev[j - 1] + (lower(a[i - 1]) == lower(b[j - 1]) ? 0 : 1);
      cur[j] = std::min(std::min(prev[j] + 1, cur[j - 1] + 1), sub);
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// `parts` joined with ", " (for lists in error messages).
inline std::string join_names(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += ", ";
    out += part;
  }
  return out;
}

/// The candidates closest to `name` by edit_distance (<= max_distance,
/// best first, stable within a distance), truncated to max_results so the
/// hint stays scannable.
inline std::vector<std::string> closest_matches(
    std::string_view name, const std::vector<std::string>& candidates,
    std::size_t max_distance = 2, std::size_t max_results = 3) {
  std::vector<std::pair<std::size_t, std::string>> scored;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d <= max_distance) scored.emplace_back(d, c);
  }
  std::stable_sort(
      scored.begin(), scored.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; });
  if (scored.size() > max_results) scored.resize(max_results);
  std::vector<std::string> out;
  out.reserve(scored.size());
  for (auto& [d, c] : scored) out.push_back(std::move(c));
  return out;
}

}  // namespace topkmon
