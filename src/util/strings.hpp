// Small string utilities shared by the spec parsers and the CLI, and
// SpecReader, the one reader of every spec string.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
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
/// Shared by every did-you-mean hint (CLI --suite names, SpecReader's
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

/// One item of a spec string: `key` or `key=value`. A bare `key` has no
/// value, which is distinct from `key=` (an empty value).
struct SpecItem {
  std::string_view text;  ///< the whole item, quoted in errors
  std::string_view key;
  std::string_view value;
  bool has_value = false;
};

/// The one reader of the spec strings that configure a run: monitors
/// ("topk_filter?nobeacon"), streams ("sparse?rate=0.01"), fault plans
/// ("churn?crash=3@10") and the name-less network specs ("delay=2").
///
/// The spec is split once: the name runs to the first '?', the items
/// after it split on ',' (empty items are dropped), and an item's key
/// runs to its first '='. A parser names each key once, in a read call:
///   - a single-valued read (read_unsigned, read_signed, read_fraction,
///     read_flag, or read with a custom parse) parses
///     every occurrence of its key, so a malformed one throws even if a
///     later one follows, and the last occurrence wins;
///   - each() visits the items of repeatable keys in spec order.
/// Every read returns whether its key occurred. done() then rejects any
/// item whose key no read named, hinting the closest named key. Every
/// error is a std::invalid_argument reading `<kind> '<spec>': <detail>`.
/// The reader keeps views of `kind`, `spec` and the keys it reads, so
/// they must outlive it (parsers pass string literals as keys).
class SpecReader {
 public:
  /// `kind` names the spec in errors ("monitor", "network", ...). A
  /// named spec is `name?items`; a name-less one is all items.
  SpecReader(std::string_view kind, std::string_view spec, bool named = true)
      : kind_(kind), spec_(spec), query_(spec) {
    if (named) {
      name_ = name_of(spec);
      query_ = spec.substr(std::min(name_.size() + 1, spec.size()));
    }
    for (const std::string_view text : split(query_, ',')) {
      const std::size_t eq = text.find('=');
      const bool has_value = eq != std::string_view::npos;
      items_.push_back({text, text.substr(0, eq),
                        has_value ? text.substr(eq + 1) : std::string_view{},
                        has_value});
    }
  }

  /// The name of a named spec: everything before its first '?'.
  static std::string_view name_of(std::string_view spec) noexcept {
    return spec.substr(0, spec.find('?'));
  }

  std::string_view name() const noexcept { return name_; }
  /// True when a named spec has a '?', even with nothing after it.
  bool has_query() const noexcept { return name_.size() < spec_.size(); }
  /// The raw text after the '?' (all of a name-less spec).
  std::string_view query() const noexcept { return query_; }

  /// Single-valued read with a custom parse: `parse(value)` returns a
  /// std::optional, and nullopt rejects the item as not `expected`. A
  /// bare key is rejected unless `bare_ok`, which parses it as `key=`.
  template <typename T, typename Parse>
  bool read(std::string_view key, T& out, const std::string& expected,
            Parse parse, bool bare_ok = false) {
    read_keys_.push_back(key);
    bool found = false;
    for (const SpecItem& item : items_) {
      if (item.key != key) continue;
      if (!item.has_value && !bare_ok) fail_bare(item);
      const auto v = parse(item.value);
      if (!v) {
        fail("bad value in '" + std::string(item.text) + "': expected " +
             expected);
      }
      out = *v;
      found = true;
    }
    return found;
  }

  /// An unsigned integer no larger than T's maximum.
  template <typename T>
  bool read_unsigned(std::string_view key, T& out) {
    constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
    return read(key, out, "an integer in [0, " + std::to_string(kMax) + "]",
                [](std::string_view v) -> std::optional<T> {
                  const auto x = to_u64(v);
                  if (!x || *x > kMax) return std::nullopt;
                  return static_cast<T>(*x);
                });
  }

  bool read_signed(std::string_view key, std::int64_t& out) {
    return read(key, out, "an integer", to_i64);
  }

  /// A fraction in [0, 1]. The negated range test also rejects NaN, which
  /// fails every comparison.
  bool read_fraction(std::string_view key, double& out) {
    return read(key, out, "a fraction in [0, 1]",
                [](std::string_view v) -> std::optional<double> {
                  const auto x = to_double(v);
                  if (!x || !(*x >= 0.0 && *x <= 1.0)) return std::nullopt;
                  return x;
                });
  }

  /// A flag: bare `key`, `key=`, `key=1` and `key=true` set it;
  /// `key=0` and `key=false` clear it.
  bool read_flag(std::string_view key, bool& out) {
    return read(key, out, "a flag (1, 0, true or false)",
                [](std::string_view v) -> std::optional<bool> {
                  if (v.empty() || v == "1" || v == "true") return true;
                  if (v == "0" || v == "false") return false;
                  return std::nullopt;
                },
                /*bare_ok=*/true);
  }

  /// Visits, in spec order, every item whose key is one of `keys` (keys
  /// that may repeat, such as fault events) as fn(item, index into keys).
  /// Each such item needs a value.
  template <typename F>
  void each(std::span<const std::string_view> keys, F&& fn) {
    read_keys_.insert(read_keys_.end(), keys.begin(), keys.end());
    for (const SpecItem& item : items_) {
      const auto it = std::find(keys.begin(), keys.end(), item.key);
      if (it == keys.end()) continue;
      if (!item.has_value) fail_bare(item);
      fn(item, static_cast<std::size_t>(it - keys.begin()));
    }
  }

  /// Rejects every item whose key no read named. A non-empty `note`
  /// closes the error, e.g. to say why a key valid elsewhere is not here.
  void done(std::string_view note = {}) const {
    for (const SpecItem& item : items_) {
      if (std::find(read_keys_.begin(), read_keys_.end(), item.key) ==
          read_keys_.end()) {
        fail_unknown("key", item.key,
                     std::vector<std::string>(read_keys_.begin(),
                                              read_keys_.end()),
                     item.has_value ? " in '" + std::string(item.text) + "'"
                                    : std::string(),
                     note);
      }
    }
  }

  [[noreturn]] void fail(const std::string& detail) const {
    throw std::invalid_argument(std::string(kind_) + " '" +
                                std::string(spec_) + "': " + detail);
  }

  /// Rejects `got` as an unknown `what` (key, monitor, family, ...),
  /// hinting the closest of `known`, then appending `note` if any.
  [[noreturn]] void fail_unknown(std::string_view what, std::string_view got,
                                 const std::vector<std::string>& known,
                                 const std::string& where = {},
                                 std::string_view note = {}) const {
    std::string detail =
        "unknown " + std::string(what) + " '" + std::string(got) + "'" + where;
    const auto hints = closest_matches(got, known);
    if (!hints.empty()) detail += "; did you mean '" + hints[0] + "'?";
    if (!note.empty()) detail += "; " + std::string(note);
    fail(detail);
  }

 private:
  [[noreturn]] void fail_bare(const SpecItem& item) const {
    fail("'" + std::string(item.key) + "' needs a value (" +
         std::string(item.key) + "=...)");
  }

  std::string_view kind_;
  std::string_view spec_;
  std::string_view name_;
  std::string_view query_;
  std::vector<SpecItem> items_;
  std::vector<std::string_view> read_keys_;  ///< every key a read named
};

}  // namespace topkmon
