#include "bench_json.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "util/table.hpp"

namespace topkmon::bench {

namespace {

/// Value text of `"key": <value>` inside `obj`, or nullopt. String values
/// are returned without quotes (the writer never emits escapes).
std::optional<std::string> field_text(const std::string& obj,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = obj.find(':', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  ++pos;
  while (pos < obj.size() && (obj[pos] == ' ' || obj[pos] == '\n')) ++pos;
  if (pos >= obj.size()) return std::nullopt;
  if (obj[pos] == '"') {
    const std::size_t end = obj.find('"', pos + 1);
    if (end == std::string::npos) return std::nullopt;
    return obj.substr(pos + 1, end - pos - 1);
  }
  std::size_t end = pos;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}' &&
         obj[end] != '\n' && obj[end] != ']') {
    ++end;
  }
  return obj.substr(pos, end - pos);
}

std::optional<double> field_double(const std::string& obj,
                                   const std::string& key) {
  const auto text = field_text(obj, key);
  if (!text) return std::nullopt;
  double out = 0.0;
  const auto res =
      std::from_chars(text->data(), text->data() + text->size(), out);
  if (res.ec != std::errc{}) return std::nullopt;
  return out;
}

std::optional<std::uint64_t> field_u64(const std::string& obj,
                                       const std::string& key) {
  const auto text = field_text(obj, key);
  if (!text) return std::nullopt;
  std::uint64_t out = 0;
  const auto res =
      std::from_chars(text->data(), text->data() + text->size(), out);
  if (res.ec != std::errc{}) return std::nullopt;
  return out;
}

}  // namespace

void BenchRow::add_key(std::string_view key) {
  if (!fields_.empty()) fields_ += ", ";
  fields_ += '"';
  fields_ += key;
  fields_ += "\": ";
}

BenchRow& BenchRow::text(std::string_view key, std::string_view value) {
  add_key(key);
  fields_ += '"';
  fields_ += value;
  fields_ += '"';
  return *this;
}

BenchRow& BenchRow::count(std::string_view key, std::uint64_t value) {
  add_key(key);
  fields_ += std::to_string(value);
  return *this;
}

BenchRow& BenchRow::real(std::string_view key, double value, int precision) {
  add_key(key);
  fields_ += fmt(value, precision);
  return *this;
}

bool write_bench_file(const std::string& path, const std::string& label,
                      bool alloc_hook, std::uint64_t steps,
                      const std::vector<BenchRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n";
  out << "  \"schema\": \"topkmon-bench-v1\",\n";
  out << "  \"label\": \"" << label << "\",\n";
  out << "  \"alloc_hook\": " << (alloc_hook ? "true" : "false") << ",\n";
  out << "  \"steps\": " << steps << ",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {" << rows[i].fields() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return static_cast<bool>(out);
}

std::optional<BenchFile> read_bench_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  if (doc.find("topkmon-bench-v1") == std::string::npos) return std::nullopt;

  BenchFile out;
  out.label = field_text(doc, "label").value_or("");
  out.alloc_hook = field_text(doc, "alloc_hook").value_or("false") == "true";
  out.steps = field_u64(doc, "steps").value_or(0);

  const std::size_t scenarios = doc.find("\"scenarios\"");
  if (scenarios == std::string::npos) return out;
  std::size_t pos = doc.find('[', scenarios);
  if (pos == std::string::npos) return out;
  // One flat object per scenario; the writer never nests braces inside.
  for (;;) {
    const std::size_t open = doc.find('{', pos);
    if (open == std::string::npos) break;
    const std::size_t close = doc.find('}', open);
    if (close == std::string::npos) break;
    const std::string obj = doc.substr(open, close - open + 1);
    BenchRecord rec;
    rec.name = field_text(obj, "name").value_or("");
    rec.steps_per_sec = field_double(obj, "steps_per_sec").value_or(0.0);
    rec.wall_seconds = field_double(obj, "wall_seconds").value_or(0.0);
    rec.messages_total = field_u64(obj, "messages_total").value_or(0);
    rec.error_steps = field_u64(obj, "error_steps").value_or(0);
    rec.allocs = field_u64(obj, "allocs");
    rec.max_recovery_ticks = field_u64(obj, "max_recovery_ticks");
    if (!rec.name.empty()) out.scenarios.push_back(std::move(rec));
    pos = close + 1;
    const std::size_t next = doc.find_first_not_of(",\n ", pos);
    if (next == std::string::npos || doc[next] == ']') break;
  }
  return out;
}

}  // namespace topkmon::bench
