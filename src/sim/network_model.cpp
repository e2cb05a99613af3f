#include "sim/network_model.hpp"

#include <charconv>

#include "util/strings.hpp"

namespace topkmon {

namespace {

/// Shortest decimal that round-trips the double (std::to_string would
/// clamp to 6 decimals and misreport e.g. drop=1e-7 as "0.000000").
std::string format_fraction(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string NetworkSpec::name() const {
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (!out.empty()) out += ',';
    out += part;
  };
  if (delay != 0) append("delay=" + std::to_string(delay));
  if (jitter != 0) append("jitter=" + std::to_string(jitter));
  if (drop_rate > 0.0) append("drop=" + format_fraction(drop_rate));
  if (batch_window != 0) append("batch=" + std::to_string(batch_window));
  if (ticks_per_step != 0) append("ticks=" + std::to_string(ticks_per_step));
  return out.empty() ? "instant" : out;
}

NetworkSpec parse_network_spec(std::string_view text) {
  NetworkSpec spec;
  if (text.empty() || text == "instant") return spec;
  SpecReader r("network", text, /*named=*/false);
  r.read_unsigned("delay", spec.delay);
  r.read_unsigned("jitter", spec.jitter);
  r.read_fraction("drop", spec.drop_rate);
  r.read_unsigned("batch", spec.batch_window);
  r.read_unsigned("ticks", spec.ticks_per_step);
  r.done();
  return spec;
}

}  // namespace topkmon
