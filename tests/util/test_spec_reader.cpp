// SpecReader, the one reader of monitor, stream, network and fault-plan
// spec strings: the name/items split, typed reads with last-wins
// duplicates, bare keys versus `key=`, in-order repeatable keys, and
// done()'s unknown-key rejection with its did-you-mean hint.
#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace topkmon {
namespace {

/// The message of the std::invalid_argument `f` throws ("" if none).
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SpecReader, SplitsNameAndItemsOnce) {
  const SpecReader named("monitor", "slack?alpha=0.25,adaptive");
  EXPECT_EQ(named.name(), "slack");
  EXPECT_TRUE(named.has_query());
  EXPECT_EQ(named.query(), "alpha=0.25,adaptive");

  const SpecReader bare("stream", "sparse");
  EXPECT_EQ(bare.name(), "sparse");
  EXPECT_FALSE(bare.has_query());
  const SpecReader empty_query("stream", "sparse?");
  EXPECT_TRUE(empty_query.has_query());
  EXPECT_EQ(empty_query.query(), "");

  // A name-less spec is all items.
  const SpecReader nameless("network", "delay=2?x", /*named=*/false);
  EXPECT_EQ(nameless.name(), "");
  EXPECT_EQ(nameless.query(), "delay=2?x");
  EXPECT_EQ(SpecReader::name_of("topk_filter?nobeacon"), "topk_filter");
  EXPECT_EQ(SpecReader::name_of("dominance"), "dominance");
}

TEST(SpecReader, LastDuplicateWinsButEveryOneIsChecked) {
  SpecReader r("network", "delay=2,,delay=3", /*named=*/false);
  std::uint32_t delay = 0;
  EXPECT_TRUE(r.read_unsigned("delay", delay));
  EXPECT_EQ(delay, 3u);
  r.done();

  // A malformed early duplicate throws although a good one follows.
  SpecReader bad("network", "delay=x,delay=3", /*named=*/false);
  EXPECT_NE(error_of([&] { bad.read_unsigned("delay", delay); })
                .find("'delay=x'"),
            std::string::npos);
}

TEST(SpecReader, AbsentKeysLeaveTheirDefaults) {
  SpecReader r("monitor", "slack");
  double alpha = 0.5;
  bool adaptive = false;
  EXPECT_FALSE(r.read_fraction("alpha", alpha));
  EXPECT_FALSE(r.read_flag("adaptive", adaptive));
  EXPECT_EQ(alpha, 0.5);
  EXPECT_FALSE(adaptive);
  r.done();
}

TEST(SpecReader, TypedReadsCheckTheirRanges) {
  SpecReader r("network", "a=4294967295,b=4294967296,c=-5,d=1e-3,e=0,f=1",
               /*named=*/false);
  std::uint32_t a = 0, b = 0;
  EXPECT_TRUE(r.read_unsigned("a", a));
  EXPECT_EQ(a, 4294967295u);
  EXPECT_NE(error_of([&] { r.read_unsigned("b", b); })
                .find("expected an integer in [0, 4294967295]"),
            std::string::npos);
  std::int64_t c = 0;
  EXPECT_TRUE(r.read_signed("c", c));
  EXPECT_EQ(c, -5);
  double d = 0.0, e = 0.5, f = 0.5;
  EXPECT_TRUE(r.read_fraction("d", d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  EXPECT_TRUE(r.read_fraction("e", e));
  EXPECT_TRUE(r.read_fraction("f", f));
  EXPECT_EQ(e, 0.0);
  EXPECT_EQ(f, 1.0);
  for (const char* bad : {"p=nan", "p=-0.1", "p=1.5", "p=x", "p="}) {
    SCOPED_TRACE(bad);
    SpecReader fr("network", bad, /*named=*/false);
    double p = 0.0;
    EXPECT_NE(error_of([&] { fr.read_fraction("p", p); })
                  .find("expected a fraction in [0, 1]"),
              std::string::npos);
  }
}

TEST(SpecReader, BareKeyIsDistinctFromEmptyValue) {
  // A flag reads a bare key, `key=`, 1 and true as set; 0 and false clear.
  const std::pair<const char*, bool> flags[] = {
      {"m?on", true},     {"m?on=", true},      {"m?on=1", true},
      {"m?on=true", true}, {"m?on=0", false},   {"m?on=false", false},
      {"m?on=0,on", true}, {"m?on,on=false", false}};
  for (const auto& [spec, want] : flags) {
    SCOPED_TRACE(spec);
    SpecReader r("monitor", spec);
    bool on = !want;
    EXPECT_TRUE(r.read_flag("on", on));
    EXPECT_EQ(on, want);
  }
  SpecReader yes("monitor", "m?on=yes");
  bool on = false;
  EXPECT_NE(error_of([&] { yes.read_flag("on", on); }).find("a flag"),
            std::string::npos);

  // Any other read needs a value: a bare key says so, `key=` is a bad
  // (empty) value.
  SpecReader bare("network", "delay", /*named=*/false);
  std::uint32_t delay = 0;
  EXPECT_NE(error_of([&] { bare.read_unsigned("delay", delay); })
                .find("'delay' needs a value"),
            std::string::npos);
  SpecReader empty("network", "delay=", /*named=*/false);
  EXPECT_NE(error_of([&] { empty.read_unsigned("delay", delay); })
                .find("bad value in 'delay='"),
            std::string::npos);
}

TEST(SpecReader, CustomReadRejectsWithItsExpectation) {
  SpecReader r("stream", "s?n=4,n=odd");
  int n = 0;
  const auto even = [](std::string_view v) -> std::optional<int> {
    const auto x = to_u64(v);
    if (!x || *x % 2 != 0) return std::nullopt;
    return static_cast<int>(*x);
  };
  EXPECT_EQ(error_of([&] { r.read("n", n, "an even number", even); }),
            "stream 's?n=4,n=odd': bad value in 'n=odd': expected an even "
            "number");
}

TEST(SpecReader, EachVisitsRepeatableKeysInSpecOrder) {
  SpecReader r("fault plan", "churn?b=1,a=2,x=0,b=3,a=4");
  const std::string_view keys[] = {"a", "b"};
  std::vector<std::pair<std::size_t, std::string>> seen;
  r.each(keys, [&](const SpecItem& item, std::size_t which) {
    seen.emplace_back(which, std::string(item.value));
  });
  const std::vector<std::pair<std::size_t, std::string>> want = {
      {1, "1"}, {0, "2"}, {1, "3"}, {0, "4"}};
  EXPECT_EQ(seen, want);
  // x was named by no read.
  EXPECT_NE(error_of([&] { r.done(); }).find("unknown key 'x'"),
            std::string::npos);

  SpecReader bare("fault plan", "churn?a");
  EXPECT_NE(error_of([&] {
              bare.each(keys, [](const SpecItem&, std::size_t) {});
            }).find("'a' needs a value"),
            std::string::npos);
}

TEST(SpecReader, DoneHintsTheClosestReadKey) {
  SpecReader r("network", "delai=2", /*named=*/false);
  std::uint32_t delay = 0, jitter = 0;
  r.read_unsigned("delay", delay);
  r.read_unsigned("jitter", jitter);
  EXPECT_EQ(error_of([&] { r.done(); }),
            "network 'delai=2': unknown key 'delai' in 'delai=2'; did you "
            "mean 'delay'?");

  // No close key, no hint; a bare item is named by its key alone.
  SpecReader far("monitor", "dominance?zzz");
  EXPECT_EQ(error_of([&] { far.done(); }),
            "monitor 'dominance?zzz': unknown key 'zzz'");
  // A note closes the error, after the hint.
  EXPECT_EQ(error_of([&] { r.done("delays only"); }),
            "network 'delai=2': unknown key 'delai' in 'delai=2'; did you "
            "mean 'delay'?; delays only");
}

TEST(SpecReader, FailUnknownQuotesTheSpecAndHints) {
  const SpecReader r("monitor", "topk_filtr?nobeacon");
  EXPECT_EQ(error_of([&] {
              r.fail_unknown("monitor", r.name(), {"topk_filter", "naive"});
            }),
            "monitor 'topk_filtr?nobeacon': unknown monitor 'topk_filtr'; "
            "did you mean 'topk_filter'?");
}

}  // namespace
}  // namespace topkmon
