// The five spec entry points (make_role_pair, parse_sharded_spec,
// parse_stream_spec, parse_network_spec, FaultPlan) read through one
// SpecReader: every rejection quotes the full spec and names the
// offending item, unknown keys and names carry a did-you-mean hint, and
// the grammar's accepted edge cases parse as before.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/multik_roles.hpp"
#include "exp/monitor_registry.hpp"
#include "sim/cluster.hpp"
#include "sim/fault_plan.hpp"
#include "sim/network_model.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

enum class Entry { kMonitor, kSharded, kStream, kNetwork, kFault };

void parse(Entry entry, const std::string& spec) {
  switch (entry) {
    case Entry::kMonitor: {
      Cluster cluster(8, 1);
      exp::make_role_pair(cluster, spec, 2);
      break;
    }
    case Entry::kSharded:
      exp::parse_sharded_spec(spec);
      break;
    case Entry::kStream:
      parse_stream_spec(spec);
      break;
    case Entry::kNetwork:
      parse_network_spec(spec);
      break;
    case Entry::kFault:
      FaultPlan(spec, 8, 2, 1);
      break;
  }
}

TEST(SpecRejections, QuoteTheSpecNameTheItemAndHint) {
  const struct {
    Entry entry;
    const char* spec;
    /// The offending item (or name), as quoted, plus any text the
    /// error must continue with.
    const char* item;
    const char* hint;  ///< did-you-mean target, or nullptr
  } cases[] = {
      // An item with no '=' where a value is required.
      {Entry::kMonitor, "approx?eps", "'eps'", nullptr},
      {Entry::kStream, "sparse?rate", "'rate'", nullptr},
      {Entry::kNetwork, "delay", "'delay'", nullptr},
      {Entry::kFault, "churn?crash", "'crash'", nullptr},
      // An unknown key.
      {Entry::kMonitor, "topk_filter?nobeacn", "'nobeacn'", "nobeacon"},
      {Entry::kSharded, "topk_filter?nobeacn", "'nobeacn'", "nobeacon"},
      {Entry::kStream, "sparse?rat=0.1", "'rat=0.1'", "rate"},
      {Entry::kNetwork, "delai=2", "'delai=2'", "delay"},
      {Entry::kFault, "churn?crsh=1@10", "'crsh=1@10'", "crash"},
      // A monolithic knob the shard adapters do not forward.
      {Entry::kSharded, "topk_filter?backoff",
       "'backoff'; sharded deployments forward only", nullptr},
      {Entry::kSharded, "naive?suspect",
       "'suspect'; sharded deployments forward only", nullptr},
      // A value that is not a number (or flag).
      {Entry::kMonitor, "slack?alpha=abc", "'alpha=abc'", nullptr},
      {Entry::kMonitor, "approx?eps=1.5", "'eps=1.5'", nullptr},
      {Entry::kSharded, "topk_filter?nobeacon=maybe", "'nobeacon=maybe'",
       nullptr},
      {Entry::kStream, "sparse?rate=abc", "'rate=abc'", nullptr},
      {Entry::kNetwork, "jitter=abc", "'jitter=abc'", nullptr},
      {Entry::kFault, "churn?every=abc", "'every=abc'", nullptr},
      // A number outside the monitor's range: the reader rejects it
      // before any coordinator is built.
      {Entry::kMonitor, "slack?alpha=2",
       "bad value in 'alpha=2': expected a number in (0, 1)", nullptr},
      {Entry::kMonitor, "slack?alpha=nan", "'alpha=nan'", nullptr},
      {Entry::kMonitor, "approx?eps=-5",
       "bad value in 'eps=-5': expected an integer >= 0", nullptr},
      {Entry::kMonitor, "multi_k?ks=4+2",
       "bad value in 'ks=4+2': expected at most 200 increasing", nullptr},
      {Entry::kMonitor, "multi_k?ks=0+2", "'ks=0+2'", nullptr},
      // Integer overflow.
      {Entry::kMonitor, "approx?eps=9223372036854775808",
       "'eps=9223372036854775808'", nullptr},
      {Entry::kMonitor, "multi_k?ks=2+18446744073709551616",
       "'ks=2+18446744073709551616'", nullptr},
      {Entry::kNetwork, "delay=4294967296", "'delay=4294967296'", nullptr},
      {Entry::kNetwork, "ticks=18446744073709551616",
       "'ticks=18446744073709551616'", nullptr},
      {Entry::kFault, "churn?count=18446744073709551616",
       "'count=18446744073709551616'", nullptr},
      {Entry::kFault, "churn?crash=4294967296@10", "'crash=4294967296@10'",
       nullptr},
      // NaN for a fraction or rate.
      {Entry::kNetwork, "drop=nan", "'drop=nan'", nullptr},
      {Entry::kStream, "sparse?rate=nan", "'rate=nan'", nullptr},
      // An unknown monitor, family or plan name.
      {Entry::kMonitor, "topk_filtr", "'topk_filtr'", "topk_filter"},
      {Entry::kSharded, "naiv?nobeacon", "'naiv'", "naive"},
      {Entry::kStream, "ranodm_walk", "'ranodm_walk'", "random_walk"},
      {Entry::kStream, "sparse?inner=iid_unifrom", "'iid_unifrom'",
       "iid_uniform"},
      {Entry::kFault, "churm?crash=1@10", "'churm'", "churn"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    try {
      parse(c.entry, c.spec);
      ADD_FAILURE() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + std::string(c.spec) + "': "),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(c.item), std::string::npos) << what;
      if (c.hint != nullptr) {
        EXPECT_NE(what.find("did you mean '" + std::string(c.hint) + "'?"),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(SpecRejections, MultiKBoundaryCapIsTheReaders) {
  // One k past MultiKCoordinator's cap is a bad value in the reader's
  // form, not the coordinator's; the cap itself is accepted.
  std::string ks = "multi_k?ks=1";
  for (std::size_t k = 2; k <= MultiKCoordinator::kMaxBoundaries; ++k) {
    ks += '+';
    ks += std::to_string(k);
  }
  Cluster cluster(512, 1);
  EXPECT_NE(exp::make_role_pair(cluster, ks, 2).coordinator, nullptr);
  ks += '+';
  ks += std::to_string(MultiKCoordinator::kMaxBoundaries + 1);
  try {
    exp::make_role_pair(cluster, ks, 2);
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("': bad value in 'ks="),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecRejections, AcceptedEdgeCasesParseAsBefore) {
  // Duplicates: the last one wins.
  EXPECT_EQ(parse_network_spec("delay=2,delay=3").delay, 3u);
  EXPECT_DOUBLE_EQ(parse_stream_spec("sparse?rate=0.5,rate=0.25").sparse.rate,
                   0.25);
  // Empty items are dropped.
  const NetworkSpec net = parse_network_spec("delay=2,,jitter=1,");
  EXPECT_EQ(net.delay, 2u);
  EXPECT_EQ(net.jitter, 1u);
  EXPECT_EQ(parse_network_spec(","), NetworkSpec{});
  // `key=` is a set flag, like the bare key.
  EXPECT_TRUE(exp::parse_sharded_spec("topk_filter?nobeacon=")
                  .suppress_idle_broadcasts);
  EXPECT_FALSE(exp::parse_sharded_spec("topk_filter?nobeacon=1,nobeacon=0")
                   .suppress_idle_broadcasts);
  Cluster cluster(8, 1);
  for (const char* spec : {"topk_filter?", "dominance?,",
                           "topk_filter?nobeacon=",
                           "recompute?nobeacon=false"}) {
    SCOPED_TRACE(spec);
    EXPECT_NE(exp::make_role_pair(cluster, spec, 2).coordinator, nullptr);
  }
  // An empty query keeps the family's defaults.
  const StreamSpec sparse = parse_stream_spec("sparse?");
  EXPECT_EQ(sparse.family, StreamFamily::kSparse);
  EXPECT_DOUBLE_EQ(sparse.sparse.rate, StreamSpec{}.sparse.rate);
  // Fault events stay in spec order within a step: crash, then recover.
  const FaultPlan plan("churn?crash=1@10,recover=1@10", 8, 2, 1);
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(plan.events()[1].kind, FaultEvent::Kind::kRecover);
  EXPECT_THROW(FaultPlan("churn?recover=1@10,crash=1@10", 8, 2, 1),
               std::invalid_argument);
  // `none` takes no parameters, not even empty items.
  EXPECT_TRUE(FaultPlan("none?", 8, 2, 1).empty());
  EXPECT_THROW(FaultPlan("none?,", 8, 2, 1), std::invalid_argument);
  // A family without a grammar rejects even an empty query.
  EXPECT_THROW(parse_stream_spec("random_walk?"), std::invalid_argument);
}

}  // namespace
}  // namespace topkmon
