// End-to-end integration: every monitor stays correct on every stream
// family for a nontrivial horizon, with strict validation on distinct
// values. This is the library's primary safety net.
#include <gtest/gtest.h>

#include <memory>

#include "core/runner.hpp"
#include "exp/scenario.hpp"
#include "streams/factory.hpp"

namespace topkmon {
namespace {

struct Case {
  std::string monitor;
  StreamFamily family;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return info.param.monitor + "_" +
         std::string(family_name(info.param.family));
}

class EndToEnd : public ::testing::TestWithParam<Case> {};

TEST_P(EndToEnd, CorrectForFourHundredSteps) {
  const auto& param = GetParam();
  exp::Scenario sc;
  sc.monitor = param.monitor;
  sc.stream.family = param.family;
  sc.n = 12;
  sc.k = 3;
  sc.steps = 400;
  sc.seed = 2024;
  sc.validate_order = true;
  const auto result = exp::run_scenario(sc);
  EXPECT_TRUE(result.correct);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& mon :
       {"topk_filter", "naive", "recompute", "dominance", "slack", "ordered"}) {
    for (const auto fam : all_families()) {
      cases.push_back(Case{mon, fam});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMonitorsAllStreams, EndToEnd,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace topkmon
