#include "core/runner.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/ground_truth_tracker.hpp"

namespace topkmon {

void check_answer_step(GroundTruthTracker& truth,
                       const std::vector<NodeId>& answer,
                       const std::vector<NodeId>* claimed_order,
                       const RunConfig& cfg, std::string_view monitor_name,
                       std::string_view detail, TimeStep t, RunResult* result,
                       bool throw_on_error) {
  if (cfg.validation == RunConfig::Validation::kOff) return;

  bool ok = true;
  if (cfg.validation == RunConfig::Validation::kStrict) {
    ok = truth.matches_strict(answer);
  } else {
    ok = truth.is_valid(answer);
  }

  if (ok && cfg.validate_order && claimed_order != nullptr) {
    ok = (*claimed_order == truth.ordered_topk());
  }

  if (!ok) {
    result->correct = false;
    ++result->error_steps;
    result->error_step_list.push_back(t);
    if (!result->first_error_step.has_value()) result->first_error_step = t;
    if (throw_on_error) {
      std::ostringstream msg;
      msg << "monitor '" << monitor_name << "' diverged from ground truth "
          << "at step " << t << detail;
      throw std::logic_error(msg.str());
    }
  }
}

double competitive_ratio(const RunResult& result, std::size_t k) {
  if (!result.trace.has_value()) {
    throw std::invalid_argument(
        "competitive_ratio: run was executed without record_trace");
  }
  const auto opt = compute_offline_opt(*result.trace, k);
  // The paper charges OPT at least one message per filter-update epoch;
  // the initial epoch's setup is charged to both algorithms, so compare
  // against max(1, updates) to avoid division by zero on silent traces.
  const auto denom = std::max<std::size_t>(1, opt.updates());
  return static_cast<double>(result.comm.total()) /
         static_cast<double>(denom);
}

}  // namespace topkmon
