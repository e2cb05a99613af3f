// Umbrella header: the full public API of the topkmon library.
//
//   #include <topkmon.hpp>
//
// pulls in the simulation substrate, stream generators, the distributed
// max/min protocols (Algorithm 2), every Top-k-Position monitoring
// algorithm (Algorithm 1 and the baselines, one coordinator/node role pair
// each, built by name through exp::make_role_pair) and the scenario
// runner.
#pragma once

#include "util/types.hpp"      // IWYU pragma: export
#include "util/strings.hpp"    // IWYU pragma: export
#include "util/rng.hpp"        // IWYU pragma: export
#include "util/statistics.hpp" // IWYU pragma: export
#include "util/table.hpp"      // IWYU pragma: export
#include "util/log.hpp"        // IWYU pragma: export

#include "sim/message.hpp"       // IWYU pragma: export
#include "sim/comm_stats.hpp"    // IWYU pragma: export
#include "sim/network_model.hpp" // IWYU pragma: export
#include "sim/network.hpp"       // IWYU pragma: export
#include "sim/cluster.hpp"     // IWYU pragma: export
#include "sim/event_log.hpp"   // IWYU pragma: export

#include "streams/stream.hpp"      // IWYU pragma: export
#include "streams/factory.hpp"     // IWYU pragma: export
#include "streams/trace.hpp"       // IWYU pragma: export

#include "protocols/extremum.hpp"          // IWYU pragma: export
#include "protocols/select_topk.hpp"       // IWYU pragma: export
#include "protocols/shout_echo.hpp"        // IWYU pragma: export
#include "protocols/sequential_probe.hpp"  // IWYU pragma: export

#include "core/filter.hpp"               // IWYU pragma: export
#include "core/ground_truth.hpp"         // IWYU pragma: export
#include "core/ground_truth_tracker.hpp" // IWYU pragma: export
#include "core/monitor.hpp"              // IWYU pragma: export
#include "core/roles.hpp"                // IWYU pragma: export
#include "core/driver.hpp"               // IWYU pragma: export
#include "core/filter_roles.hpp"         // IWYU pragma: export
#include "core/naive_roles.hpp"          // IWYU pragma: export
#include "core/slack_roles.hpp"          // IWYU pragma: export
#include "core/dominance_roles.hpp"      // IWYU pragma: export
#include "core/ordered_roles.hpp"        // IWYU pragma: export
#include "core/multik_roles.hpp"         // IWYU pragma: export
#include "core/recompute_roles.hpp"      // IWYU pragma: export
#include "core/offline_opt.hpp"          // IWYU pragma: export
#include "core/runner.hpp"               // IWYU pragma: export

#include "exp/monitor_registry.hpp" // IWYU pragma: export
#include "exp/scenario.hpp"         // IWYU pragma: export
#include "exp/sweep_grid.hpp"       // IWYU pragma: export
#include "exp/sweep_runner.hpp"     // IWYU pragma: export
#include "exp/result_sink.hpp"      // IWYU pragma: export
#include "exp/writers.hpp"          // IWYU pragma: export
#include "exp/suite.hpp"            // IWYU pragma: export
