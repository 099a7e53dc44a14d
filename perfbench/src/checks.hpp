// Output checks the benchmark applies after each timed phase, outside
// the timing. Each returns an empty string when the output is right
// and a one-line reason otherwise; the caller counts a reason as one
// failed operation instead of stopping the run.
#pragma once

#include <string>
#include <vector>

#include "core/planner.hpp"
#include "rl/rollout.hpp"
#include "topo/topology.hpp"

namespace perfbench {

/// Feasibility of a plan given as ADDED units per link, decided by a
/// fresh single-threaded evaluator that rebuilds and cold-solves every
/// scenario (no state shared with the code under test).
bool plan_is_feasible(const np::topo::Topology& topology,
                      const std::vector<int>& added_units);

/// A first-stage (trained) plan: it must exist and pass a fresh check.
std::string check_trained_plan(const np::topo::Topology& topology, bool has_plan,
                               const std::vector<int>& added_units);

/// A stage-2 result: feasible, stopped by no limit, no more costly than
/// the plan it was seeded with, and feasible again on a fresh check.
std::string check_stage2(const np::topo::Topology& topology,
                         const np::core::PlanResult& result, double seed_cost);

/// A collect() result: one rollout per worker, exactly the requested
/// number of steps in total, split as RolloutWorkers documents.
std::string check_rollout(const std::vector<np::rl::WorkerRollout>& rollouts,
                          int requested_steps, int workers);

/// One served what-if answer: the ADDED-units plan asked about and the
/// verdict the server returned for it.
struct ServedVerdict {
  long id = 0;
  std::vector<int> plan;
  bool feasible = false;
};

/// Verdicts in `sample` that a fresh evaluator contradicts.
long count_wrong_verdicts(const np::topo::Topology& topology,
                          const std::vector<ServedVerdict>& sample);

}  // namespace perfbench
