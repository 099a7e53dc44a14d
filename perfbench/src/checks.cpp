#include "checks.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "plan/evaluator.hpp"

namespace perfbench {

bool plan_is_feasible(const np::topo::Topology& topology,
                      const std::vector<int>& added_units) {
  if (added_units.size() != static_cast<std::size_t>(topology.num_links())) {
    return false;
  }
  std::vector<int> total = topology.initial_units();
  for (std::size_t l = 0; l < total.size(); ++l) {
    if (added_units[l] < 0) return false;
    total[l] += added_units[l];
  }
  NP_SPAN("bench.reference_check");
  np::plan::PlanEvaluator reference(topology,
                                    np::plan::EvaluatorMode::kSourceAggregation);
  return reference.check(total).feasible;
}

std::string check_trained_plan(const np::topo::Topology& topology, bool has_plan,
                               const std::vector<int>& added_units) {
  if (!has_plan) return "training found no feasible plan";
  if (!plan_is_feasible(topology, added_units)) {
    return "trained plan fails a fresh feasibility check";
  }
  return "";
}

std::string check_stage2(const np::topo::Topology& topology,
                         const np::core::PlanResult& result, double seed_cost) {
  if (!result.feasible) return "stage 2 returned no feasible plan: " + result.detail;
  if (result.timed_out || result.detail.find("limit") != std::string::npos) {
    return "stage 2 stopped on a limit: " + result.detail;
  }
  const double cost = topology.plan_cost(result.added_units);
  if (std::abs(cost - result.cost) > 1e-6 * std::max(1.0, std::abs(cost))) {
    return "stage 2 reported a cost its plan does not have";
  }
  if (cost > seed_cost * (1.0 + 1e-9)) return "stage 2 plan costs more than its seed";
  if (!plan_is_feasible(topology, result.added_units)) {
    return "stage 2 plan fails a fresh feasibility check";
  }
  return "";
}

std::string check_rollout(const std::vector<np::rl::WorkerRollout>& rollouts,
                          int requested_steps, int workers) {
  if (static_cast<int>(rollouts.size()) != workers) {
    return "collect returned " + std::to_string(rollouts.size()) + " rollouts for " +
           std::to_string(workers) + " workers";
  }
  long total = 0;
  for (int w = 0; w < workers; ++w) {
    const long steps = static_cast<long>(rollouts[w].records.size());
    const long quota =
        requested_steps / workers + (w < requested_steps % workers ? 1 : 0);
    if (steps != quota) {
      return "worker " + std::to_string(w) + " returned " + std::to_string(steps) +
             " steps, quota " + std::to_string(quota);
    }
    total += steps;
  }
  if (total != requested_steps) return "collect returned a short rollout";
  return "";
}

long count_wrong_verdicts(const np::topo::Topology& topology,
                          const std::vector<ServedVerdict>& sample) {
  long wrong = 0;
  for (const ServedVerdict& served : sample) {
    if (plan_is_feasible(topology, served.plan) != served.feasible) ++wrong;
  }
  return wrong;
}

}  // namespace perfbench
