#include "core/planner.hpp"

#include <stdexcept>

#include "plan/evaluator.hpp"

namespace np::core {

PlanResult verify_result(const topo::Topology& topology, PlanResult result) {
  if (!result.feasible) return result;
  if (result.added_units.size() != static_cast<std::size_t>(topology.num_links())) {
    throw std::invalid_argument("verify_result: plan size mismatch");
  }
  std::vector<int> total = topology.initial_units();
  for (int l = 0; l < topology.num_links(); ++l) total[l] += result.added_units[l];
  result.feasible = plan::check_once(topology, total).feasible;
  result.cost = topology.plan_cost(result.added_units);
  return result;
}

}  // namespace np::core
