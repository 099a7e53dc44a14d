#include "core/planner.hpp"

#include "plan/evaluator.hpp"

namespace np::core {

PlanResult verify_result(const topo::Topology& topology, PlanResult result) {
  if (!result.feasible) return result;
  result.feasible =
      plan::check_once(topology, topology.total_units(result.added_units)).feasible;
  result.cost = topology.plan_cost(result.added_units);
  return result;
}

}  // namespace np::core
