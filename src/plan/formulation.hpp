// Planning-MILP builder: the paper's §3.1 formulation (Eq. 1-5).
//
// Decision variables are per-link *added* capacity units (integers).
// Total capacity C_l = initial_units_l + added_l, so the existing-
// topology constraint (Eq. 5, C_l >= C_l^min) holds by construction and
// the objective (Eq. 1) reduces to the cost of the additions. This file
// writes the capacity variables, the optional cost cutoff and the
// spectrum rows (Eq. 4); each scenario's flow variables, conservation
// (Eq. 2) and capacity rows (Eq. 3) come from append_flow_block
// (plan/scenario_lp.hpp), the routine the evaluator's scenario LP is
// built from, with no unserved-demand slack and C_l as its capacity
// term. Commodities are always source-aggregated (§5).
//
// FormulationOptions exposes the levers the paper's workflows need:
//  * max_added_units  — per-link upper bounds; this is how the NeuroPlan
//                       second stage encodes the RL plan x relax factor
//                       alpha as "maximum capacity constraints" (§4.3),
//                       and how ILP-heur restricts candidates.
//  * failures         — the failure-selection heuristic (§3.2) solves
//                       with a growing subset of scenarios.
//  * unit_multiplier  — the capacity-unit-enlargement heuristic (§3.2):
//                       plan in multiples of the base unit, shrinking
//                       the integer search space at an optimality loss.
#pragma once

#include <optional>
#include <vector>

#include "lp/model.hpp"
#include "topo/topology.hpp"

namespace np::plan {

struct FormulationOptions {
  int unit_multiplier = 1;
  /// Per-link cap on ADDED units (base units); empty = spectrum cap.
  std::vector<int> max_added_units;
  /// Per-link floor on ADDED units (base units); empty = zero. Used by
  /// repair solves that may only top up an existing plan.
  std::vector<int> min_added_units;
  /// Indices into topology.failures() to plan for, in this order;
  /// unset = every failure. The healthy network is always planned for.
  std::optional<std::vector<int>> failures;
  /// Upper bound on the total addition cost (0 disables). When a plan
  /// of this cost is already known (e.g. NeuroPlan's first-stage plan),
  /// the cutoff is a valid inequality that sharply shrinks the MILP's
  /// polytope — the solver only has to look for improvements.
  double max_total_cost = 0.0;
};

class PlanningMilp {
 public:
  PlanningMilp(const topo::Topology& topology, const FormulationOptions& options);

  const lp::Model& model() const { return model_; }
  lp::Model& model() { return model_; }

  /// Integer warm start (milp::MilpOptions::integer_warm_start) for a
  /// plan of per-link ADDED base units: each link's units rounded up to
  /// multiplier units, every other variable 0.
  std::vector<double> integer_start(const std::vector<int>& added) const;

  /// Convert a MILP solution vector into per-link added BASE units.
  std::vector<int> extract_added_units(const std::vector<double>& x) const;

 private:
  lp::Model model_;
  std::vector<int> added_vars_;
  int multiplier_ = 1;
  int num_links_ = 0;
};

}  // namespace np::plan
