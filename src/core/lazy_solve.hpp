// Lazy scenario generation for planning MILPs.
//
// Materializing every failure scenario in one MILP (the paper's naive
// ILP) blows up with topology size — exactly the scalability wall §3.2
// describes. This helper keeps the MILP small: solve with a scenario
// subset (FormulationOptions::failures), check the resulting plan
// against ALL scenarios with the plan evaluator, add the violated
// scenario, repeat. Each round's MILP is seeded with the previous
// round's plan through PlanningMilp::integer_start, which maps base
// units to the MILP's multiplier units.
//
// A round's plan that violates a new scenario is topped up for it by a
// small repair MILP (floors = the plan, only the healthy network and
// that scenario), and a finisher repairs the last such plan to full
// feasibility when the loop stops early. The repair is also the loop's
// incumbent source when a round stops on its time limit, which is why
// it stays (docs/INTERNALS.md §3 has the measurement).
//
// Soundness: each round's MILP is a relaxation of the full problem
// (fewer constraints), so its optimum lower-bounds the full optimum;
// when the returned plan also passes the full evaluator check it is
// feasible for the full problem — hence optimal (up to the MILP gap).
//
// Both NeuroPlan's second stage and the ILP-heur baseline run through
// this helper (ILP-heur additionally coarsens the capacity unit, which
// is where its optimality loss comes from).
//
// All full checks of one call share one stateful evaluator, so scenario
// models stay resident and warm-start across rounds. A check whose plan
// only adds units to the one checked before it (a repair's top-up of a
// round's plan) skips the scenarios that plan survived; other checks
// start at scenario 0. The checks carry no time budget.
//
// Budgets: the call turns total_time_limit_seconds into one deadline at
// entry. Each round's MILP gets the earlier of it and
// time_limit_per_solve_seconds from the round's start; each in-loop
// repair the earlier of it and min(10 s, per-solve / 2), and runs only
// when more than 0.5 s of that is left. Once the loop stops, the
// finisher gets a grace deadline of max(20 s, 0.3 * total) from then,
// so a call can run past its total by that much; each finisher repair
// gets the earlier of the grace and 5 s. Every MILP passes its deadline
// unchanged to each LP it solves.
#pragma once

#include <string>
#include <vector>

#include "core/planner.hpp"
#include "milp/branch_and_bound.hpp"
#include "plan/formulation.hpp"

namespace np::core {

struct LazySolveConfig {
  int initial_failures = 1;     ///< seed scenarios besides the healthy one
  int max_rounds = 128;
  double total_time_limit_seconds = 600.0;
  double time_limit_per_solve_seconds = 120.0;
  double relative_gap = 1e-4;
  /// Optional per-link ADDED units of a plan known to be feasible for
  /// every scenario and inside `base`'s bounds (e.g. NeuroPlan's
  /// first-stage plan). Injected as an integer warm start into every
  /// round's MILP so time-limited rounds still carry an incumbent.
  std::vector<int> seed_added_units;
  /// Failure indices to include from round 1 (in addition to the first
  /// initial_failures ones) — e.g. the binding set a previous coarse
  /// pass discovered.
  std::vector<int> initial_scenario_set;
};

struct LazySolveResult {
  PlanResult plan;
  int rounds = 0;
  int scenarios_used = 0;  ///< failures in the final MILP (healthy excluded)
  /// Failure indices that ended up in the MILP — the binding set.
  std::vector<int> binding_failures;
};

/// `base` supplies bounds, unit multiplier and cost cutoff; its failure
/// list is overwritten by the generation loop.
LazySolveResult lazy_solve(const topo::Topology& topology,
                           plan::FormulationOptions base,
                           const LazySolveConfig& config = {});

}  // namespace np::core
