// Baseline planners from the paper's evaluation (§6):
//
//  * solve_ilp       — the exact formulation of §3.1 handed to the MILP
//                      solver with a wall-clock budget; times out on
//                      large topologies (the crosses in Figure 9).
//  * solve_ilp_heur  — today's production practice (§3.2): hand-tuned
//                      heuristics that prune the search space before
//                      running the solver. We implement the three the
//                      paper describes: capacity-unit enlargement (4x
//                      units), iterative failure selection (lazy_solve,
//                      up to 64 rounds) and warm starts from a
//                      known-good design (the greedy plan).
//  * solve_greedy    — shortest-path overprovisioning: per scenario,
//                      route every required flow on its shortest
//                      surviving path; per link take the worst-case
//                      load over scenarios. Always feasible, never
//                      cheap; used as warm start and sanity baseline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "milp/branch_and_bound.hpp"

namespace np::core {

struct IlpConfig {
  /// Wall-clock budget of the MILP solve; +inf = unlimited.
  double time_limit_seconds = 300.0;
  double relative_gap = 1e-4;
};

/// Refuses models whose LP relaxation has more than 4,000 rows: the
/// simplex cannot make progress on them within any sensible budget, so
/// it reports the Figure 9 cross at once instead of spinning on the
/// root LP.
PlanResult solve_ilp(const topo::Topology& topology, const IlpConfig& config = {});

struct IlpHeurConfig {
  /// Failure-selection loop: start from the healthy network plus this
  /// many failures, then add violated scenarios until the plan passes.
  int initial_failures = 2;
  /// Per-round MILP budget; the loop's total is 64 rounds' worth.
  double time_limit_per_solve_seconds = 60.0;
  double relative_gap = 1e-3;
};

PlanResult solve_ilp_heur(const topo::Topology& topology,
                          const IlpHeurConfig& config = {});

PlanResult solve_greedy(const topo::Topology& topology);

/// solve_greedy's worst-case shortest-path load per link, as added units
/// clamped into [0, max - initial]; the decomposition sizes its
/// inter-regional links with it too.
struct ShortestPathSizing {
  std::vector<int> added_units;
  /// Name of the first scenario under which a required flow has no
  /// surviving path (its load is left out); nullopt when none does.
  std::optional<std::string> disconnected_under;
};

ShortestPathSizing size_by_shortest_paths(const topo::Topology& topology);

}  // namespace np::core
