// Per-failure-scenario feasibility LP (§5 of the paper).
//
// For one scenario (the healthy network or one failure), checks whether
// a capacity plan carries all required flows. We use an *elastic*
// multicommodity-flow formulation: minimize total unserved demand with
// per-sink slack variables. The plan is feasible for the scenario iff
// the optimum is ~0. Elasticity keeps the LP always-feasible, so every
// solve yields an optimal basis that warm-starts the next check of the
// same scenario after a capacity increment — the mechanism behind the
// paper's stateful failure checking speedup. A warm solve also keeps
// the LU of that basis when no pivot followed its factorization, so the
// next warm start from an unchanged basis skips its refactorization.
// The model is built compressed (lp::Model::compress): its matrix is
// held once, as the column store the simplex reads in place, so a
// re-solve rebuilds no copy of it and a resident scenario LP costs one
// exactly sized matrix.
//
// With `aggregate_sources` (the paper's source aggregation, [60]) flows
// sharing a source become one commodity, shrinking constraints from
// s(fm + 2l) to s(m^2 + 2l) as derived in §5.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "topo/topology.hpp"

namespace np::plan {

/// Scenario index convention throughout np::plan and np::rl:
/// 0 = healthy network, k >= 1 = topology.failure(k - 1).
inline constexpr int kHealthyScenario = 0;

struct ScenarioLp {
  /// Compressed: row and variable bounds stay patchable, rows cannot
  /// be added.
  lp::Model model;
  /// Capacity-row index for (link, direction) -> row, or -1 when the
  /// link is down in this scenario. Row upper bound = C_l in Gbps.
  std::vector<int> capacity_row;  // size 2 * num_links, dir-major: 2*l + dir
  /// Total demand that must be served in this scenario (Gbps).
  double total_demand = 0.0;
  /// Warm-start basis of the previous solve; empty before the first.
  lp::Basis basis;
  /// LU of the basis the previous warm solve ended on, when the next
  /// warm start can adopt it instead of refactorizing (lp::KeptFactor).
  /// Only the row bounds of `model` are ever patched, so it stays valid.
  lp::KeptFactor factor;
  int failure_index = -1;  ///< -1 = healthy
};

/// Build the LP for one scenario, compressed. `scenario` follows the
/// convention above. Links down in the scenario get no flow variables.
ScenarioLp build_scenario_lp(const topo::Topology& topology, int scenario,
                             bool aggregate_sources);

/// Update the capacity rows for new per-link total units. O(links).
void set_plan_capacities(ScenarioLp& lp, const topo::Topology& topology,
                         const std::vector<int>& total_units);

/// Outcome of one scenario check. kUnknown means the solver ran out of
/// budget (wall-clock deadline or iteration cap) before reaching a
/// verdict; callers must degrade conservatively — treat the scenario as
/// not-yet-satisfied, never as passed.
enum class Verdict { kFeasible, kInfeasible, kUnknown };

const char* to_string(Verdict verdict);

struct ScenarioCheck {
  bool feasible = false;
  /// Three-valued outcome; `feasible` stays the conservative boolean
  /// projection (kUnknown => false).
  Verdict verdict = Verdict::kUnknown;
  /// True when the solve stopped on the wall-clock deadline / time
  /// limit rather than finishing (implies verdict == kUnknown).
  bool deadline_hit = false;
  double unserved_gbps = 0.0;
  long lp_iterations = 0;
  /// Wall-clock seconds spent inside lp::solve (including a cold retry
  /// after a failed warm start).
  double solve_seconds = 0.0;
  /// Seconds of solve_seconds spent in entering-variable pricing (the
  /// bench's pricing-time share).
  double pricing_seconds = 0.0;
};

/// Solve the elastic LP (optionally warm-started from lp.basis) and
/// report feasibility. Stores the final basis back for the next call;
/// a warm solve also reads and refreshes lp.factor, a cold one passes
/// the simplex nothing to keep.
ScenarioCheck solve_scenario(ScenarioLp& lp, const lp::SimplexOptions& base_options,
                             bool use_warm_start);

}  // namespace np::plan
