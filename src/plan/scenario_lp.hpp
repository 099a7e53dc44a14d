// The §3.1 flow model, written once, and the per-failure-scenario
// feasibility LP built from it (§5 of the paper).
//
// append_flow_block appends one scenario's multicommodity flow to an
// lp::Model: the flow variables, the conservation rows (Eq. 2) and the
// capacity rows (Eq. 3). Both users of the model call it: the plan
// evaluator's scenario LP here, and the planning MILP
// (plan/formulation.hpp) once per scenario. They differ only in data:
// the LP's block is elastic and its capacity is a patchable row bound;
// the MILP's block is hard and its capacity is the initial capacity
// plus an integer variable's added units.
//
// For one scenario (the healthy network or one failure), the scenario
// LP checks whether a capacity plan carries all required flows. It is
// *elastic*: minimize total unserved demand with per-sink slack
// variables. The plan is feasible for the scenario iff the optimum is
// ~0 (all_demand_served). Elasticity keeps the LP always-feasible, so
// every solve yields an optimal basis that warm-starts the next check
// of the same scenario after a capacity increment — the mechanism
// behind the paper's stateful failure checking speedup. A warm solve
// also keeps the LU of that basis when no pivot followed its
// factorization, so the next warm start from an unchanged basis skips
// its refactorization. The model is built compressed
// (lp::Model::compress): its matrix is held once, as the column store
// the simplex reads in place, so a re-solve rebuilds no copy of it and
// a resident scenario LP costs one exactly sized matrix.
//
// With `aggregate_sources` (the paper's source aggregation, [60]) flows
// sharing a source become one commodity, shrinking constraints from
// s(fm + 2l) to s(m^2 + 2l) as derived in §5. The planning MILP always
// aggregates; the per-flow scenario LP is Fig. 7's Vanilla evaluator.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "topo/topology.hpp"

namespace np::plan {

/// Scenario index convention throughout np::plan and np::rl:
/// 0 = healthy network, k >= 1 = topology.failure(k - 1).
inline constexpr int kHealthyScenario = 0;

/// Eq. 3's capacity term of one flow block. Each direction of an alive
/// link l gets the row
///   sum_c y[c][l][dir] - unit_gbps * x[added_var[l]] <= bound_gbps[l],
/// without the x term when `added_var` is empty.
struct CapacityTerm {
  std::vector<int> added_var;      ///< per link, or empty: no capacity variable
  double unit_gbps = 0.0;          ///< Gbps per unit of added_var
  std::vector<double> bound_gbps;  ///< per link
};

/// What append_flow_block reports about the block it appended.
struct FlowBlock {
  /// Capacity-row index for (link, direction) -> row, or -1 when the
  /// link is down in the scenario; 2 * num_links entries, 2*l + dir.
  std::vector<int> capacity_row;
  /// Total demand the scenario requires (Gbps).
  double total_demand = 0.0;
};

/// Appends scenario `scenario`'s flow block (convention above) to
/// `model`, in this order:
///  * flow variables y >= 0 (objective 0): commodity-major, then alive
///    link, then direction (0 = site_a -> site_b); links down in the
///    scenario get none;
///  * when `elastic`, one unserved-demand slack per (commodity, sink),
///    in [0, demand] with objective 1;
///  * conservation rows (Eq. 2), commodity-major, then site:
///    out - in [+ sum of the commodity's slacks at its source]
///    [- the sink's slack] = source total / -sink demand / 0; a site
///    with no alive link and no demand gets no row;
///  * capacity rows (Eq. 3) per alive link and direction, as
///    `capacity` describes.
/// Throws std::invalid_argument on an out-of-range scenario or a
/// capacity term not sized per link.
FlowBlock append_flow_block(lp::Model& model, const topo::Topology& topology,
                            int scenario, bool aggregate_sources, bool elastic,
                            const CapacityTerm& capacity);

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

/// Build the LP for one scenario, compressed: an elastic flow block
/// whose capacity rows start at bound 0 (set_plan_capacities patches
/// them). `scenario` follows the convention above.
ScenarioLp build_scenario_lp(const topo::Topology& topology, int scenario,
                             bool aggregate_sources);

/// Update the capacity rows for new per-link total units. O(links).
void set_plan_capacities(ScenarioLp& lp, const topo::Topology& topology,
                         const std::vector<int>& total_units);

/// The elastic LP's verdict rule: a plan serves the scenario when the
/// optimal unserved demand is at most 1e-6 of its total demand (of
/// 1 Gbps when the total is smaller).
bool all_demand_served(double unserved_gbps, double total_demand);

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
