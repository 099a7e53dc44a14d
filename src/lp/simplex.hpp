// Two-phase bounded-variable revised simplex.
//
// The model  min c^T x,  lo_r <= a_r.x <= hi_r,  lb <= x <= ub  is put in
// the computational form  A z = 0  by introducing one slack per row
// (a_r.x - s_r = 0 with s_r in [lo_r, hi_r]). Cold starts use a slack
// crash: every row whose resting activity fits its slack bounds gets
// the slack basic, so phase 1 minimizes artificials only on the
// genuinely violated rows (equality rows with nonzero rhs) instead of
// all of them; phase 2 fixes artificials to zero and optimizes the
// real objective. The basis is one sparse LU factorization with a
// product-form eta file (lp/factor.hpp): FTRAN/BTRAN in O(fill), and
// refactorization in time proportional to its arithmetic (each column
// walks only the pivot positions it reaches through L).
//
// The solver picks its pricing rule from its input: devex
// reference-framework weights on a cold start, Dantzig (largest
// reduced cost) when SimplexOptions::warm_start is set, since warm
// solves finish in a handful of pivots and weight upkeep would be pure
// overhead. Large models price over a sharded partial-pricing candidate
// list (optimality is only declared after a full failed sweep with
// current duals), with an automatic Bland fallback against cycling;
// the ratio test supports bound flips.
//
// Scale target: the NeuroPlan plan-evaluator feasibility LPs (hundreds
// of rows, a few thousand columns) and the pruned planning ILPs solved
// by np::milp. This plays the role Gurobi plays in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "util/deadline.hpp"

namespace np::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
};

const char* to_string(SolveStatus status);

/// Simplex status of one variable (structural or slack) in a basis.
enum class VarStatus : std::uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kNonbasicFree,  // free variable held at zero
};

/// Warm-start basis: one status per structural variable followed by one
/// per row slack (size = num_variables + num_rows). The solver verifies
/// it (count of basics, nonsingularity) and silently falls back to a
/// cold start when invalid — warm starts are an optimization, never a
/// correctness requirement.
struct Basis {
  std::vector<VarStatus> statuses;
  bool empty() const { return statuses.empty(); }
};

struct SimplexOptions {
  double feasibility_tolerance = 1e-7;
  double optimality_tolerance = 1e-7;
  long max_iterations = 200000;
  double time_limit_seconds = kInfinity;
  /// Absolute wall-clock deadline shared across a batch of solves (one
  /// scenario sweep, one branch-and-bound dive, ...). Checked alongside
  /// time_limit_seconds; whichever trips first ends the solve with
  /// SolveStatus::kTimeLimit. Defaults to unlimited, which costs one
  /// branch per iteration.
  util::Deadline deadline{};
  /// Basis to start from. Also selects the pricing rule: Dantzig when
  /// set (even if the basis is rejected and the solve starts cold),
  /// devex when null.
  const Basis* warm_start = nullptr;
};

/// Which start the solver ended up using (telemetry for tuning).
enum class StartPath {
  kCold,         // two-phase from scratch
  kWarmPrimal,   // warm basis was primal feasible
  kDualRepair,   // warm basis repaired by the dual simplex
  kWarmFailed,   // warm basis rejected or repair gave up -> cold
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;   // structural variable values (empty unless optimal)
  Basis basis;             // final basis for warm starts
  long iterations = 0;
  double solve_seconds = 0.0;
  /// Seconds spent inside entering-variable selection and pricing-
  /// weight maintenance (subset of solve_seconds) — the bench reports
  /// it as the pricing-time share.
  double pricing_seconds = 0.0;
  StartPath start_path = StartPath::kCold;
};

/// Solve the model. Integer markers on variables are ignored (this is
/// the LP relaxation); np::milp layers integrality on top.
Solution solve(const Model& model, const SimplexOptions& options = {});

}  // namespace np::lp
