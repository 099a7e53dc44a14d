// Two-phase bounded-variable revised simplex.
//
// The model  min c^T x,  lo_r <= a_r.x <= hi_r,  lb <= x <= ub  is put in
// the computational form  A z = 0  by introducing one slack per row
// (a_r.x - s_r = 0 with s_r in [lo_r, hi_r]). The structural columns
// are read in place from a compressed model's column store
// (Model::compress); an uncompressed model gets the same store, built
// for the solve by lp::transpose. The slack and artificial columns are
// implicit in the model: each solve makes them as 2m unit entries of
// its own, so the artificial signs a cold start picks never reach the
// model, and devex builds its pivot rows from a row-wise transpose of
// the store, made once per cold solve. Cold starts use a slack
// crash: every row whose resting activity fits its slack bounds gets
// the slack basic, so phase 1 minimizes artificials only on the
// genuinely violated rows (equality rows with nonzero rhs) instead of
// all of them; phase 2 fixes artificials to zero and optimizes the
// real objective. The basis is one sparse LU factorization with a
// product-form eta file (lp/factor.hpp): FTRAN/BTRAN in O(fill), and
// refactorization in time proportional to its arithmetic (each column
// walks only the pivot positions it reaches through L). A caller that
// re-solves one model can keep the LU a solve ended on (KeptFactor), so
// a warm start from that same basis skips its refactorization.
//
// The solver picks its pricing rule from its input: devex
// reference-framework weights on a cold start, Dantzig (largest
// reduced cost) when SimplexOptions::warm_start is set, since warm
// solves finish in a handful of pivots and weight upkeep would be pure
// overhead. Large models price over a sharded partial-pricing candidate
// list (optimality is only declared after a full failed sweep with
// current duals), with an automatic Bland fallback against cycling;
// the ratio test supports bound flips. The feasibility and optimality
// tolerances (1e-7) are fixed; a solve is bounded by an iteration cap
// and one wall-clock deadline (SimplexOptions).
//
// Scale target: the NeuroPlan plan-evaluator feasibility LPs (hundreds
// of rows, a few thousand columns) and the pruned planning ILPs solved
// by np::milp. This plays the role Gurobi plays in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/factor.hpp"
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
  long max_iterations = 200000;
  /// Absolute wall-clock deadline, shared by every solve under one
  /// budget (a scenario check, a MILP's nodes, ...). Both simplex loops
  /// test it before each iteration and end the solve with
  /// SolveStatus::kTimeLimit once it passes; a singular basis's cold
  /// retry runs under the same deadline. Defaults to unlimited, which
  /// costs one branch per iteration and reads no clock.
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

/// The LU a solve ended on, kept for the next solve of the same model.
/// When that solve's warm basis, listed in ascending variable order,
/// equals `basis`, it adopts `lu` instead of refactorizing: the same LU,
/// bit for bit, since a factorization is a pure function of the basis
/// columns in order. Valid only while the model's coefficients stay as
/// they were (bounds and objective may change; a compressed model's
/// coefficients never do); empty `basis` = none. The solve moves its
/// factorization out, so `lu` may carry the workspace's spare capacity.
struct KeptFactor {
  std::vector<int> basis;  ///< variable index per basis position
  LuFactors lu;
};

/// Solve the model. Integer markers on variables are ignored (this is
/// the LP relaxation); np::milp layers integrality on top. With `kept`,
/// the solve empties it on entry, may adopt what it held (see
/// KeptFactor), and refills it only when it returns optimal on a basis
/// a warm start can list in the same order with no eta after its last
/// factorization; a throw leaves it empty.
Solution solve(const Model& model, const SimplexOptions& options = {},
               KeptFactor* kept = nullptr);

}  // namespace np::lp
