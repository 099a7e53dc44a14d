// Mixed-integer linear programming by LP-based branch and bound.
//
// Layers integrality (Variable::is_integer) on top of the np::lp
// simplex: best-first node selection on the LP bound, most-fractional
// branching, and deadline / node / gap limits. One fix-and-resolve
// routine (fix every integer variable to a target, re-solve the
// continuous LP, offer the result as an incumbent) serves both the
// optional integer warm start (the paper's §3.2 "warm-start to feed
// potential feasible solutions to ILP solvers"; targets round(start_j))
// and the rounding heuristic that finds incumbents early, at the root
// and every 20 nodes (targets ceil(x_j - tol)). The integrality
// tolerance (1e-6), that interval and the simplex options of every LP
// are fixed, except that every LP stops on the MILP's deadline. This is
// the role Gurobi's MIP engine plays in the paper; the pruned
// second-stage NeuroPlan ILPs and the exact/heuristic baselines all run
// through it.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/deadline.hpp"

namespace np::milp {

enum class MilpStatus {
  kOptimal,        // proven optimal incumbent
  kInfeasible,     // no integer-feasible point exists
  kTimeLimit,      // stopped on time; incumbent may exist
  kNodeLimit,      // stopped on node budget; incumbent may exist
  kUnbounded,      // LP relaxation unbounded
};

const char* to_string(MilpStatus status);

struct MilpOptions {
  /// Stop when (incumbent - bound) / max(1, |incumbent|) <= gap.
  double relative_gap = 1e-6;
  /// Wall-clock deadline for the whole solve (default unlimited). An
  /// expired deadline ends it with kTimeLimit and whatever incumbent it
  /// has, including one from the warm start.
  util::Deadline deadline{};
  long max_nodes = 1000000;
  /// Optional integer-only warm start (size = num_variables; continuous
  /// entries ignored): the solver fixes the integer variables to these
  /// values, re-solves the continuous LP, and accepts the result as the
  /// initial incumbent when feasible, so the caller need not know the
  /// continuous part of a feasible point.
  const std::vector<double>* integer_warm_start = nullptr;
};

struct MilpResult {
  MilpStatus status = MilpStatus::kInfeasible;
  bool has_incumbent = false;
  double objective = 0.0;        // incumbent objective (when has_incumbent)
  std::vector<double> x;         // incumbent point (when has_incumbent)
  double best_bound = -lp::kInfinity;
  double gap = lp::kInfinity;
};

MilpResult solve(const lp::Model& model, const MilpOptions& options = {});

}  // namespace np::milp
