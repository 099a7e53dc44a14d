// Linear-program model: minimize c^T x subject to row activity bounds
//   lo_r <= a_r . x <= hi_r   and variable bounds  lb_j <= x_j <= ub_j.
//
// This is the in-memory form shared by the simplex solver (np::lp) and
// the branch-and-bound MILP solver (np::milp). The plan evaluator and
// the planning-ILP builder (np::plan) construct these models. Bounds
// stay mutable after construction: the evaluator patches the capacity
// rows' bounds per failure scenario instead of rebuilding the model —
// the paper's "only update the constraints that are influenced by the
// failure" optimization (§5) — and branch and bound tightens variable
// bounds on its working copy.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace np::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One sparse row entry: (variable index, coefficient).
using Coefficient = std::pair<int, double>;

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;  // honored by np::milp, ignored by the LP solver
};

struct Row {
  double lower = -kInfinity;
  double upper = kInfinity;
  std::vector<Coefficient> coefficients;
};

class Model {
 public:
  /// Add a continuous variable; returns its index. set_integer() marks
  /// it integer.
  int add_variable(double lower, double upper, double objective);

  /// Add a row lo <= coeffs . x <= hi; returns its index. Coefficients
  /// referencing unknown variables throw.
  int add_row(double lower, double upper, std::vector<Coefficient> coefficients);

  int num_variables() const { return static_cast<int>(variables_.size()); }
  int num_rows() const { return static_cast<int>(rows_.size()); }

  const Variable& variable(int index) const { return variables_.at(index); }
  const Row& row(int index) const { return rows_.at(index); }

  void set_variable_bounds(int index, double lower, double upper);
  void set_objective_coefficient(int index, double objective);
  void set_integer(int index, bool is_integer);
  void set_row_bounds(int index, double lower, double upper);

  const std::vector<Variable>& variables() const { return variables_; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Objective value of a given point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Max violation of rows + variable bounds at x (0 when feasible).
  double max_violation(const std::vector<double>& x) const;

  /// Throws std::invalid_argument when any bound pair is inverted or a
  /// coefficient is non-finite. Memoized: every mutator enforces these
  /// invariants at mutation time, so a model that validated once stays
  /// valid and repeat calls are O(1) — the solver validates per solve,
  /// and warm-started scenario solves finish in microseconds.
  void validate() const;

 private:
  void check_variable_index(int index) const;
  void check_row_index(int index) const;

  std::vector<Variable> variables_;
  std::vector<Row> rows_;
  mutable bool validated_ = false;
};

}  // namespace np::lp
