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
//
// A model is built row by row and may then be compressed, one way:
// compress() moves the coefficients into one exactly sized column-major
// store of the structural columns and frees the rows' coefficients, so
// a model that is solved again and again (a resident scenario LP, the
// branch-and-bound working copy) holds its matrix once, in the layout
// the simplex reads in place. Bounds, objective and integrality stay
// mutable; add_variable and add_row throw once compressed. The simplex
// builds the same column store for an uncompressed model per solve.
#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace np::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One sparse entry: (index, coefficient). In a row the index is a
/// variable, in a column a row.
using Coefficient = std::pair<int, double>;

/// A sparse matrix stored line by line (rows or columns): line k holds
/// entries[start[k] .. start[k+1]).
struct SparseLines {
  std::vector<Coefficient> entries;
  std::vector<int> start;

  std::span<const Coefficient> line(int k) const {
    return {entries.data() + start[k], entries.data() + start[k + 1]};
  }
};

/// The transpose of `lines` as `count` lines: line i lists an entry
/// (k, v) for every entry (i, v) of line k, in ascending k (so entries
/// of one source line keep their order), with zero coefficients
/// dropped. The arrays are allocated at their exact size. This one
/// routine builds every column store (Model::compress, the simplex's
/// store for an uncompressed model) and the simplex's row-wise
/// transpose for devex pricing.
SparseLines transpose(const SparseLines& lines, int count);

struct Variable {
  double lower = 0.0;
  double upper = kInfinity;
  double objective = 0.0;
  bool is_integer = false;  // honored by np::milp, ignored by the LP solver
};

struct Row {
  double lower = -kInfinity;
  double upper = kInfinity;
};

class Model {
 public:
  /// Add a continuous variable; returns its index. set_integer() marks
  /// it integer. Throws std::logic_error once compressed.
  int add_variable(double lower, double upper, double objective);

  /// Add a row lo <= coeffs . x <= hi; returns its index. Coefficients
  /// referencing unknown variables throw, and so does any call once
  /// compressed (std::logic_error).
  int add_row(double lower, double upper, std::vector<Coefficient> coefficients);

  /// Move the coefficients into the column store (columns()) and free
  /// the rows' coefficients; every array the model keeps ends at its
  /// exact size. One way; a second call does nothing.
  void compress();
  bool compressed() const { return compressed_; }

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

  /// Coefficients by row, in the order add_row received them (zeros
  /// and duplicates included). Empty, with nothing allocated, once
  /// compressed.
  const SparseLines& row_coefficients() const { return row_coefficients_; }

  /// The structural columns of a compressed model, one line per
  /// variable: (row, coefficient) entries in ascending row order, zero
  /// coefficients dropped, duplicates kept. Throws std::logic_error on
  /// an uncompressed model; transpose(row_coefficients(),
  /// num_variables()) builds the same store.
  const SparseLines& columns() const;

  /// Activity a_r . x of every row, each summed over its entries in
  /// ascending variable order (read from the columns, so the result is
  /// the same before and after compress()).
  std::vector<double> row_activities(const std::vector<double>& x) const;

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
  void check_not_compressed(const char* what) const;

  std::vector<Variable> variables_;
  std::vector<Row> rows_;
  SparseLines row_coefficients_{{}, {0}};  // freed by compress()
  SparseLines columns_;                     // filled by compress()
  bool compressed_ = false;
  mutable bool validated_ = false;
};

}  // namespace np::lp
