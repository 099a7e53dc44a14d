// Sparse LU basis factorization with a product-form eta file — the
// simplex's only basis representation (lp/simplex.cpp calls it
// directly; tests/reference_basis.hpp keeps a dense Gauss-Jordan
// inverse that it is checked against).
//
// The basis B (columns of the LP constraint matrix picked by the
// current basis) is factorized as P·B·Q = L·U by left-looking sparse
// Gaussian elimination: columns are eliminated in ascending-nonzero
// order (a static Markowitz-style preorder that pivots the slack and
// artificial singletons first, fill-free), and within each column the
// pivot row is chosen by threshold partial pivoting with a
// Markowitz-style tie-break toward low-count rows. Each column's
// triangular solve visits only the pivot positions its pattern reaches
// through L, in ascending order (Gilbert & Peierls, 1988), so a
// factorization costs its fill plus a log factor, not O(m^2) position
// tests. Between refactorizations, basis exchanges append product-form
// eta vectors instead of touching L/U, so an update costs O(nnz of the
// pivot column) rather than O(m^2).
//
// FTRAN (w = B^{-1} a) and BTRAN (y = B^{-T} c) run in O(fill + eta
// nnz): the triangular solves skip structurally-zero positions, which
// makes solves with hyper-sparse right-hand sides (unit vectors, LP
// columns with a handful of entries) cost far below O(m^2). Scenario
// LPs (flow conservation + capacity rows) have ~8 nonzeros per row, so
// a dense inverse's O(m^2) per-iteration and O(m^3) per-refactorization
// costs become near-O(nnz) ones.
//
// L, U and the eta file live in flat (CSC-style) arrays whose capacity
// survives refactorizations within a solve: per-column heap churn would
// otherwise rival the arithmetic at these sizes (m ~ 10^2). The LU
// alone (LuFactors: no eta file, no workspace) can be read out and
// adopted back, which is how a scenario LP keeps the factorization its
// last solve ended on (lp/simplex.hpp KeptFactor). A warm re-solve of
// that basis then does no refactorization; a solve that pivots does
// one more, to verify its terminal.
#pragma once

#include <utility>
#include <vector>

#include "la/sparse_vector.hpp"

namespace np::lp {

/// Sparse matrix column: (row index, coefficient) entries.
using SparseColumn = std::vector<std::pair<int, double>>;

/// Non-owning view of a sparse column — the simplex stores all columns
/// in one flat arena and hands out views, so the factorization never
/// depends on how the caller lays out its matrix.
struct ColumnView {
  const std::pair<int, double>* entries = nullptr;
  int count = 0;

  ColumnView() = default;
  ColumnView(const std::pair<int, double>* e, int n) : entries(e), count(n) {}
  ColumnView(const SparseColumn& c)  // NOLINT(google-explicit-constructor)
      : entries(c.data()), count(static_cast<int>(c.size())) {}

  const std::pair<int, double>* begin() const { return entries; }
  const std::pair<int, double>* end() const { return entries + count; }
  int size() const { return count; }
};

struct FactorStats {
  long factorizations = 0;  ///< lifetime count of factorize() calls
  long lu_entries = 0;      ///< L+U nonzeros of the current factorization
  long eta_entries = 0;     ///< nonzeros currently in the eta file
  /// Pivot positions the last factorize() visited in its left-looking
  /// solves: the reach of each column through L, summed over columns.
  long reach_positions = 0;
};

/// One factorization P·B·Q = L·U, without the eta file or the
/// factorization workspace. L and U store their strictly-off-diagonal
/// entries column-wise in flat arrays indexed by pivot position: column
/// k of L occupies lower_entries[lower_start[k] .. lower_start[k+1])
/// with entries (i, v), i > k; likewise upper with i < k. L's diagonal
/// is an implicit 1, U's diagonal is `diag`. Flat so refactorization
/// reuses capacity instead of reallocating ~2m column vectors.
struct LuFactors {
  int m = 0;
  std::vector<std::pair<int, double>> lower_entries;
  std::vector<int> lower_start;
  std::vector<std::pair<int, double>> upper_entries;
  std::vector<int> upper_start;
  std::vector<double> diag;
  std::vector<int> row_of_pos;  ///< P: pivot position -> original row
  std::vector<int> pos_of_row;  ///< P^{-1}
  std::vector<int> col_of_pos;  ///< Q: pivot position -> basis position
  std::vector<int> pos_of_col;  ///< Q^{-1}
};

class BasisFactor {
 public:
  /// Factorize the m x m basis whose columns are given by position.
  /// Clears the eta file. Returns false when the basis is numerically
  /// singular (no pivot above the absolute tolerance in some column).
  bool factorize(int m, const std::vector<ColumnView>& columns);

  /// Install `lu`, read out by lu() or release() after an earlier
  /// factorize() of the same columns in the same order, as if
  /// factorize() had just rebuilt it. factorize() is a pure function of
  /// its columns, so every later solve is bit-identical to one after a
  /// refactorization. Clears the eta file.
  void adopt(LuFactors lu);

  /// The current factorization, valid after a successful factorize()
  /// or adopt(). With no eta appended since, it alone represents the
  /// current basis.
  const LuFactors& lu() const { return lu_; }

  /// Hand the current factorization over, as lu() reads it, leaving the
  /// factor empty (dimension 0, no eta file) until the next factorize()
  /// or adopt().
  LuFactors release();

  /// FTRAN with a dense right-hand side: x := B^{-1} x. Input indexed
  /// by row, output by basis position.
  void ftran(std::vector<double>& x) const;

  /// FTRAN of one sparse column: w = B^{-1} a, w dense by position.
  /// The triangular solves only do work on populated positions.
  void ftran_column(ColumnView a, std::vector<double>& w) const;

  /// BTRAN with a dense right-hand side: x := B^{-T} x. Input indexed
  /// by basis position, output by row.
  void btran(std::vector<double>& x) const;

  /// BTRAN of a unit vector: rho = e_p^T B^{-1}, the dual simplex pivot
  /// row, indexed by row. Exploits the hyper-sparse right-hand side by
  /// starting the forward solve at p's pivot position.
  void btran_unit(int p, std::vector<double>& rho) const;

  /// Product-form update after a basis exchange at position p, where w
  /// is the FTRAN result of the entering column (w[p] must be the pivot
  /// element, checked nonzero by the simplex ratio test).
  void append_eta(int p, const std::vector<double>& w);

  /// True when the eta file has grown past the point where
  /// refactorizing is cheaper than dragging the updates along; the
  /// simplex refactorizes early on this signal.
  bool prefers_refactor() const;

  int dim() const { return lu_.m; }
  int eta_count() const { return static_cast<int>(etas_.size()); }
  const FactorStats& stats() const { return stats_; }

 private:
  struct Eta {
    int pivot_pos = 0;
    double pivot_value = 1.0;
    /// Off-pivot entries: [start, start + count) in eta_entries_.
    int start = 0;
    int count = 0;
  };

  // Triangular solves over the pivot-position space, in place, with
  // structural zero skipping.
  void lower_solve(std::vector<double>& x) const;
  void upper_solve(std::vector<double>& x) const;
  void upper_transpose_solve(std::vector<double>& x, int first) const;
  void lower_transpose_solve(std::vector<double>& x) const;
  void apply_etas(std::vector<double>& x) const;
  void apply_etas_transposed(std::vector<double>& x) const;

  LuFactors lu_;
  std::vector<Eta> etas_;
  std::vector<std::pair<int, double>> eta_entries_;
  FactorStats stats_;

  la::ScatterVector scatter_;         // factorization workspace
  std::vector<int> reach_;            // min-heap of reached pivot positions
  std::vector<int> order_;            // column elimination preorder
  std::vector<int> count_start_;      // counting-sort buckets for order_
  std::vector<int> row_count_;        // Markowitz-style pivot tie-break
  mutable std::vector<double> work_;  // dense solve scratch
};

}  // namespace np::lp
