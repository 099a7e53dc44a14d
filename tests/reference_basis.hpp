// Test-only dense basis inverse: the m x m inverse of a simplex basis,
// built by Gauss-Jordan elimination with partial pivoting and updated in
// product form after each basis exchange. It has lp::BasisFactor's
// interface and index conventions ("row" is a constraint row, "position"
// a basis slot), and shares no code with it, so the sparse LU plus eta
// file can be checked against it solve by solve. O(m^2) per solve and
// O(m^3) per factorization: fine for tests, far too slow for the solver.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "lp/factor.hpp"

namespace np::ref {

class DenseBasisInverse {
 public:
  /// Invert the m x m basis whose columns are given by position.
  /// Returns false when some column has no pivot above 1e-9.
  bool factorize(int m, const std::vector<lp::ColumnView>& columns) {
    m_ = m;
    std::vector<double> mat(cell(m_, 0), 0.0);
    for (int p = 0; p < m_; ++p) {
      for (const auto& [r, coeff] : columns[p]) mat[cell(r, p)] += coeff;
    }
    binv_.assign(cell(m_, 0), 0.0);
    for (int i = 0; i < m_; ++i) binv_[cell(i, i)] = 1.0;
    for (int col = 0; col < m_; ++col) {
      int pivot_row = col;
      double best = std::abs(mat[cell(col, col)]);
      for (int r = col + 1; r < m_; ++r) {
        const double cand = std::abs(mat[cell(r, col)]);
        if (cand > best) {
          best = cand;
          pivot_row = r;
        }
      }
      if (best < 1e-9) return false;
      if (pivot_row != col) {
        for (int c = 0; c < m_; ++c) {
          std::swap(mat[cell(pivot_row, c)], mat[cell(col, c)]);
          std::swap(binv_[cell(pivot_row, c)], binv_[cell(col, c)]);
        }
      }
      const double inv_pivot = 1.0 / mat[cell(col, col)];
      for (int c = 0; c < m_; ++c) {
        mat[cell(col, c)] *= inv_pivot;
        binv_[cell(col, c)] *= inv_pivot;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double factor = mat[cell(r, col)];
        if (factor == 0.0) continue;
        for (int c = 0; c < m_; ++c) {
          mat[cell(r, c)] -= factor * mat[cell(col, c)];
          binv_[cell(r, c)] -= factor * binv_[cell(col, c)];
        }
      }
    }
    return true;
  }

  /// w = B^{-1} a for one sparse column; w dense, by position.
  void ftran_column(lp::ColumnView a, std::vector<double>& w) const {
    w.assign(m_, 0.0);
    for (const auto& [r, coeff] : a) {
      for (int p = 0; p < m_; ++p) w[p] += binv_[cell(p, r)] * coeff;
    }
  }

  /// x := B^{-1} x (rows in, positions out).
  void ftran(std::vector<double>& x) const {
    std::vector<double> out(m_, 0.0);
    for (int p = 0; p < m_; ++p) {
      for (int r = 0; r < m_; ++r) out[p] += binv_[cell(p, r)] * x[r];
    }
    x = std::move(out);
  }

  /// x := B^{-T} x (positions in, rows out).
  void btran(std::vector<double>& x) const {
    std::vector<double> out(m_, 0.0);
    for (int p = 0; p < m_; ++p) {
      for (int r = 0; r < m_; ++r) out[r] += x[p] * binv_[cell(p, r)];
    }
    x = std::move(out);
  }

  /// rho = e_p^T B^{-1}, indexed by row.
  void btran_unit(int p, std::vector<double>& rho) const {
    rho.assign(binv_.begin() + static_cast<std::ptrdiff_t>(cell(p, 0)),
               binv_.begin() + static_cast<std::ptrdiff_t>(cell(p + 1, 0)));
  }

  /// Product-form update after the basis exchange at position p, where
  /// w is the FTRAN result of the entering column (w[p] != 0).
  void append_eta(int p, const std::vector<double>& w) {
    const double inv_pivot = 1.0 / w[p];
    for (int c = 0; c < m_; ++c) binv_[cell(p, c)] *= inv_pivot;
    for (int q = 0; q < m_; ++q) {
      if (q == p || w[q] == 0.0) continue;
      for (int c = 0; c < m_; ++c) binv_[cell(q, c)] -= w[q] * binv_[cell(p, c)];
    }
  }

 private:
  std::size_t cell(int row, int col) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(m_) +
           static_cast<std::size_t>(col);
  }

  int m_ = 0;
  std::vector<double> binv_;  // row-major; row p is e_p^T B^{-1}
};

}  // namespace np::ref
