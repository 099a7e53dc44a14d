#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "la/kernels.hpp"
#include "util/check.hpp"

namespace np::la {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets)
    : rows_(rows), cols_(cols) {
  for (const auto& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      throw std::invalid_argument("CsrMatrix: triplet out of bounds");
    }
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  row_offsets_.assign(rows_ + 1, 0);
  for (std::size_t i = 0; i < triplets.size(); ++i) {
    if (i > 0 && triplets[i].row == triplets[i - 1].row &&
        triplets[i].col == triplets[i - 1].col) {
      values_.back() += triplets[i].value;  // merge duplicates
      continue;
    }
    col_indices_.push_back(triplets[i].col);
    values_.push_back(triplets[i].value);
    ++row_offsets_[triplets[i].row + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) row_offsets_[r + 1] += row_offsets_[r];
  NP_CHECK_CSR(rows_, cols_, row_offsets_, col_indices_, values_.size(),
               "CsrMatrix::CsrMatrix");
}

CsrMatrix CsrMatrix::from_dense(const Matrix& dense, double tolerance) {
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      if (std::abs(dense(r, c)) > tolerance) triplets.push_back({r, c, dense(r, c)});
    }
  }
  return CsrMatrix(dense.rows(), dense.cols(), std::move(triplets));
}

Matrix CsrMatrix::multiply(const Matrix& dense) const {
  if (cols_ != dense.rows()) {
    throw std::invalid_argument("CsrMatrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, dense.cols(), 0.0);
  kernels::spmm(*this, dense.data(), dense.cols(), out.data());
  NP_CHECK_FINITE(out.data(), out.size(), "CsrMatrix::multiply");
  return out;
}

Matrix CsrMatrix::multiply_transposed(const Matrix& dense) const {
  if (rows_ != dense.rows()) {
    throw std::invalid_argument("CsrMatrix::multiply_transposed: dimension mismatch");
  }
  Matrix out(cols_, dense.cols(), 0.0);
  kernels::spmm_tn(*this, dense.data(), dense.cols(), out.data());
  NP_CHECK_FINITE(out.data(), out.size(), "CsrMatrix::multiply_transposed");
  return out;
}

Matrix CsrMatrix::to_dense() const {
  Matrix out(rows_, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      out(r, col_indices_[k]) += values_[k];
    }
  }
  return out;
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("CsrMatrix::at");
  for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
    if (col_indices_[k] == c) return values_[k];
  }
  return 0.0;
}

}  // namespace np::la
