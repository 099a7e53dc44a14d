#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/kernels.hpp"
#include "util/check.hpp"

namespace np::la {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  if ((rows == 0) != (cols == 0)) {
    throw std::invalid_argument("Matrix: one dimension zero but not both");
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) throw std::invalid_argument("Matrix: ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::row_vector(const std::vector<double>& data) {
  Matrix m(1, data.size());
  m.data_ = data;
  return m;
}

Matrix Matrix::col_vector(const std::vector<double>& data) {
  Matrix m(data.size(), 1);
  m.data_ = data;
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

void Matrix::require_same_shape(const Matrix& other, const char* op) const {
  if (!same_shape(other)) {
    throw std::invalid_argument(std::string("Matrix::") + op + ": shape mismatch " +
                                shape_string() + " vs " + other.shape_string());
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(other, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(other, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix Matrix::operator-() const { return *this * -1.0; }

Matrix Matrix::matmul(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix::matmul: inner dimension mismatch " +
                                shape_string() + " vs " + other.shape_string());
  }
  Matrix out(rows_, other.cols_, 0.0);
  kernels::matmul(data(), rows_, cols_, other.data(), other.cols_, out.data());
  NP_CHECK_FINITE(out.data(), out.size(), "Matrix::matmul");
  return out;
}

Matrix Matrix::hadamard(const Matrix& other) const {
  require_same_shape(other, "hadamard");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::add_row_broadcast(const Matrix& row) const {
  if (row.rows_ != 1 || row.cols_ != cols_) {
    throw std::invalid_argument("Matrix::add_row_broadcast: need 1x" +
                                std::to_string(cols_) + ", got " + row.shape_string());
  }
  Matrix out = *this;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, c) += row(0, c);
  }
  return out;
}

Matrix Matrix::sum_rows() const {
  Matrix out(1, cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(0, c) += (*this)(r, c);
  }
  return out;
}

Matrix Matrix::sum_cols() const {
  Matrix out(rows_, 1, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(r, 0) += (*this)(r, c);
  }
  return out;
}

double Matrix::sum() const {
  double total = 0.0;
  for (double x : data_) total += x;
  return total;
}

double Matrix::mean() const {
  if (data_.empty()) throw std::invalid_argument("Matrix::mean: empty matrix");
  return sum() / static_cast<double>(data_.size());
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::abs(x));
  return best;
}

bool Matrix::has_non_finite() const {
  return std::any_of(data_.begin(), data_.end(),
                     [](double x) { return !std::isfinite(x); });
}

std::string Matrix::shape_string() const {
  return std::to_string(rows_) + "x" + std::to_string(cols_);
}

Matrix vstack(const std::vector<const Matrix*>& parts) {
  if (parts.empty()) throw std::invalid_argument("vstack: no matrices");
  std::size_t rows = 0;
  const std::size_t cols = parts.front()->cols();
  for (const Matrix* part : parts) {
    if (part == nullptr) throw std::invalid_argument("vstack: null matrix");
    if (part->cols() != cols) {
      throw std::invalid_argument("vstack: column mismatch " + part->shape_string());
    }
    rows += part->rows();
  }
  Matrix out(rows, cols);
  double* dst = out.data();
  for (const Matrix* part : parts) {
    std::copy(part->data(), part->data() + part->size(), dst);
    dst += part->size();
  }
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double best = 0.0;
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    best = std::max(best, std::abs(a.flat()[i] - b.flat()[i]));
  }
  return best;
}

}  // namespace np::la
