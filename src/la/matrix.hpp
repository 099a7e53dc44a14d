// Dense row-major matrix of doubles. This is the numeric workhorse of
// the autodiff engine and the neural-network layers. It is deliberately
// small: only the operations the project needs, each with explicit
// dimension checks that throw std::invalid_argument on misuse.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace np::la {

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Build from nested initializer lists; all rows must be equally long.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix zeros(std::size_t rows, std::size_t cols) { return Matrix(rows, cols, 0.0); }
  static Matrix identity(std::size_t n);
  /// 1 x n row vector from data.
  static Matrix row_vector(const std::vector<double>& data);
  /// n x 1 column vector from data.
  static Matrix col_vector(const std::vector<double>& data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Bounds-checked access (tests and debug paths).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Flat row-major storage (for serialization and the optimizer).
  std::vector<double>& flat() { return data_; }
  const std::vector<double>& flat() const { return data_; }

  // ---- arithmetic (all dimension-checked) ----
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;
  Matrix operator-() const;

  /// Matrix product: (r x k) * (k x c) -> (r x c), via
  /// la::kernels::matmul (each entry summed in ascending k).
  Matrix matmul(const Matrix& other) const;

  /// Elementwise (Hadamard) product.
  Matrix hadamard(const Matrix& other) const;

  Matrix transposed() const;

  /// Add a 1 x cols row vector to every row (broadcast bias add).
  Matrix add_row_broadcast(const Matrix& row) const;

  /// Sum over rows -> 1 x cols.
  Matrix sum_rows() const;
  /// Sum over columns -> rows x 1.
  Matrix sum_cols() const;
  /// Sum of all entries.
  double sum() const;
  /// Mean of all entries. Requires non-empty.
  double mean() const;
  /// Max-norm of all entries.
  double max_abs() const;

  /// True if any entry is NaN or infinite (training guard).
  bool has_non_finite() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  bool operator==(const Matrix& other) const {
    return same_shape(other) && data_ == other.data_;
  }

  /// Human-readable shape like "3x4" for error messages.
  std::string shape_string() const;

 private:
  void require_same_shape(const Matrix& other, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// max |a - b| over entries; requires same shape.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace np::la
