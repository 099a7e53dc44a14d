// Compressed sparse row matrix. Used for the (normalized) adjacency of
// the transformed topology inside GCN layers, where the graph is sparse
// and multiplying a dense n x n adjacency would dominate training time.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.hpp"

namespace np::la {

/// One nonzero entry in coordinate form (builder input).
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from coordinate triplets. Duplicate (row, col) entries are
  /// summed. Entries out of bounds throw.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> triplets);

  /// Build from a dense matrix, keeping entries with |x| > tolerance.
  static CsrMatrix from_dense(const Matrix& dense, double tolerance = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Sparse * dense: (rows x cols) * (cols x k) -> (rows x k).
  Matrix multiply(const Matrix& dense) const;

  /// Transposed-sparse * dense: A^T * X, (cols x rows) * (rows x k).
  /// Needed by GCN backward without materializing the transpose.
  Matrix multiply_transposed(const Matrix& dense) const;

  Matrix to_dense() const;

  /// Value at (r, c); zero if absent. O(row nnz).
  double at(std::size_t r, std::size_t c) const;

  const std::vector<std::size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace np::la
