// Test-only reference products: plain triple loops that sum every
// entry from +0.0 in ascending reduction order. The library's kernels
// (AVX2 tiles and portable loops alike) must match them bit for bit.
#pragma once

#include "la/matrix.hpp"

namespace np::ref {

/// a (n x k) @ b (k x m).
inline la::Matrix naive_matmul(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = acc;
    }
  }
  return out;
}

}  // namespace np::ref
