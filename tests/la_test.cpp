#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "la/kernels.hpp"
#include "la/kernels_detail.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "reference_la.hpp"
#include "util/rng.hpp"

namespace np::la {
namespace {

TEST(Matrix, ConstructAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndMatmul) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix i = Matrix::identity(2);
  EXPECT_EQ(a.matmul(i), a);
  EXPECT_EQ(i.matmul(a), a);
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  Matrix c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Matrix, AdditionSubtractionScaling) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  EXPECT_EQ(a + b, (Matrix{{5, 5}, {5, 5}}));
  EXPECT_EQ(a - b, (Matrix{{-3, -1}, {1, 3}}));
  EXPECT_EQ(a * 2.0, (Matrix{{2, 4}, {6, 8}}));
  EXPECT_EQ(-a, (Matrix{{-1, -2}, {-3, -4}}));
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a.hadamard(b), std::invalid_argument);
}

TEST(Matrix, Hadamard) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{2, 2}, {2, 2}};
  EXPECT_EQ(a.hadamard(b), (Matrix{{2, 4}, {6, 8}}));
}

TEST(Matrix, Transpose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t.transposed(), a);
}

TEST(Matrix, AddRowBroadcast) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix bias{{10, 20}};
  EXPECT_EQ(a.add_row_broadcast(bias), (Matrix{{11, 22}, {13, 24}}));
}

TEST(Matrix, AddRowBroadcastRejectsWrongShape) {
  Matrix a(2, 2);
  EXPECT_THROW(a.add_row_broadcast(Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(a.add_row_broadcast(Matrix(1, 3)), std::invalid_argument);
}

TEST(Matrix, Reductions) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_EQ(a.sum_rows(), (Matrix{{4, 6}}));
  EXPECT_EQ(a.sum_cols(), (Matrix{{3}, {7}}));
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(Matrix, MeanOfEmptyThrows) {
  Matrix m;
  EXPECT_THROW(m.mean(), std::invalid_argument);
}

TEST(Matrix, NonFiniteDetection) {
  Matrix a{{1, 2}};
  EXPECT_FALSE(a.has_non_finite());
  a(0, 1) = std::nan("");
  EXPECT_TRUE(a.has_non_finite());
}

TEST(Matrix, AtBoundsChecked) {
  Matrix a(2, 2);
  EXPECT_THROW(a.at(2, 0), std::out_of_range);
  EXPECT_THROW(a.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(a.at(1, 1));
}

TEST(Matrix, RowAndColVector) {
  Matrix r = Matrix::row_vector({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_EQ(r.cols(), 3u);
  Matrix c = Matrix::col_vector({1, 2, 3});
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 1u);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1.5, 2}};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  EXPECT_THROW(max_abs_diff(a, Matrix(2, 1)), std::invalid_argument);
}

TEST(Csr, BuildAndDensify) {
  CsrMatrix m(2, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {0, 1, 3.0}});
  EXPECT_EQ(m.nnz(), 2u);  // duplicates merged
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  Matrix d = m.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
}

TEST(Csr, OutOfBoundsTripletThrows) {
  EXPECT_THROW(CsrMatrix(2, 2, {{2, 0, 1.0}}), std::invalid_argument);
}

TEST(Csr, MultiplyMatchesDense) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t r = 1 + rng.uniform_index(8);
    const std::size_t c = 1 + rng.uniform_index(8);
    const std::size_t k = 1 + rng.uniform_index(5);
    Matrix dense(r, c);
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        dense(i, j) = rng.uniform() < 0.4 ? rng.normal() : 0.0;
      }
    }
    Matrix x(c, k);
    for (double& v : x.flat()) v = rng.normal();
    CsrMatrix sparse = CsrMatrix::from_dense(dense);
    EXPECT_LT(max_abs_diff(sparse.multiply(x), dense.matmul(x)), 1e-12);
  }
}

TEST(Csr, MultiplyTransposedMatchesDense) {
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t r = 1 + rng.uniform_index(8);
    const std::size_t c = 1 + rng.uniform_index(8);
    const std::size_t k = 1 + rng.uniform_index(5);
    Matrix dense(r, c);
    for (double& v : dense.flat()) v = rng.uniform() < 0.4 ? rng.normal() : 0.0;
    Matrix x(r, k);
    for (double& v : x.flat()) v = rng.normal();
    CsrMatrix sparse = CsrMatrix::from_dense(dense);
    EXPECT_LT(max_abs_diff(sparse.multiply_transposed(x),
                           dense.transposed().matmul(x)),
              1e-12);
  }
}

TEST(Csr, DimensionMismatchThrows) {
  CsrMatrix m(2, 3, {});
  EXPECT_THROW(m.multiply(Matrix(2, 2)), std::invalid_argument);
  EXPECT_THROW(m.multiply_transposed(Matrix(3, 2)), std::invalid_argument);
}

TEST(Matrix, MatmulTiledMatchesNaiveReference) {
  // Shapes straddling the kTileK=64 / kTileJ=128 thresholds, so both
  // the small fast path and the blocked path are exercised and must
  // agree with a plain triple loop bit-for-bit (k-ascending sums).
  Rng rng(21);
  const std::size_t shapes[][3] = {
      {3, 5, 4}, {70, 150, 200}, {64, 64, 128}, {65, 65, 129}, {1, 200, 1}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]), b(s[1], s[2]);
    for (double& v : a.flat()) v = rng.normal();
    for (double& v : b.flat()) v = rng.normal();
    // some exact zeros: the old kernel skipped them, the new one must not
    // change results without the skip either
    a(0, 0) = 0.0;
    EXPECT_EQ(a.matmul(b), ref::naive_matmul(a, b)) << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(Matrix, VstackConcatenatesRows) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}};
  Matrix c{{7, 8}, {9, 10}};
  Matrix stacked = vstack({&a, &b, &c});
  EXPECT_EQ(stacked, (Matrix{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}));
}

TEST(Matrix, VstackValidatesInput) {
  Matrix a{{1, 2}};
  Matrix bad{{1, 2, 3}};
  EXPECT_THROW(vstack({}), std::invalid_argument);
  EXPECT_THROW(vstack({&a, nullptr}), std::invalid_argument);
  EXPECT_THROW(vstack({&a, &bad}), std::invalid_argument);
}

TEST(Csr, BlockDiagonalReplicatesBlocks) {
  CsrMatrix a(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  CsrMatrix blocks = block_diagonal(a, 3);
  EXPECT_EQ(blocks.rows(), 6u);
  EXPECT_EQ(blocks.cols(), 9u);
  EXPECT_EQ(blocks.nnz(), 9u);
  const Matrix dense_a = a.to_dense();
  const Matrix dense = blocks.to_dense();
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 9; ++c) {
        const bool in_block = c >= copy * 3u && c < (copy + 1) * 3u;
        EXPECT_DOUBLE_EQ(dense(copy * 2 + r, c),
                         in_block ? dense_a(r, c - copy * 3u) : 0.0);
      }
    }
  }
  EXPECT_THROW(block_diagonal(a, 0), std::invalid_argument);
}

TEST(Csr, BlockDiagonalMultiplyBitIdenticalPerBlock) {
  // The property batched GNN forwards rely on: multiplying the stacked
  // features by the block-diagonal adjacency equals the per-block
  // multiplies exactly (not just approximately).
  Rng rng(5);
  Matrix dense(7, 7, 0.0);
  for (int i = 0; i < 18; ++i) {
    dense(rng.uniform_index(7), rng.uniform_index(7)) = rng.normal();
  }
  CsrMatrix a = CsrMatrix::from_dense(dense);
  Matrix x1(7, 3), x2(7, 3);
  for (double& v : x1.flat()) v = rng.normal();
  for (double& v : x2.flat()) v = rng.normal();
  CsrMatrix blocks = block_diagonal(a, 2);
  Matrix stacked = vstack({&x1, &x2});
  Matrix batched = blocks.multiply(stacked);
  Matrix y1 = a.multiply(x1), y2 = a.multiply(x2);
  Matrix expected = vstack({&y1, &y2});
  EXPECT_EQ(batched, expected);  // bitwise
}

TEST(Csr, BlockDiagonalCacheReusesAndValidates) {
  auto base = std::make_shared<const CsrMatrix>(
      CsrMatrix(2, 2, {{0, 1, 1.0}, {1, 0, 2.0}}));
  BlockDiagonalCache cache(base);
  EXPECT_EQ(cache.get(1).get(), base.get());  // copies==1 is the base itself
  const auto four_a = cache.get(4);
  const auto four_b = cache.get(4);
  EXPECT_EQ(four_a.get(), four_b.get());  // memoized, stable address
  EXPECT_EQ(four_a->rows(), 8u);
  EXPECT_THROW(cache.get(0), std::invalid_argument);
  EXPECT_THROW(BlockDiagonalCache(nullptr), std::invalid_argument);
}

// ---- register tiles: AVX2 vs portable vs plain loops ----

namespace kd = kernels::detail;

constexpr std::size_t kTileRows[] = {1, 2, 3, 4, 5, 30, 33};
constexpr std::size_t kTileDepths[] = {1, 4, 32, 64, 65, 130};
constexpr std::size_t kTileCols[] = {1, 7, 8, 9, 16, 64, 65, 129};

/// Normal entries with every 7th an exact zero of alternating sign;
/// optionally one NaN in the last row and one infinity in the last
/// column, so both reach some outputs and leave others finite.
Matrix tile_input(std::size_t rows, std::size_t cols, Rng& rng, bool specials) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.flat()[i] = i % 7 == 3 ? (i % 2 == 0 ? 0.0 : -0.0) : rng.normal();
  }
  if (specials && rows > 1) m(rows - 1, 0) = std::numeric_limits<double>::quiet_NaN();
  if (specials && cols > 1) m(0, cols - 1) = std::numeric_limits<double>::infinity();
  return m;
}

/// Bitwise equality of every entry (so +0.0 != -0.0), except that any
/// two NaNs match: which NaN payload survives an add of two NaNs
/// depends on the operand order the compiler picked.
::testing::AssertionResult same_bits(const Matrix& got, const Matrix& want) {
  if (!got.same_shape(want)) return ::testing::AssertionFailure() << "shape differs";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got.flat()[i], w = want.flat()[i];
    if (std::isnan(g) && std::isnan(w)) continue;
    std::uint64_t gb = 0, wb = 0;
    std::memcpy(&gb, &g, sizeof gb);
    std::memcpy(&wb, &w, sizeof wb);
    if (gb != wb) {
      return ::testing::AssertionFailure() << "entry " << i << ": " << g << " vs " << w;
    }
  }
  return ::testing::AssertionSuccess();
}

enum class Product { kMatmul, kMatmulTn, kGradInput };

using ProductFn = void (*)(const double*, std::size_t, std::size_t, const double*,
                           std::size_t, double*);

/// Calls check(x, y) with fresh inputs for every tile shape (n, k, m):
/// kMatmul x (n x k) @ y (k x m); kMatmulTn x^T @ y with x (n x k),
/// y (n x m); kGradInput x @ y^T with x = G (n x m), y = W (k x m).
template <class Check>
void for_each_tile_shape(Product product, Check check) {
  Rng rng(41);
  for (std::size_t n : kTileRows) {
    for (std::size_t k : kTileDepths) {
      for (std::size_t m : kTileCols) {
        const Matrix x = product == Product::kGradInput ? tile_input(n, m, rng, true)
                                                        : tile_input(n, k, rng, true);
        const Matrix y = product == Product::kMatmul     ? tile_input(k, m, rng, true)
                         : product == Product::kMatmulTn ? tile_input(n, m, rng, true)
                                                         : tile_input(k, m, rng, true);
        SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k << " m=" << m);
        check(x, y);
      }
    }
  }
}

/// `product` of x and y through one implementation's entry points; the
/// input gradient goes through kernels::transpose, as the tape does.
Matrix run(Product product, ProductFn matmul, ProductFn matmul_tn, const Matrix& x,
           const Matrix& y) {
  if (product == Product::kMatmul) {
    Matrix out(x.rows(), y.cols(), -1.0);
    matmul(x.data(), x.rows(), x.cols(), y.data(), y.cols(), out.data());
    return out;
  }
  if (product == Product::kMatmulTn) {
    Matrix out(x.cols(), y.cols(), -1.0);
    matmul_tn(x.data(), x.rows(), x.cols(), y.data(), y.cols(), out.data());
    return out;
  }
  std::vector<double> wt(y.size());
  kernels::transpose(y.data(), y.rows(), y.cols(), wt.data());
  Matrix out(x.rows(), y.rows(), -1.0);
  matmul(x.data(), x.rows(), x.cols(), wt.data(), y.rows(), out.data());
  return out;
}

Matrix plain_loops(Product product, const Matrix& x, const Matrix& y) {
  if (product == Product::kMatmul) return ref::naive_matmul(x, y);
  if (product == Product::kMatmulTn) return ref::naive_matmul(x.transposed(), y);
  return ref::naive_matmul(x, y.transposed());
}

TEST(KernelTile, PortablePathsMatchPlainLoops) {
  for (Product product : {Product::kMatmul, Product::kMatmulTn, Product::kGradInput}) {
    for_each_tile_shape(product, [&](const Matrix& x, const Matrix& y) {
      EXPECT_TRUE(same_bits(run(product, kd::matmul_portable, kd::matmul_tn_portable, x, y),
                            plain_loops(product, x, y)));
    });
  }
}

void expect_avx2_matches_portable(Product product) {
  if (!kd::avx2_available()) GTEST_SKIP() << "CPU without AVX2";
  for_each_tile_shape(product, [&](const Matrix& x, const Matrix& y) {
    EXPECT_TRUE(same_bits(run(product, kd::matmul_avx2, kd::matmul_tn_avx2, x, y),
                          run(product, kd::matmul_portable, kd::matmul_tn_portable, x, y)));
  });
}

TEST(KernelTile, Avx2MatmulMatchesPortable) {
  expect_avx2_matches_portable(Product::kMatmul);
}

TEST(KernelTile, Avx2MatmulTnMatchesPortable) {
  expect_avx2_matches_portable(Product::kMatmulTn);
}

TEST(KernelTile, Avx2InputGradientMatchesPortable) {
  expect_avx2_matches_portable(Product::kGradInput);
}

}  // namespace
}  // namespace np::la
