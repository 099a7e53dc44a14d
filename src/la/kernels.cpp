#include "la/kernels.hpp"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "la/kernels_detail.hpp"
#include "util/check.hpp"

namespace np::la::kernels {

namespace {

// Cache tiles of the portable matmul. Bit-identity needs identical
// ORDER, which any segmentation of an ascending k loop preserves.
constexpr std::size_t kTileK = 64;
constexpr std::size_t kTileJ = 128;
// Register blocking: 4 output rows share every load of a B row, and
// give the compiler 4 independent accumulation chains to vectorize and
// interleave across the contiguous j loop.
constexpr std::size_t kRowBlock = 4;

/// The register-blocked inner kernel over a [kk, kend) x [jj, jend)
/// panel for rows [i0, i0 + rows), rows <= kRowBlock. Each out(i, j)
/// accumulates in ascending k within the panel.
inline void panel(const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double* out, std::size_t ldo,
                  std::size_t i0, std::size_t rows, std::size_t kk,
                  std::size_t kend, std::size_t jj, std::size_t jend) {
  if (rows == kRowBlock) {
    double* o0 = out + (i0 + 0) * ldo;
    double* o1 = out + (i0 + 1) * ldo;
    double* o2 = out + (i0 + 2) * ldo;
    double* o3 = out + (i0 + 3) * ldo;
    const double* a0 = a + (i0 + 0) * lda;
    const double* a1 = a + (i0 + 1) * lda;
    const double* a2 = a + (i0 + 2) * lda;
    const double* a3 = a + (i0 + 3) * lda;
    for (std::size_t k = kk; k < kend; ++k) {
      const double v0 = a0[k], v1 = a1[k], v2 = a2[k], v3 = a3[k];
      const double* brow = b + k * ldb;
      for (std::size_t j = jj; j < jend; ++j) {
        const double bj = brow[j];
        o0[j] += v0 * bj;
        o1[j] += v1 * bj;
        o2[j] += v2 * bj;
        o3[j] += v3 * bj;
      }
    }
    return;
  }
  for (std::size_t i = i0; i < i0 + rows; ++i) {
    const double* arow = a + i * lda;
    double* orow = out + i * ldo;
    for (std::size_t k = kk; k < kend; ++k) {
      const double aik = arow[k];
      const double* brow = b + k * ldb;
      for (std::size_t j = jj; j < jend; ++j) orow[j] += aik * brow[j];
    }
  }
}

#if defined(__x86_64__)

// The AVX2 path. Only "avx2" is enabled, never "fma": with FMA
// available GCC contracts acc + a*b into one fused rounding, which
// changes results.
#define NP_TARGET_AVX2 __attribute__((target("avx2")))

/// One output block of R rows x 4V columns, held in R*V accumulators
/// for the whole reduction. Left-operand entry (r, s) is
/// lhs[r * rs + s * ss]; right-operand row s starts at rhs + s * ldr.
/// Each accumulator lane adds lhs(r, s) * rhs(s, j) for s = 0, 1, ...
/// in order, exactly as the portable loops do. With Masked (V == 1),
/// only the lanes set in `mask` are loaded and stored.
template <int R, int V, bool Masked>
NP_TARGET_AVX2 inline void tile(const double* lhs, std::size_t rs,
                                std::size_t ss, const double* rhs,
                                std::size_t ldr, std::size_t steps, double* out,
                                std::size_t ldo, __m256i mask) {
  static_assert(!Masked || V == 1, "masked tiles are one vector wide");
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (std::size_t s = 0; s < steps; ++s) {
    const double* l = lhs + s * ss;
    const double* b = rhs + s * ldr;
    __m256d bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if constexpr (Masked) {
        bv[v] = _mm256_maskload_pd(b, mask);
      } else {
        bv[v] = _mm256_loadu_pd(b + 4 * v);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(l + r * rs);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_pd(acc[r][v], _mm256_mul_pd(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      if constexpr (Masked) {
        _mm256_maskstore_pd(out + r * ldo, mask, acc[r][v]);
      } else {
        _mm256_storeu_pd(out + r * ldo + 4 * v, acc[r][v]);
      }
    }
  }
}

/// R output rows, all m columns: 8-wide tiles, then one 4-wide tile,
/// then a masked tile for the last 1-3 columns.
template <int R>
NP_TARGET_AVX2 void row_block(const double* lhs, std::size_t rs, std::size_t ss,
                              const double* rhs, std::size_t m, std::size_t steps,
                              double* out) {
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t j = 0;
  for (; j + 8 <= m; j += 8) {
    tile<R, 2, false>(lhs, rs, ss, rhs + j, m, steps, out + j, m, all);
  }
  if (j + 4 <= m) {
    tile<R, 1, false>(lhs, rs, ss, rhs + j, m, steps, out + j, m, all);
    j += 4;
  }
  if (j < m) {
    const std::size_t rem = m - j;
    const __m256i mask = _mm256_setr_epi64x(-1, rem > 1 ? -1 : 0, rem > 2 ? -1 : 0, 0);
    tile<R, 1, true>(lhs, rs, ss, rhs + j, m, steps, out + j, m, mask);
  }
}

/// out (rows x m) = L (rows x steps) @ rhs (steps x m), where L(r, s) =
/// lhs[r * rs + s * ss]: (rs, ss) = (k, 1) is a plain row-major left
/// operand, (1, k) its transpose.
NP_TARGET_AVX2 void product_avx2(const double* lhs, std::size_t rs, std::size_t ss,
                                 std::size_t rows, std::size_t steps,
                                 const double* rhs, std::size_t m, double* out) {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    row_block<4>(lhs + i * rs, rs, ss, rhs, m, steps, out + i * m);
  }
  switch (rows - i) {
    case 3: row_block<3>(lhs + i * rs, rs, ss, rhs, m, steps, out + i * m); break;
    case 2: row_block<2>(lhs + i * rs, rs, ss, rhs, m, steps, out + i * m); break;
    case 1: row_block<1>(lhs + i * rs, rs, ss, rhs, m, steps, out + i * m); break;
    default: break;
  }
}

#undef NP_TARGET_AVX2

#endif  // __x86_64__

}  // namespace

namespace detail {

bool avx2_available() {
#if defined(__x86_64__)
  // A function-local static, not a namespace-scope one: GCC needs
  // __builtin_cpu_init() before __builtin_cpu_supports() in code that
  // may run before constructors.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

void matmul_portable(const double* a, std::size_t n, std::size_t k,
                     const double* b, std::size_t m, double* out) {
  std::fill(out, out + n * m, 0.0);
  if (k <= kTileK && m <= kTileJ) {
    std::size_t i = 0;
    for (; i + kRowBlock <= n; i += kRowBlock) {
      panel(a, k, b, m, out, m, i, kRowBlock, 0, k, 0, m);
    }
    if (i < n) panel(a, k, b, m, out, m, i, n - i, 0, k, 0, m);
    return;
  }
  for (std::size_t jj = 0; jj < m; jj += kTileJ) {
    const std::size_t jend = std::min(m, jj + kTileJ);
    for (std::size_t kk = 0; kk < k; kk += kTileK) {
      const std::size_t kend = std::min(k, kk + kTileK);
      std::size_t i = 0;
      for (; i + kRowBlock <= n; i += kRowBlock) {
        panel(a, k, b, m, out, m, i, kRowBlock, kk, kend, jj, jend);
      }
      if (i < n) panel(a, k, b, m, out, m, i, n - i, kk, kend, jj, jend);
    }
  }
}

void matmul_tn_portable(const double* a, std::size_t n, std::size_t k,
                        const double* g, std::size_t m, double* out) {
  std::fill(out, out + k * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a + i * k;
    const double* grow = g + i * m;
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = arow[p];
      double* orow = out + p * m;
      for (std::size_t j = 0; j < m; ++j) orow[j] += aip * grow[j];
    }
  }
}

#if defined(__x86_64__)
void matmul_avx2(const double* a, std::size_t n, std::size_t k, const double* b,
                 std::size_t m, double* out) {
  product_avx2(a, /*rs=*/k, /*ss=*/1, n, k, b, m, out);
}

void matmul_tn_avx2(const double* a, std::size_t n, std::size_t k,
                    const double* g, std::size_t m, double* out) {
  product_avx2(a, /*rs=*/1, /*ss=*/k, k, n, g, m, out);
}
#else
void matmul_avx2(const double* a, std::size_t n, std::size_t k, const double* b,
                 std::size_t m, double* out) {
  matmul_portable(a, n, k, b, m, out);
}

void matmul_tn_avx2(const double* a, std::size_t n, std::size_t k,
                    const double* g, std::size_t m, double* out) {
  matmul_tn_portable(a, n, k, g, m, out);
}
#endif

}  // namespace detail

void matmul(const double* a, std::size_t n, std::size_t k, const double* b,
            std::size_t m, double* out) {
  if (detail::avx2_available()) {
    detail::matmul_avx2(a, n, k, b, m, out);
  } else {
    detail::matmul_portable(a, n, k, b, m, out);
  }
}

void matmul_tn(const double* a, std::size_t n, std::size_t k, const double* g,
               std::size_t m, double* out) {
  if (detail::avx2_available()) {
    detail::matmul_tn_avx2(a, n, k, g, m, out);
  } else {
    detail::matmul_tn_portable(a, n, k, g, m, out);
  }
}

void transpose(const double* a, std::size_t rows, std::size_t cols, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out[c * rows + r] = a[r * cols + c];
  }
}

void spmm(const CsrMatrix& a, const double* x, std::size_t cols, double* out) {
  const std::size_t rows = a.rows();
  const std::size_t* offsets = a.row_offsets().data();
  const std::size_t* indices = a.col_indices().data();
  const double* values = a.values().data();
  // Row-chunked: bounded batches of output rows keep the touched panel
  // of x warm across nearby rows (adjacency rows index overlapping
  // neighborhoods). Per-row nnz order is ascending.
  constexpr std::size_t kRowChunk = 64;
  for (std::size_t r0 = 0; r0 < rows; r0 += kRowChunk) {
    const std::size_t r1 = std::min(rows, r0 + kRowChunk);
    for (std::size_t r = r0; r < r1; ++r) {
      double* orow = out + r * cols;
      std::fill(orow, orow + cols, 0.0);
      for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
        const double v = values[e];
        const double* xrow = x + indices[e] * cols;
        for (std::size_t j = 0; j < cols; ++j) orow[j] += v * xrow[j];
      }
    }
  }
  NP_CHECK_FINITE(out, rows * cols, "kernels::spmm");
}

void spmm_tn(const CsrMatrix& a, const double* x, std::size_t cols, double* out) {
  const std::size_t* offsets = a.row_offsets().data();
  const std::size_t* indices = a.col_indices().data();
  const double* values = a.values().data();
  std::fill(out, out + a.cols() * cols, 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* xrow = x + r * cols;
    for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      const double v = values[e];
      double* orow = out + indices[e] * cols;
      for (std::size_t j = 0; j < cols; ++j) orow[j] += v * xrow[j];
    }
  }
  NP_CHECK_FINITE(out, a.cols() * cols, "kernels::spmm_tn");
}

}  // namespace np::la::kernels
